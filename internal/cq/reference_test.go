package cq

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/query"
	"probprune/internal/uncertain"
)

// This file keeps the full-scan maintenance the index-driven loop
// replaced — a pass over the whole database per woken subscription, and
// a subscribe that runs the complete engine query and then re-derives
// preselection — as an in-test reference, the way the pointer R-tree
// outlived its replacement in package rtree. TestIndexDrivenEquivalence
// drives reference and production subscriptions through the same seeded
// mutation traces on a one-shard and a 4-shard store and requires
// identical event streams, tracked candidates and run counts.

// refSub is one reference subscription: a bare Subscription (never
// registered with a worker) maintained by the full-scan bodies below,
// woken by the same region test the monitor applies.
type refSub struct {
	*Subscription
}

func newRefSub(kind Kind, q *uncertain.Object, k int, tau float64) *refSub {
	return &refSub{&Subscription{
		m: &Monitor{}, kind: kind, q: q, k: k, tau: tau,
		cands: make(map[int]*candState), thresh: math.Inf(1),
	}}
}

func (r *refSub) preselected(e *query.Snapshot, b *uncertain.Object, thresh float64) bool {
	if r.tau <= 0 {
		return false
	}
	if r.kind == KNN {
		return e.KNNPrunable(r.q, b, thresh)
	}
	return e.RKNNPrunable(r.q, b, r.k)
}

// init is the former Subscription.init: one full engine query, then a
// second preselection pass over all of its matches.
func (r *refSub) init(sn *query.Snapshot) []Event {
	r.cache = sn.NewQueryCache()
	var matches []query.Match
	switch r.kind {
	case KNN:
		r.thresh = math.Inf(1)
		if r.tau > 0 {
			r.thresh = sn.KNNThreshold(r.q, r.k)
		}
		matches = must(sn.KNN(bg, r.q, r.k, r.tau))
	case RKNN:
		matches = must(sn.RKNN(bg, r.q, r.k, r.tau))
	}
	var evs []Event
	for _, nm := range matches {
		b := nm.Object
		if r.preselected(sn, b, r.thresh) {
			continue
		}
		r.setupRuns.Add(1)
		r.cands[b.ID] = &candState{obj: b, match: nm}
		if nm.IsResult {
			evs = append(evs, Event{Kind: ObjectEntered, Version: sn.Version(), Object: b, Match: nm})
		}
	}
	sortEvents(evs)
	r.region, r.bounded = r.computeRegion(sn)
	return evs
}

// step is the monitor's per-change routing for one subscription: wake
// on region intersection (always, when unbounded), apply, re-place.
func (r *refSub) step(ch query.Change) []Event {
	if r.bounded && !r.region.Intersects(wakeRect(ch)) {
		return nil
	}
	r.woken.Add(1)
	sn := ch.Snap
	var evs []Event
	if r.kind == KNN {
		evs = r.applyKNN(sn, ch)
	} else {
		evs = r.applyRKNN(sn, ch)
	}
	sortEvents(evs)
	r.region, r.bounded = r.computeRegion(sn)
	return evs
}

func (r *refSub) applyKNN(e *query.Snapshot, ch query.Change) []Event {
	threshNew := math.Inf(1)
	if r.tau > 0 {
		threshNew = e.KNNThreshold(r.q, r.k)
	}
	mutID := mutatedID(ch)
	var evs []Event
	for _, b := range e.Database() {
		if b == r.q || b.ID == mutID {
			continue
		}
		prunedOld := r.cands[b.ID] == nil
		prunedNew := r.tau > 0 && e.KNNPrunable(r.q, b, threshNew)
		rerun := prunedOld != prunedNew
		if !rerun && !prunedNew {
			rerun = r.roleChanged(e, ch, b)
		}
		if !rerun {
			r.countSaved()
			continue
		}
		nm := query.Match{Object: b, Decided: true}
		if !prunedNew {
			nm, _ = e.EvalKNNCandidate(r.q, b, r.k, r.tau, threshNew, r.cache)
			r.countRun()
		}
		evs = r.transition(evs, ch.Version, b, nm, prunedNew)
	}
	evs = r.applyMutated(ch, evs, func(b *uncertain.Object) (query.Match, bool) {
		if r.tau > 0 && e.KNNPrunable(r.q, b, threshNew) {
			return query.Match{Object: b, Decided: true}, true
		}
		r.countRun()
		nm, _ := e.EvalKNNCandidate(r.q, b, r.k, r.tau, threshNew, r.cache)
		return nm, false
	})
	r.thresh = threshNew
	return evs
}

func (r *refSub) applyRKNN(e *query.Snapshot, ch query.Change) []Event {
	norm := e.Norm()
	mutID := mutatedID(ch)
	var evs []Event
	for _, b := range e.Database() {
		if b == r.q || b.ID == mutID {
			continue
		}
		prunedOld := r.cands[b.ID] == nil
		prunedNew := prunedOld
		if r.tau > 0 {
			lim := r.q.MBR.MinDistRect(norm, b.MBR)
			involved := (ch.Old != nil && ch.Old.MBR.MaxDistRect(norm, b.MBR) < lim) ||
				(ch.New != nil && ch.New.MBR.MaxDistRect(norm, b.MBR) < lim)
			if involved {
				prunedNew = e.RKNNPrunable(r.q, b, r.k)
			}
		}
		rerun := prunedOld != prunedNew
		if !rerun && !prunedNew {
			rerun = r.roleChanged(e, ch, b)
		}
		if !rerun {
			r.countSaved()
			continue
		}
		nm := query.Match{Object: b, Decided: true}
		if !prunedNew {
			nm, _ = e.EvalRKNNCandidate(r.q, b, r.k, r.tau, r.cache)
			r.countRun()
		}
		evs = r.transition(evs, ch.Version, b, nm, prunedNew)
	}
	return r.applyMutated(ch, evs, func(b *uncertain.Object) (query.Match, bool) {
		if r.tau > 0 && e.RKNNPrunable(r.q, b, r.k) {
			return query.Match{Object: b, Decided: true}, true
		}
		r.countRun()
		nm, _ := e.EvalRKNNCandidate(r.q, b, r.k, r.tau, r.cache)
		return nm, false
	})
}

func (r *refSub) applyMutated(ch query.Change, evs []Event, evalNew func(*uncertain.Object) (query.Match, bool)) []Event {
	mutID := mutatedID(ch)
	if ch.New == nil || ch.New == r.q {
		if cs := r.cands[mutID]; cs != nil {
			delete(r.cands, mutID)
			if cs.match.IsResult {
				evs = append(evs, Event{Kind: ObjectLeft, Version: ch.Version, Object: ch.Old})
			}
		}
		return evs
	}
	nm, pruned := evalNew(ch.New)
	return r.transition(evs, ch.Version, ch.New, nm, pruned)
}

// pointObject is a zero-extent (certain-position) object.
func pointObject(id int, x, y float64) *uncertain.Object {
	o, err := uncertain.NewObject(id, []geom.Point{{x, y}, {x, y}})
	if err != nil {
		panic(err)
	}
	return o
}

func TestIndexDrivenEquivalence(t *testing.T) {
	for name, shards := range map[string]int{"store": 1, "sharded4": 4} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				t.Parallel()
				runEquivalenceTrace(t, shards, seed)
			})
		}
	}
}

func runEquivalenceTrace(t *testing.T, shards int, seed int64) {
	ctx := testCtx(t)
	rng := rand.New(rand.NewSource(seed * 7919))
	// A clustered database: most objects near the center where the
	// queries sit, a far fringe, a few zero-extent and a few
	// existentially uncertain objects.
	var db uncertain.Database
	for id := 1; id <= 36; id++ {
		switch {
		case id%9 == 0:
			db = append(db, pointObject(id, 0.3+0.4*rng.Float64(), 0.3+0.4*rng.Float64()))
		case id%4 == 0:
			db = append(db, objectNear(rng, id, rng.Float64(), rng.Float64(), 0.05))
		default:
			db = append(db, objectNear(rng, id, 0.3+0.4*rng.Float64(), 0.3+0.4*rng.Float64(), 0.08))
		}
		if id%7 == 0 {
			if err := db[len(db)-1].SetExistence(0.4 + 0.5*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	opts := core.Options{MaxIterations: 2 + int(seed%2)}
	src, err := query.NewShardedStore(db, query.ShardedOptions{Shards: shards}, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Record the change stream ahead of the monitor: the reference
	// consumes exactly the changes (and snapshots) the worker does.
	var recMu sync.Mutex
	var changes []query.Change
	snap0, stopRec := src.Watch(func(ch query.Change) {
		recMu.Lock()
		changes = append(changes, ch)
		recMu.Unlock()
	})
	defer stopRec()
	m := NewMonitor(src, Options{Buffer: 1 << 12})
	defer m.Close()

	resident := db[4] // a query object that is itself a database object
	specs := []struct {
		name string
		kind Kind
		q    *uncertain.Object
		k    int
		tau  float64
	}{
		{"knn", KNN, objectNear(rng, -1, 0.45, 0.45, 0.08), 3, 0.3},
		{"knn-tau0", KNN, objectNear(rng, -2, 0.5, 0.5, 0.05), 2, 0},
		{"knn-k>=N", KNN, objectNear(rng, -3, 0.5, 0.4, 0.05), 1000, 0.2},
		{"knn-resident", KNN, resident, 3, 0.25},
		{"knn-point", KNN, pointObject(-4, 0.5, 0.5), 2, 0.4},
		{"rknn", RKNN, objectNear(rng, -5, 0.5, 0.5, 0.08), 2, 0.25},
		{"rknn-tau0", RKNN, objectNear(rng, -6, 0.4, 0.5, 0.05), 2, 0},
		{"rknn-resident", RKNN, resident, 3, 0.2},
	}
	type pair struct {
		name string
		sub  *Subscription
		ref  *refSub
	}
	var pairs []pair
	for _, sp := range specs {
		sub, err := m.SubscribeTo(nil, "", sp.kind, sp.q, sp.k, sp.tau)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefSub(sp.kind, sp.q, sp.k, sp.tau)
		p := pair{sp.name, sub, ref}
		requireSameStep(t, p.name, "init", src, sub, ref, ref.init(snap0))
		pairs = append(pairs, p)
	}

	nextID := 1000
	applied := 0
	step := func(label string, mutate func() error) {
		t.Helper()
		if err := mutate(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if err := m.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		recMu.Lock()
		pending := append([]query.Change{}, changes[applied:]...)
		applied = len(changes)
		recMu.Unlock()
		if len(pending) != 1 {
			t.Fatalf("%s: %d changes recorded, want 1", label, len(pending))
		}
		for _, p := range pairs {
			requireSameStep(t, p.name, label, src, p.sub, p.ref, p.ref.step(pending[0]))
		}
	}
	var known []int // every ID ever stored
	for _, o := range db {
		known = append(known, o.ID)
	}
	ids := func() []int {
		var out []int
		for _, id := range known {
			if _, ok := src.Get(id); ok {
				out = append(out, id)
			}
		}
		return out
	}

	// Scripted crossings first: an object dropped onto the queries
	// (enters every ball), dragged to the fringe (leaves), brought back
	// and deleted; the resident query object replaced, deleted and
	// re-inserted as the very same instance.
	hot := nextID
	nextID++
	step("insert-hot", func() error { return src.Insert(objectNear(rng, hot, 0.48, 0.48, 0.01)) })
	step("hot-leaves", func() error { return src.Update(objectNear(rng, hot, 0.02, 0.97, 0.01)) })
	step("hot-returns", func() error { return src.Update(pointObject(hot, 0.5, 0.5)) })
	step("delete-hot", func() error { return deleteStored(src, hot) })
	step("replace-resident", func() error { return src.Update(objectNear(rng, resident.ID, 0.5, 0.45, 0.05)) })
	step("delete-resident", func() error { return deleteStored(src, resident.ID) })
	step("reinsert-resident", func() error { return src.Insert(resident) })

	for i := 0; i < 40; i++ {
		live := ids()
		switch roll := rng.Intn(4); {
		case roll == 0 || len(live) < 8:
			o := objectNear(rng, nextID, rng.Float64(), rng.Float64(), 0.08)
			if rng.Intn(3) == 0 {
				o = pointObject(nextID, 0.3+0.4*rng.Float64(), 0.3+0.4*rng.Float64())
			}
			known = append(known, nextID)
			nextID++
			step(fmt.Sprintf("insert-%d", i), func() error { return src.Insert(o) })
		case roll == 1:
			id := live[rng.Intn(len(live))]
			step(fmt.Sprintf("delete-%d", i), func() error { return deleteStored(src, id) })
		default:
			// Updates jump anywhere in the unit square, so they cross
			// the kNN thresholds in both directions.
			o := objectNear(rng, live[rng.Intn(len(live))], rng.Float64(), rng.Float64(), 0.08)
			if rng.Intn(4) == 0 {
				if err := o.SetExistence(0.3 + 0.6*rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
			step(fmt.Sprintf("update-%d", i), func() error { return src.Update(o) })
		}
	}
	for _, p := range pairs {
		if p.sub.Stats().Woken == 0 {
			t.Fatalf("%s: never woken — the trace does not exercise it", p.name)
		}
	}
}

// requireSameStep compares what one step left behind in the production
// subscription and in the reference: the events, the tracked candidates
// (pointers and verdicts) and every counter but Saved, whose meaning is
// the one thing the index-driven loop changed.
func requireSameStep(t *testing.T, name, label string, src *query.Store, sub *Subscription, ref *refSub, want []Event) {
	t.Helper()
	got := drainEvents(sub)
	if len(got) != len(want) {
		t.Fatalf("%s %s: %d events, reference has %d\n got %+v\nwant %+v", name, label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s %s: event %d is %+v, reference has %+v", name, label, i, got[i], want[i])
		}
	}
	if len(sub.cands) != len(ref.cands) {
		t.Fatalf("%s %s: tracks %d candidates, reference tracks %d", name, label, len(sub.cands), len(ref.cands))
	}
	for id, cs := range sub.cands {
		rs := ref.cands[id]
		if rs == nil || cs.obj != rs.obj || cs.match != rs.match {
			t.Fatalf("%s %s: candidate %d is %+v, reference has %+v", name, label, id, cs, rs)
		}
		if live, ok := src.Get(id); !ok || live != cs.obj {
			t.Fatalf("%s %s: tracked candidate %d is not the live object", name, label, id)
		}
	}
	gs, rs := sub.Stats(), ref.Stats()
	if gs.Runs != rs.Runs || gs.SetupRuns != rs.SetupRuns || gs.Woken != rs.Woken {
		t.Fatalf("%s %s: runs/setup/woken %d/%d/%d, reference %d/%d/%d",
			name, label, gs.Runs, gs.SetupRuns, gs.Woken, rs.Runs, rs.SetupRuns, rs.Woken)
	}
	if gs.Saved > rs.Saved {
		t.Fatalf("%s %s: saved %d verdicts, more than the %d a full scan visits", name, label, gs.Saved, rs.Saved)
	}
	if sub.thresh != ref.thresh || sub.bounded != ref.bounded || (sub.bounded && !sub.region.Equal(ref.region)) {
		t.Fatalf("%s %s: threshold/region diverged from the reference", name, label)
	}
}
