package cq

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/gf"
	"probprune/internal/query"
	"probprune/internal/uncertain"
	"probprune/internal/wal"
)

// Kind selects the standing query predicate of a subscription.
type Kind uint8

const (
	// KNN: the probabilistic threshold kNN predicate — the result set
	// holds every object B with P(B ∈ kNN(q)) >= tau.
	KNN Kind = iota + 1
	// RKNN: the probabilistic threshold reverse kNN predicate — every
	// object B for which q is among B's k nearest neighbors with
	// probability >= tau.
	RKNN
)

// String returns a short human-readable kind name.
func (k Kind) String() string {
	switch k {
	case KNN:
		return "knn"
	case RKNN:
		return "rknn"
	default:
		return "unknown"
	}
}

// candState is the persisted verdict of one non-preselected candidate.
// Candidates discarded by preselection (impossible results, P = 0) are
// NOT tracked: a missing map entry is the zero verdict. That keeps the
// per-subscription state proportional to the query's working set, and
// it is what lets a sleeping subscription stay consistent — objects
// mutating outside the influence region are exactly the ones whose
// verdict is and stays zero.
type candState struct {
	obj   *uncertain.Object
	match query.Match
}

// Subscription is one standing KNN/RKNN query registered on a Monitor.
// Events stream to its consumer — the Events() channel, or the Consumer
// given to SubscribeTo — until the subscription ends (Cancel, the
// consumer refusing events, or Monitor.Close); after the channel closes
// (or Consumer.End), Err reports why.
type Subscription struct {
	id   int64
	m    *Monitor
	name string // durable identity; empty for ephemeral subscriptions
	kind Kind
	q    *uncertain.Object
	k    int
	tau  float64

	// resume, while the subscription is being added, holds its cursor
	// state: init then emits the delta since the cursor instead of the
	// full result set. Cleared after init; worker-owned.
	resume *wal.CursorSub

	consumer Consumer
	events   chan Event // the channel consumer's; nil with SubscribeTo

	// Maintenance state below is owned by the monitor worker; nothing
	// else reads or writes it.
	cache   *core.DecompCache // persistent decomposition overlay (q + one-offs)
	thresh  float64           // kNN preselection bound m_{k+1} (+Inf: none)
	cands   map[int]*candState
	region  geom.Rect // registered influence region (valid when bounded)
	bounded bool

	mu  sync.Mutex
	end bool
	err error

	woken, runs, setupRuns, saved, emitted, lost atomic.Uint64
}

// Events returns the subscription's ordered event stream. The channel
// is closed when the subscription ends; consult Err then. It is nil for
// a subscription made with SubscribeTo, whose Consumer takes the events.
func (s *Subscription) Events() <-chan Event { return s.events }

// Kind returns the subscription's predicate kind.
func (s *Subscription) Kind() Kind { return s.kind }

// Name returns the durable identity of the subscription, empty for
// ephemeral ones.
func (s *Subscription) Name() string { return s.name }

// Query returns the subscription's query reference object.
func (s *Subscription) Query() *uncertain.Object { return s.q }

// K returns the kNN parameter.
func (s *Subscription) K() int { return s.k }

// Tau returns the probability threshold.
func (s *Subscription) Tau() float64 { return s.tau }

// Err returns the terminal error after the event channel closed
// (ErrUnsubscribed, ErrSlowConsumer, ErrMonitorClosed, the error a
// Consumer refused events with, or the refusal of a query object whose
// dimension differs from the database's), nil while the subscription is
// live.
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Stats returns the subscription's cumulative maintenance counters.
func (s *Subscription) Stats() SubStats {
	return SubStats{
		Woken:     s.woken.Load(),
		Runs:      s.runs.Load(),
		SetupRuns: s.setupRuns.Load(),
		Saved:     s.saved.Load(),
		Events:    s.emitted.Load(),
		Lost:      s.lost.Load(),
	}
}

// Cancel unsubscribes: maintenance stops, the event channel is closed
// (after any already-buffered events) and Err reports ErrUnsubscribed.
// Safe to call from any goroutine, including the event consumer, and
// idempotent.
func (s *Subscription) Cancel() {
	done := make(chan struct{})
	if !s.m.enqueue(item{unsub: s, done: done}) {
		return // monitor closed or closing: the worker ends every subscription
	}
	<-done
}

// finish marks the subscription ended and ends its consumer's stream.
// Called by the monitor worker only.
func (s *Subscription) finish(err error) {
	s.mu.Lock()
	if s.end {
		s.mu.Unlock()
		return
	}
	s.end = true
	s.err = err
	s.mu.Unlock()
	s.consumer.End(err)
}

// init evaluates the subscription from scratch on snapshot sn and emits
// the initial result set as ObjectEntered events at sn's version — a
// consumer reconstructs the complete standing result from the stream
// alone. Candidates come from the index walk (the m_{k+1} ball for KNN;
// RKNN influence has no spatial bound, so every object is asked) and
// are evaluated through the same per-candidate path maintenance uses,
// which also decides preselection: what it keeps is what gets tracked.
func (s *Subscription) init(sn *query.Snapshot) []Event {
	s.cache = sn.NewQueryCache()
	s.thresh = math.Inf(1)
	if s.kind == KNN && s.tau > 0 {
		s.thresh = sn.KNNThreshold(s.q, s.k)
	}
	var results []query.Match
	for _, b := range sn.Within(s.q, s.thresh) {
		nm, pruned := s.eval(sn, b, s.thresh)
		if pruned {
			continue
		}
		s.setupRuns.Add(1)
		s.m.setupRuns.Add(1)
		s.cands[b.ID] = &candState{obj: b, match: nm}
		if nm.IsResult {
			results = append(results, nm)
		}
	}
	var evs []Event
	if s.resume != nil {
		evs = s.resumeEvents(sn, results)
	} else {
		for _, nm := range results {
			evs = append(evs, Event{Kind: ObjectEntered, Version: sn.Version(), Object: nm.Object, Match: nm})
		}
	}
	sortEvents(evs)
	return evs
}

// eval evaluates candidate b from scratch through the snapshot's single
// per-candidate path (preselection against thresh for KNN, the
// impossibility count for RKNN, then IDCA); pruned reports a
// preselection-only verdict.
func (s *Subscription) eval(sn *query.Snapshot, b *uncertain.Object, thresh float64) (nm query.Match, pruned bool) {
	if s.kind == KNN {
		return sn.EvalKNNCandidate(s.q, b, s.k, s.tau, thresh, s.cache)
	}
	return sn.EvalRKNNCandidate(s.q, b, s.k, s.tau, s.cache)
}

// resumeEvents computes a resumed durable subscription's initial
// events: the coalesced delta between the cursor's persisted result
// set and the current one. An object in both with identical bounds
// produces nothing; membership changes produce ObjectEntered or
// ObjectLeft; bound drift on a staying member produces BoundsChanged.
// All events carry the current snapshot version — the resumed stream
// is exact from the cursor onward.
func (s *Subscription) resumeEvents(sn *query.Snapshot, results []query.Match) []Event {
	prev := make(map[int]wal.CursorEntry, len(s.resume.Entries))
	for _, pe := range s.resume.Entries {
		prev[pe.Obj.ID] = pe
	}
	cur := make(map[int]bool, len(results))
	var evs []Event
	for _, nm := range results {
		cur[nm.Object.ID] = true
		pe, ok := prev[nm.Object.ID]
		switch {
		case !ok:
			evs = append(evs, Event{Kind: ObjectEntered, Version: sn.Version(), Object: nm.Object, Match: nm})
		case pe.LB != nm.Prob.LB || pe.UB != nm.Prob.UB:
			evs = append(evs, Event{Kind: BoundsChanged, Version: sn.Version(), Object: nm.Object, Match: nm})
		}
	}
	if len(cur) < len(prev) {
		// Members that left while the monitor was down. Prefer the live
		// instance (the object may merely no longer qualify); fall back
		// to the persisted copy for objects deleted from the database.
		byID := make(map[int]*uncertain.Object)
		for _, o := range sn.Database() {
			byID[o.ID] = o
		}
		for _, pe := range s.resume.Entries {
			if cur[pe.Obj.ID] {
				continue
			}
			obj := pe.Obj
			if o, ok := byID[pe.Obj.ID]; ok {
				obj = o
			}
			evs = append(evs, Event{Kind: ObjectLeft, Version: sn.Version(), Object: obj})
		}
	}
	return evs
}

// cursorState exports the subscription's current result set for the
// durable cursor, in ascending object ID order.
func (s *Subscription) cursorState() wal.CursorSub {
	cs := wal.CursorSub{Name: s.name, Kind: uint8(s.kind), K: s.k, Tau: s.tau, Q: s.q}
	ids := make([]int, 0, len(s.cands))
	for id, c := range s.cands {
		if c.match.IsResult {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		c := s.cands[id]
		cs.Entries = append(cs.Entries, wal.CursorEntry{
			Obj:        c.obj,
			LB:         c.match.Prob.LB,
			UB:         c.match.Prob.UB,
			Iterations: c.match.Iterations,
		})
	}
	return cs
}

// apply incrementally maintains the subscription across one committed
// store change and returns the resulting events (ascending object ID).
//
// The pruning-aware core: a candidate's persisted verdict stays valid
// unless (a) its preselection status flipped, or (b) the mutated
// object's role in the candidate's run — complete dominator, pruned, or
// member of the canonical influence set (core.ClassifyRole) — differs
// between the old and new state, or the object was and stays an
// influence object (its interior distribution matters). Only candidates
// failing those checks re-run IDCA; everything else keeps its decided
// verdict, bit-identical to what a from-scratch query would recompute.
//
// The step is output-sensitive: it visits the tracked candidates and
// the untracked objects the change could bring in — for KNN the new
// m_{k+1} ball, for RKNN the objects whose impossibility count the
// mutated object can enter (query.Snapshot.Within / RKNNAffected, both
// index walks). Every other object is preselected away before and
// after the change and is never touched. At tau = 0 nothing is ever
// preselected, so every object is already tracked and no walk is needed.
func (s *Subscription) apply(ch query.Change) []Event {
	sn := ch.Snap
	thresh := math.Inf(1)
	var walked []*uncertain.Object
	if s.tau > 0 {
		if s.kind == KNN {
			thresh = sn.KNNThreshold(s.q, s.k)
			walked = sn.Within(s.q, thresh)
		} else {
			walked = sn.RKNNAffected(s.q, ch.Old, ch.New)
		}
	}
	mutID := mutatedID(ch)
	var evs []Event
	for _, b := range s.workingSet(walked) {
		if b.ID == mutID {
			continue
		}
		prunedOld := s.cands[b.ID] == nil
		prunedNew := s.tau > 0 && s.prunedNow(sn, ch, b, thresh, prunedOld)
		rerun := prunedOld != prunedNew
		if !rerun && !prunedNew {
			rerun = s.roleChanged(sn, ch, b)
		}
		if !rerun {
			s.countSaved()
			continue
		}
		nm := query.Match{Object: b, Decided: true}
		if !prunedNew {
			nm, _ = s.eval(sn, b, thresh)
			s.countRun()
		}
		evs = s.transition(evs, ch.Version, b, nm, prunedNew)
	}
	evs = s.applyMutated(sn, ch, evs, thresh)
	s.thresh = thresh
	sortEvents(evs)
	return evs
}

// workingSet returns the objects one maintenance step visits, in
// ascending ID order: every tracked candidate, then the walked objects
// not tracked yet. It is a copy — transition mutates s.cands while the
// caller loops. A tracked cs.obj is always the live database object:
// any mutation of a tracked object intersects the influence region,
// wakes the subscription and re-points or drops the entry.
func (s *Subscription) workingSet(walked []*uncertain.Object) []*uncertain.Object {
	set := make([]*uncertain.Object, 0, len(s.cands)+len(walked))
	for _, cs := range s.cands {
		set = append(set, cs.obj)
	}
	for _, b := range walked {
		if s.cands[b.ID] == nil {
			set = append(set, b)
		}
	}
	sort.Slice(set, func(i, j int) bool { return set[i].ID < set[j].ID })
	return set
}

// prunedNow reports whether preselection discards candidate b after the
// change (tau > 0). KNN compares against the new threshold. For RKNN the
// impossibility count for b (objects closer to b than q in every world)
// involves the mutated object only when one of its states is
// MinMax-closer than q's minimum distance; otherwise the persisted
// status stands and the recount is skipped.
func (s *Subscription) prunedNow(sn *query.Snapshot, ch query.Change, b *uncertain.Object, thresh float64, prunedOld bool) bool {
	if s.kind == KNN {
		return sn.KNNPrunable(s.q, b, thresh)
	}
	if sn.RKNNInvolved(s.q, b, ch.Old, ch.New) {
		return sn.RKNNPrunable(s.q, b, s.k)
	}
	return prunedOld
}

// applyMutated settles the mutated object's own candidacy: deletions
// (and replacements by the query object itself, which is never a
// candidate) drop the tracked verdict, inserts and updates evaluate the
// new object from scratch.
func (s *Subscription) applyMutated(sn *query.Snapshot, ch query.Change, evs []Event, thresh float64) []Event {
	mutID := mutatedID(ch)
	if ch.New == nil || ch.New == s.q {
		if cs := s.cands[mutID]; cs != nil {
			delete(s.cands, mutID)
			if cs.match.IsResult {
				evs = append(evs, Event{Kind: ObjectLeft, Version: ch.Version, Object: ch.Old})
			}
		}
		return evs
	}
	nm, pruned := s.eval(sn, ch.New, thresh)
	if !pruned {
		s.countRun()
	}
	return s.transition(evs, ch.Version, ch.New, nm, pruned)
}

// transition installs candidate b's new verdict and appends the
// resulting result-set event, if any.
func (s *Subscription) transition(evs []Event, version uint64, b *uncertain.Object, nm query.Match, pruned bool) []Event {
	cs := s.cands[b.ID]
	oldIn := cs != nil && cs.match.IsResult
	var oldProb gf.Interval
	if cs != nil {
		oldProb = cs.match.Prob
	}
	if pruned {
		delete(s.cands, b.ID)
	} else if cs != nil {
		cs.obj, cs.match = b, nm
	} else {
		s.cands[b.ID] = &candState{obj: b, match: nm}
	}
	switch {
	case !oldIn && nm.IsResult:
		evs = append(evs, Event{Kind: ObjectEntered, Version: version, Object: b, Match: nm})
	case oldIn && !nm.IsResult:
		evs = append(evs, Event{Kind: ObjectLeft, Version: version, Object: b, Match: nm})
	case oldIn && nm.IsResult && nm.Prob != oldProb:
		evs = append(evs, Event{Kind: BoundsChanged, Version: version, Object: b, Match: nm})
	}
	return evs
}

// roleChanged reports whether the mutated object's filter role in
// candidate b's run differs between its old and new state, or is
// (either side) an influence-set membership — the cases where b's
// persisted bounds may no longer match a from-scratch evaluation. A KNN
// run has the candidate as target and q as reference, an RKNN run the
// reverse. Absent states (insert/delete sides) hold the pruned role: an
// object not in the database contributes nothing.
func (s *Subscription) roleChanged(sn *query.Snapshot, ch query.Change, b *uncertain.Object) bool {
	target, reference := b.MBR, s.q.MBR
	if s.kind == RKNN {
		target, reference = reference, target
	}
	n, crit := sn.Norm(), sn.Criterion()
	ro, rn := core.RolePruned, core.RolePruned
	if ch.Old != nil {
		ro = core.ClassifyRole(n, crit, ch.Old.MBR, ch.Old.ExistenceProb(), target, reference)
	}
	if ch.New != nil {
		rn = core.ClassifyRole(n, crit, ch.New.MBR, ch.New.ExistenceProb(), target, reference)
	}
	return ro != rn || ro == core.RoleInfluence
}

// computeRegion derives the subscription's influence region: the set of
// locations where a mutation could change the result set or any
// persisted bound. For KNN at tau > 0 it is q's MBR expanded by
// max(m_{k+1}, max MaxDist over evaluated candidates): outside it, an
// object is preselection-pruned as a candidate, cannot move the
// threshold order statistic, and is completely dominated by every
// evaluated candidate (so every persisted verdict stays bit-identical).
// RKNN influence is not spatially bounded — a remote object whose
// neighborhood is empty has q as a nearest neighbor at any distance —
// and tau = 0 disables preselection entirely, so those subscriptions
// report no region and wake on every change (their maintenance still
// re-runs only affected candidates).
func (s *Subscription) computeRegion(sn *query.Snapshot) (geom.Rect, bool) {
	if s.kind != KNN || s.tau <= 0 {
		return geom.Rect{}, false
	}
	r := s.thresh
	if math.IsInf(r, 1) {
		return geom.Rect{}, false
	}
	n := sn.Norm()
	for _, cs := range s.cands {
		if d := cs.obj.MBR.MaxDistRect(n, s.q.MBR); d > r {
			r = d
		}
	}
	return expand(s.q.MBR, r), true
}

// countRun counts one maintenance IDCA evaluation.
func (s *Subscription) countRun() {
	s.runs.Add(1)
	s.m.runs.Add(1)
}

// countSaved counts one candidate whose persisted verdict stood without
// an IDCA re-run — the work incremental maintenance avoided.
func (s *Subscription) countSaved() {
	s.saved.Add(1)
	s.m.saved.Add(1)
}

// mutatedID returns the database ID a change concerns.
func mutatedID(ch query.Change) int {
	if ch.New != nil {
		return ch.New.ID
	}
	return ch.Old.ID
}

// expand grows a rectangle by d in every direction — a conservative
// cover of {x : MinDist(x, r) <= d} under any Lp norm (each per-axis
// gap is a lower bound on the norm distance).
func expand(r geom.Rect, d float64) geom.Rect {
	min := make(geom.Point, len(r.Min))
	max := make(geom.Point, len(r.Max))
	for i := range r.Min {
		min[i] = r.Min[i] - d
		max[i] = r.Max[i] + d
	}
	return geom.Rect{Min: min, Max: max}
}

// sortEvents orders one change's events by object ID — the
// deterministic within-version order of the stream.
func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool { return evs[i].Object.ID < evs[j].Object.ID })
}
