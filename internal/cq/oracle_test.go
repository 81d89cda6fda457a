package cq

import (
	"fmt"
	"math/rand"
	"testing"

	"probprune/internal/core"
	"probprune/internal/gf"
	"probprune/internal/query"
	"probprune/internal/uncertain"
	"probprune/internal/workload"
)

// This file is the continuous-query oracle: a randomized mutation trace
// (Insert/Update/Delete) is replayed against a monitored store, and
// after EVERY committed version the cumulative event stream of every
// subscription is checked for bit-equivalence with a from-scratch
// Engine recomputation over a mirrored copy of the database state —
// result membership AND probability bounds, exact float equality. This
// is the acceptance criterion that incremental maintenance never
// diverges from recomputation: the verdicts a sleeping candidate keeps
// are provably the ones a fresh query would re-derive.

// traceView reconstructs a subscription's result set purely from its
// event stream, enforcing the stream's internal consistency.
type traceView struct {
	name  string
	probs map[int]gf.Interval
}

func newTraceView(name string) *traceView {
	return &traceView{name: name, probs: make(map[int]gf.Interval)}
}

func (v *traceView) applyEvents(t *testing.T, evs []Event, version uint64) {
	t.Helper()
	for _, ev := range evs {
		if ev.Version != version {
			t.Fatalf("%s: event version %d, want %d", v.name, ev.Version, version)
		}
		id := ev.Object.ID
		_, in := v.probs[id]
		switch ev.Kind {
		case ObjectEntered:
			if in {
				t.Fatalf("%s v%d: ObjectEntered for %d already in result set", v.name, version, id)
			}
			if !ev.Match.IsResult {
				t.Fatalf("%s v%d: ObjectEntered for %d without IsResult", v.name, version, id)
			}
			v.probs[id] = ev.Match.Prob
		case ObjectLeft:
			if !in {
				t.Fatalf("%s v%d: ObjectLeft for %d not in result set", v.name, version, id)
			}
			if ev.Match.IsResult {
				t.Fatalf("%s v%d: ObjectLeft for %d still flagged IsResult", v.name, version, id)
			}
			delete(v.probs, id)
		case BoundsChanged:
			if !in {
				t.Fatalf("%s v%d: BoundsChanged for %d not in result set", v.name, version, id)
			}
			if v.probs[id] == ev.Match.Prob {
				t.Fatalf("%s v%d: BoundsChanged for %d with identical bounds", v.name, version, id)
			}
			v.probs[id] = ev.Match.Prob
		default:
			t.Fatalf("%s v%d: unknown event kind %v", v.name, version, ev.Kind)
		}
	}
}

func (v *traceView) compare(t *testing.T, want map[int]gf.Interval, seed int64, version uint64) {
	t.Helper()
	if len(v.probs) != len(want) {
		t.Fatalf("seed %d %s v%d: stream view has %d results, recomputation has %d",
			seed, v.name, version, len(v.probs), len(want))
	}
	for id, p := range v.probs {
		wp, ok := want[id]
		if !ok {
			t.Fatalf("seed %d %s v%d: stream view holds %d, recomputation does not", seed, v.name, version, id)
		}
		if p != wp {
			t.Fatalf("seed %d %s v%d: object %d bounds [%g,%g] from stream, [%g,%g] recomputed",
				seed, v.name, version, id, p.LB, p.UB, wp.LB, wp.UB)
		}
	}
}

// resultSet extracts the decided result set (id -> bounds) of a
// from-scratch query over the mirrored database.
func resultSet(matches []query.Match) map[int]gf.Interval {
	out := make(map[int]gf.Interval)
	for _, m := range matches {
		if m.IsResult {
			out[m.Object.ID] = m.Prob
		}
	}
	return out
}

// subCase couples one subscription with its stream view and its
// from-scratch recomputation.
type subCase struct {
	sub  *Subscription
	view *traceView
	want func(e *query.Engine) map[int]gf.Interval
}

func TestMutationTraceOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runMutationTrace(t, seed)
		})
	}
}

func runMutationTrace(t *testing.T, seed int64) {
	ctx := testCtx(t)
	rng := rand.New(rand.NewSource(seed * 977))
	db, err := workload.Synthetic(workload.SyntheticConfig{
		N:         24 + int(seed%9),
		Samples:   4,
		MaxExtent: 0.15, // large, overlapping regions: hard, undecidable candidates
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Half the seeds include existentially uncertain objects.
	if seed%2 == 0 {
		for i, o := range db {
			if i%4 == 0 {
				if err := o.SetExistence(0.3 + 0.6*rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	opts := core.Options{MaxIterations: 2 + int(seed%2)}
	store := newTestStore(t, db, opts)
	m := NewMonitor(store, Options{Buffer: 1 << 14})
	defer m.Close()

	// mirror tracks the database state alongside the store; the
	// from-scratch engine is rebuilt on it at every version.
	mirror := append(uncertain.Database{}, db...)

	newQ := func(id int) *uncertain.Object {
		return objectNear(rng, id, 0.2+0.6*rng.Float64(), 0.2+0.6*rng.Float64(), 0.1)
	}
	q1, q2, q3 := newQ(-1), newQ(-2), newQ(-3)
	var cases []*subCase
	addCase := func(name string, sub *Subscription, err error, want func(e *query.Engine) map[int]gf.Interval) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, &subCase{sub: sub, view: newTraceView(name), want: want})
	}
	k := 2 + int(seed%3)
	sub1, err1 := m.SubscribeKNN(q1, k, 0.35)
	addCase("knn", sub1, err1, func(e *query.Engine) map[int]gf.Interval {
		return resultSet(e.KNN(q1, k, 0.35))
	})
	sub2, err2 := m.SubscribeKNN(q2, 2, 0) // tau = 0: no preselection, everything is a result
	addCase("knn-tau0", sub2, err2, func(e *query.Engine) map[int]gf.Interval {
		return resultSet(e.KNN(q2, 2, 0))
	})
	sub3, err3 := m.SubscribeRKNN(q3, k, 0.25)
	addCase("rknn", sub3, err3, func(e *query.Engine) map[int]gf.Interval {
		return resultSet(e.RKNN(q3, k, 0.25))
	})

	check := func(version uint64) {
		t.Helper()
		e, err := query.NewEngine(mirror, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			c.view.applyEvents(t, drainEvents(c.sub), version)
			c.view.compare(t, c.want(e), seed, version)
		}
	}
	check(store.Version()) // initial result sets

	nextID := 10_000
	const steps = 45
	for step := 0; step < steps; step++ {
		// Mutate store and mirror identically; a third of the inserts and
		// updates carry existential uncertainty.
		roll := rng.Intn(3)
		if len(mirror) < 6 {
			roll = 0
		}
		switch roll {
		case 0:
			o := objectNear(rng, nextID, rng.Float64(), rng.Float64(), 0.1)
			if rng.Intn(3) == 0 {
				if err := o.SetExistence(0.3 + 0.6*rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
			nextID++
			if err := store.Insert(o); err != nil {
				t.Fatal(err)
			}
			mirror = append(mirror, o)
		case 1:
			i := rng.Intn(len(mirror))
			o := objectNear(rng, mirror[i].ID, rng.Float64(), rng.Float64(), 0.1)
			if rng.Intn(3) == 0 {
				if err := o.SetExistence(0.3 + 0.6*rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
			if err := store.Update(o); err != nil {
				t.Fatal(err)
			}
			mirror[i] = o
		default:
			i := rng.Intn(len(mirror))
			if ok, err := store.Delete(mirror[i].ID); err != nil || !ok {
				t.Fatalf("delete of %d failed", mirror[i].ID)
			}
			mirror = append(mirror[:i], mirror[i+1:]...)
		}
		if err := m.WaitVersion(ctx, store.Version()); err != nil {
			t.Fatal(err)
		}
		check(store.Version())
	}
}
