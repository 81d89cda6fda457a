package cq

import (
	"math/rand"
	"testing"

	"probprune/internal/core"
	"probprune/internal/uncertain"
	"probprune/internal/workload"
)

// TestMaintenanceOutputSensitive is the regression test for
// index-driven maintenance: on a 10^4-object store with 64 overlapping
// KNN subscriptions, a woken subscription may look at its tracked
// candidates, the objects inside the new m_{k+1} ball and the mutated
// object — never at the database. It also pins the invariant the loop
// leans on now that it no longer re-reads objects from the database
// slice: every tracked candidate holds the live object pointer.
func TestMaintenanceOutputSensitive(t *testing.T) {
	ctx := testCtx(t)
	// Small, sharp objects and one refinement iteration keep the IDCA
	// runs (all that is left to pay for) cheap under the race detector.
	db, err := workload.Synthetic(workload.SyntheticConfig{N: 10_000, Samples: 2, MaxExtent: 0.004, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	store := newTestStore(t, db, core.Options{MaxIterations: 1})
	m := NewMonitor(store, Options{Buffer: 1 << 12, Policy: DropOldest})
	defer m.Close()

	// Queries and drifting objects share the square [0.4, 0.6]^2.
	const lo, side, k, tau = 0.4, 0.2, 5, 0.3
	rng := rand.New(rand.NewSource(53))
	subs := make([]*Subscription, 64)
	for i := range subs {
		q := objectNear(rng, -(i + 1), lo+side*rng.Float64(), lo+side*rng.Float64(), 0.004)
		sub, err := m.SubscribeKNN(q, k, tau)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}
	var movers []*uncertain.Object
	for _, o := range db {
		if c := o.MBR.Center(); c[0] >= lo && c[0] <= lo+side && c[1] >= lo && c[1] <= lo+side {
			movers = append(movers, o)
		}
	}
	if len(movers) < 100 {
		t.Fatalf("only %d objects inside the query square", len(movers))
	}

	type before struct {
		st      SubStats
		tracked int
	}
	var wakes, visited uint64
	for step := 0; step < 200; step++ {
		prev := make([]before, len(subs))
		for i, s := range subs {
			prev[i] = before{s.Stats(), len(s.cands)}
		}
		i := rng.Intn(len(movers))
		c := movers[i].MBR.Center()
		movers[i] = objectNear(rng, movers[i].ID, c[0]+0.02*(rng.Float64()-0.5), c[1]+0.02*(rng.Float64()-0.5), 0.004)
		if err := store.Update(movers[i]); err != nil {
			t.Fatal(err)
		}
		if err := m.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		e := store.Snapshot()
		for i, s := range subs {
			st := s.Stats()
			for id, cs := range s.cands {
				if live, ok := store.Get(id); !ok || live != cs.obj {
					t.Fatalf("step %d sub %d: tracked candidate %d is not the live object", step, i, id)
				}
			}
			if st.Woken == prev[i].st.Woken {
				if st.Runs != prev[i].st.Runs || st.Saved != prev[i].st.Saved {
					t.Fatalf("step %d sub %d: a sleeping subscription did work", step, i)
				}
				continue
			}
			work := (st.Runs - prev[i].st.Runs) + (st.Saved - prev[i].st.Saved)
			ball := len(e.Within(s.q, e.KNNThreshold(s.q, k)))
			if limit := uint64(prev[i].tracked + ball + 1); work > limit {
				t.Fatalf("step %d sub %d: %d candidates visited, bound is %d tracked + %d in the ball + the mutated object",
					step, i, work, prev[i].tracked, ball)
			}
			wakes++
			visited += work
		}
	}
	if wakes < 200 {
		t.Fatalf("only %d wakes over 200 updates — the subscriptions do not overlap the drift", wakes)
	}
	t.Logf("%d wakes, %.1f candidates visited per wake over %d objects", wakes, float64(visited)/float64(wakes), len(db))
}
