package query

import (
	"math/rand"
	"sort"
	"testing"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/obs"
	"probprune/internal/uncertain"
)

// TestTopKNNMatchesExactOrder: the selected top-m set must be the m
// objects with the highest exact kNN probability (up to exact ties).
func TestTopKNNMatchesExactOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(700))
	db := smallDB(rng, 25, 12)
	q := randObj(rng, 500, 12, 5, 5, 2)
	const k, m = 3, 5
	eng := newSnapshot(t, db, core.Options{MaxIterations: 10})
	got := must(eng.TopKNN(bg, q, k, m))
	if len(got) != m {
		t.Fatalf("returned %d matches, want %d", len(got), m)
	}

	type scored struct {
		id int
		p  float64
	}
	var all []scored
	for _, b := range db {
		all = append(all, scored{id: b.ID, p: exactTail(db, b, q, k)})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].p > all[j].p })
	cut := all[m-1].p
	want := map[int]bool{}
	for _, s := range all {
		if s.p >= cut-1e-9 {
			want[s.id] = true
		}
	}
	for _, g := range got {
		if !want[g.Object.ID] {
			t.Fatalf("object %d selected but exact P=%g below the top-%d cut %g",
				g.Object.ID, exactTail(db, g.Object, q, k), m, cut)
		}
		exact := exactTail(db, g.Object, q, k)
		if !g.Prob.Contains(exact, 1e-9) {
			t.Fatalf("object %d: exact %g outside [%g, %g]", g.Object.ID, exact, g.Prob.LB, g.Prob.UB)
		}
	}
	// The output must be ordered by probability midpoint.
	for i := 1; i < len(got); i++ {
		mi := got[i-1].Prob.LB + got[i-1].Prob.UB
		mj := got[i].Prob.LB + got[i].Prob.UB
		if mj > mi+1e-9 {
			t.Fatal("results not ordered by probability")
		}
	}
}

// TestTopKNNOnCertainData reduces to classical kNN.
func TestTopKNNOnCertainData(t *testing.T) {
	db := uncertain.Database{
		uncertain.PointObject(0, geom.Point{4, 0}),
		uncertain.PointObject(1, geom.Point{1, 0}),
		uncertain.PointObject(2, geom.Point{2, 0}),
		uncertain.PointObject(3, geom.Point{3, 0}),
		uncertain.PointObject(4, geom.Point{9, 0}),
	}
	q := uncertain.PointObject(99, geom.Point{0, 0})
	eng := newSnapshot(t, db, core.Options{MaxIterations: 4})
	got := must(eng.TopKNN(bg, q, 2, 2))
	if len(got) != 2 {
		t.Fatalf("got %d matches", len(got))
	}
	ids := map[int]bool{got[0].Object.ID: true, got[1].Object.ID: true}
	if !ids[1] || !ids[2] {
		t.Fatalf("top-2 of 2NN should be objects 1 and 2, got %v", ids)
	}
	for _, g := range got {
		if !g.Decided {
			t.Errorf("certain-data selection undecided for %d", g.Object.ID)
		}
	}
}

// TestTopKNNEdgeCases: invalid parameters and m larger than the
// candidate set.
func TestTopKNNEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(701))
	db := smallDB(rng, 6, 6)
	q := randObj(rng, 500, 6, 5, 5, 1)
	eng := newSnapshot(t, db, core.Options{MaxIterations: 3})
	if must(eng.TopKNN(bg, q, 0, 3)) != nil {
		t.Error("k=0 must return nil")
	}
	if must(eng.TopKNN(bg, q, 3, 0)) != nil {
		t.Error("m=0 must return nil")
	}
	got := must(eng.TopKNN(bg, q, 2, 100))
	if len(got) == 0 || len(got) > len(db) {
		t.Errorf("m beyond candidates returned %d matches", len(got))
	}
}

// TestTopKNNWithoutIndex: the engine must select the same set as the
// full-scan reference, which refines every candidate to the budget.
func TestTopKNNWithoutIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(702))
	db := smallDB(rng, 20, 8)
	q := randObj(rng, 500, 8, 5, 5, 2)
	opts := core.Options{MaxIterations: 8}
	a := must(newSnapshot(t, db, opts).TopKNN(bg, q, 3, 4))
	b := fullScan{db, opts}.topKNN(q, 3, 4)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	idsA := map[int]bool{}
	for _, m := range a {
		idsA[m.Object.ID] = true
	}
	for _, o := range b {
		if !idsA[o.ID] {
			t.Fatalf("selections differ: %d missing from the engine's run", o.ID)
		}
	}
}

// TestTopKNNCountsUndecided: two objects with the same samples tie on
// their kNN probability, so the top-1 selection cannot separate them
// and its one match is undecided; the trace and the store's
// query.undecided counter both count it, as they count KNN's and
// RKNN's undecided matches.
func TestTopKNNCountsUndecided(t *testing.T) {
	a := randObj(rand.New(rand.NewSource(41)), 1, 6, 0, 0, 1)
	twin, err := uncertain.NewFlatObject(2, a.Dim(), a.Coords, nil)
	if err != nil {
		t.Fatal(err)
	}
	far := uncertain.PointObject(3, geom.Point{50, 50})
	sn := newSnapshot(t, uncertain.Database{a, twin, far}, core.Options{MaxIterations: 4})
	q := uncertain.PointObject(-1, geom.Point{0.1, 0.1})

	tr := &obs.Trace{}
	got := must(sn.TopKNN(obs.WithTrace(bg, tr), q, 1, 1))
	if len(got) != 1 || got[0].Decided {
		t.Fatalf("TopKNN over a tied pair = %+v, want one undecided match", got)
	}
	s := tr.Snapshot()
	if s.Refined != 2 || s.Undecided != 1 {
		t.Fatalf("trace refined=%d undecided=%d, want 2 and 1", s.Refined, s.Undecided)
	}
	if n := obs.PointsMap(sn.obs.Registry().Points())["query.undecided"]; n != 1 {
		t.Fatalf("query.undecided = %d, want 1", n)
	}
}
