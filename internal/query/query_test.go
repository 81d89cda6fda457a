package query

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/mc"
	"probprune/internal/uncertain"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// newSnapshot is the snapshot of a one-shard store over a database the
// store accepts.
func newSnapshot(t testing.TB, db uncertain.Database, opts core.Options) *Snapshot {
	t.Helper()
	s, err := NewStore(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s.Snapshot()
}

// bg is the context of every query a test does not cancel.
var bg = context.Background()

// must returns a query's result and panics on its error: the queries
// the tests issue through it are well-formed, so an error is a failure.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func randObj(rng *rand.Rand, id, n int, cx, cy, ext float64) *uncertain.Object {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{cx + (rng.Float64()-0.5)*ext, cy + (rng.Float64()-0.5)*ext}
	}
	o, err := uncertain.NewObject(id, pts)
	if err != nil {
		panic(err)
	}
	return o
}

func smallDB(rng *rand.Rand, n, samples int) uncertain.Database {
	db := make(uncertain.Database, 0, n)
	for i := 0; i < n; i++ {
		db = append(db, randObj(rng, i, samples, rng.Float64()*10, rng.Float64()*10, 1.5))
	}
	return db
}

// exactTail computes the exact P(DomCount(b, r) < k) over db \ {b, r}.
func exactTail(db uncertain.Database, b, r *uncertain.Object, k int) float64 {
	var cands []*uncertain.Object
	for _, o := range db {
		if o != b && o != r {
			cands = append(cands, o)
		}
	}
	pdf := mc.DomCountPDF(geom.L2, cands, b, r, 0)
	p := 0.0
	for x := 0; x < k && x < len(pdf); x++ {
		p += pdf[x]
	}
	return p
}

// TestKNNAgreesWithExact: every decided verdict must match the exact
// probability's side of the threshold, and every returned bound must
// contain the exact probability.
func TestKNNAgreesWithExact(t *testing.T) {
	rng := rand.New(rand.NewSource(300))
	db := smallDB(rng, 12, 16)
	q := randObj(rng, 500, 16, 5, 5, 1.5)
	for _, k := range []int{1, 3, 5} {
		for _, tau := range []float64{0.25, 0.5, 0.75} {
			eng := newSnapshot(t, db, core.Options{MaxIterations: 8})
			matches := must(eng.KNN(bg, q, k, tau))
			if len(matches) != len(db) {
				t.Fatalf("k=%d: %d matches for %d objects", k, len(matches), len(db))
			}
			for _, m := range matches {
				exact := exactTail(db, m.Object, q, k)
				if !m.Prob.Contains(exact, 1e-9) {
					t.Fatalf("k=%d tau=%g obj=%d: exact %g outside [%g, %g]",
						k, tau, m.Object.ID, exact, m.Prob.LB, m.Prob.UB)
				}
				if m.Decided {
					wantResult := exact >= tau
					if m.IsResult != wantResult && math.Abs(exact-tau) > 1e-9 {
						t.Fatalf("k=%d tau=%g obj=%d: verdict %v but exact %g vs tau %g",
							k, tau, m.Object.ID, m.IsResult, exact, tau)
					}
				}
			}
		}
	}
}

// TestKNNCertainPoints: on certain data the probabilistic kNN query
// degenerates to the classical one.
func TestKNNCertainPoints(t *testing.T) {
	db := uncertain.Database{
		uncertain.PointObject(0, geom.Point{1, 0}),
		uncertain.PointObject(1, geom.Point{2, 0}),
		uncertain.PointObject(2, geom.Point{3, 0}),
		uncertain.PointObject(3, geom.Point{4, 0}),
	}
	q := uncertain.PointObject(99, geom.Point{0, 0})
	eng := newSnapshot(t, db, core.Options{MaxIterations: 4})
	matches := must(eng.KNN(bg, q, 2, 0.5))
	for _, m := range matches {
		want := m.Object.ID <= 1 // the two closest
		if !m.Decided {
			t.Fatalf("certain-data query undecided for object %d", m.Object.ID)
		}
		if m.IsResult != want {
			t.Errorf("object %d: IsResult = %v, want %v", m.Object.ID, m.IsResult, want)
		}
	}
}

// TestKNNThresholdStopSavesIterations: with an easy threshold the
// engine must stop earlier than the iteration budget (the Figure 8
// effect).
func TestKNNThresholdStopSavesIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	db := smallDB(rng, 25, 32)
	q := randObj(rng, 500, 32, 5, 5, 1.5)
	eng := newSnapshot(t, db, core.Options{MaxIterations: 10})
	total := 0
	for _, m := range must(eng.KNN(bg, q, 3, 0.5)) {
		total += m.Iterations
	}
	if total >= 10*len(db) {
		t.Errorf("threshold stop never engaged: %d total iterations", total)
	}
}

// TestRKNNAgreesWithExact mirrors the kNN test for the reverse query:
// P(DomCount(q, B) < k) computed with B as the reference.
func TestRKNNAgreesWithExact(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	db := smallDB(rng, 10, 16)
	q := randObj(rng, 500, 16, 5, 5, 1.5)
	eng := newSnapshot(t, db, core.Options{MaxIterations: 8})
	for _, m := range must(eng.RKNN(bg, q, 2, 0.5)) {
		exact := exactTail(db, q, m.Object, 2)
		if !m.Prob.Contains(exact, 1e-9) {
			t.Fatalf("obj=%d: exact %g outside [%g, %g]", m.Object.ID, exact, m.Prob.LB, m.Prob.UB)
		}
		if m.Decided && math.Abs(exact-0.5) > 1e-9 && m.IsResult != (exact >= 0.5) {
			t.Fatalf("obj=%d: verdict %v but exact %g", m.Object.ID, m.IsResult, exact)
		}
	}
}

// TestInverseRankMatchesExactPDF: the rank distribution is the count
// PDF shifted by one (Corollary 3).
func TestInverseRankMatchesExactPDF(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	db := smallDB(rng, 8, 8)
	r := randObj(rng, 500, 8, 5, 5, 1.5)
	b := db[0]
	var cands []*uncertain.Object
	for _, o := range db[1:] {
		cands = append(cands, o)
	}
	exact := mc.DomCountPDF(geom.L2, cands, b, r, 0)
	eng := newSnapshot(t, db, core.Options{MaxIterations: 10})
	rd := must(eng.InverseRank(bg, b, r))
	for k, p := range exact {
		iv := rd.Bound(k + 1) // rank = count + 1
		if !iv.Contains(p, 1e-9) {
			t.Fatalf("P(Rank=%d): exact %g outside [%g, %g]", k+1, p, iv.LB, iv.UB)
		}
	}
	if iv := rd.Bound(0); iv.LB != 0 || iv.UB != 0 {
		t.Error("rank 0 must have zero probability")
	}
	if rd.Result == nil || rd.Object != b {
		t.Error("RankDistribution accessors wrong")
	}
}

// TestExpectedRankBoundsContainExact: the greedy mass-shifting bounds
// must bracket the exact expected rank, and converge to it.
func TestExpectedRankBoundsContainExact(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	db := smallDB(rng, 8, 8)
	r := randObj(rng, 500, 8, 5, 5, 1.5)
	b := db[0]
	var cands []*uncertain.Object
	for _, o := range db[1:] {
		cands = append(cands, o)
	}
	exact := mc.ExpectedRank(geom.L2, cands, b, r)
	for iters := 1; iters <= 8; iters++ {
		res := core.Run(db, b, r, core.Options{MaxIterations: iters})
		lo, hi := ExpectedRankBounds(res)
		if exact < lo-1e-9 || exact > hi+1e-9 {
			t.Fatalf("iters=%d: exact %g outside [%g, %g]", iters, exact, lo, hi)
		}
	}
	res := core.Run(db, b, r, core.Options{MaxIterations: 10})
	lo, hi := ExpectedRankBounds(res)
	if hi-lo > 1e-6 {
		t.Fatalf("expected-rank bounds did not converge: [%g, %g]", lo, hi)
	}
	if !almostEqual(lo, exact, 1e-6) {
		t.Fatalf("converged expected rank %g != exact %g", lo, exact)
	}
}

// TestRankByExpectedRankOrdersCertainData: on certain points the
// expected-rank ranking is the distance order.
func TestRankByExpectedRankOrdersCertainData(t *testing.T) {
	db := uncertain.Database{
		uncertain.PointObject(0, geom.Point{3, 0}),
		uncertain.PointObject(1, geom.Point{1, 0}),
		uncertain.PointObject(2, geom.Point{2, 0}),
	}
	q := uncertain.PointObject(99, geom.Point{0, 0})
	eng := newSnapshot(t, db, core.Options{MaxIterations: 4})
	ranked := must(eng.RankByExpectedRank(bg, q))
	wantOrder := []int{1, 2, 0}
	for i, r := range ranked {
		if r.Object.ID != wantOrder[i] {
			t.Fatalf("position %d: object %d, want %d", i, r.Object.ID, wantOrder[i])
		}
		if !almostEqual(r.ExpectedRankLB, float64(i+1), 1e-9) || !almostEqual(r.ExpectedRankUB, float64(i+1), 1e-9) {
			t.Errorf("object %d expected rank [%g, %g], want exactly %d",
				r.Object.ID, r.ExpectedRankLB, r.ExpectedRankUB, i+1)
		}
	}
}

// TestEngineWithoutIndexMatchesIndexed: the engine's KNN must agree
// with the index-less full-scan reference.
func TestEngineWithoutIndexMatchesIndexed(t *testing.T) {
	rng := rand.New(rand.NewSource(305))
	db := smallDB(rng, 15, 16)
	q := randObj(rng, 500, 16, 5, 5, 1.5)
	opts := core.Options{MaxIterations: 5}
	requireMatchesAgree(t, must(newSnapshot(t, db, opts).KNN(bg, q, 3, 0.5)), fullScan{db, opts}.knn(q, 3, 0.5))
}

// requireMatchesAgree compares an engine's matches with the reference's:
// the same objects in the same order, verdicts and bounds.
func requireMatchesAgree(t *testing.T, a, b []Match) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("match counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Object != b[i].Object || a[i].IsResult != b[i].IsResult || a[i].Decided != b[i].Decided {
			t.Fatalf("match %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if !almostEqual(a[i].Prob.LB, b[i].Prob.LB, 1e-9) || !almostEqual(a[i].Prob.UB, b[i].Prob.UB, 1e-9) {
			t.Fatalf("match %d bounds differ", i)
		}
	}
}

// TestInvalidK: k < 1 yields no matches.
func TestInvalidK(t *testing.T) {
	rng := rand.New(rand.NewSource(306))
	db := smallDB(rng, 5, 4)
	q := randObj(rng, 500, 4, 5, 5, 1)
	eng := newSnapshot(t, db, core.Options{MaxIterations: 2})
	if got := must(eng.KNN(bg, q, 0, 0.5)); got != nil {
		t.Error("KNN with k=0 returned matches")
	}
	if got := must(eng.RKNN(bg, q, 0, 0.5)); got != nil {
		t.Error("RKNN with k=0 returned matches")
	}
}

// TestNewStoreRefusesBadDatabase: a store over a mixed-dimension
// database would panic in the first query's filter, and one over
// duplicate IDs would answer with two contradictory matches for one
// object; NewStore refuses both, and a nil object.
func TestNewStoreRefusesBadDatabase(t *testing.T) {
	flat := func(id int, p geom.Point) *uncertain.Object {
		o, err := uncertain.NewObject(id, []geom.Point{p})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	for _, tc := range []struct {
		name, want string
		db         uncertain.Database
	}{
		{"mixed dimensions", "dimensions", uncertain.Database{flat(1, geom.Point{0.1, 0.1}), flat(2, geom.Point{0.2, 0.2, 0.2})}},
		{"duplicate IDs", "duplicate object ID 1", uncertain.Database{flat(1, geom.Point{0.1, 0.1}), flat(1, geom.Point{0.9, 0.9})}},
		{"nil object", "nil object", uncertain.Database{flat(1, geom.Point{0.1, 0.1}), nil}},
	} {
		s, err := NewStore(tc.db, core.Options{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: NewStore = (%v, %v), want an error containing %q", tc.name, s, err, tc.want)
		}
	}
}
