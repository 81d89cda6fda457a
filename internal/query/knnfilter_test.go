package query

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"probprune/internal/core"
	"probprune/internal/geom"
)

// TestKNNPruneThresholdMatchesSort: the heap over the R-tree stream
// must return exactly the (k+1)-th smallest MaxDist.
func TestKNNPruneThresholdMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(600))
	db := smallDB(rng, 80, 8)
	q := randObj(rng, 500, 8, 5, 5, 2)
	eng := newEngine(t, db, core.Options{})
	var maxDists []float64
	for _, o := range db {
		maxDists = append(maxDists, o.MBR.MaxDistRect(geom.L2, q.MBR))
	}
	sort.Float64s(maxDists)
	for _, k := range []int{1, 3, 10, 40} {
		got := eng.knnThreshold(q, k, geom.L2)
		want := maxDists[k] // 0-indexed (k+1)-th smallest
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("k=%d: threshold %g, want %g", k, got, want)
		}
	}
}

// TestKNNPruneThresholdSmallDatabase: with fewer than k+1 objects no
// pruning is possible.
func TestKNNPruneThresholdSmallDatabase(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	db := smallDB(rng, 3, 4)
	q := randObj(rng, 500, 4, 5, 5, 1)
	if got := newEngine(t, db, core.Options{}).knnThreshold(q, 5, geom.L2); !math.IsInf(got, 1) {
		t.Fatalf("threshold = %g, want +Inf", got)
	}
}

// TestKNNPruneThresholdExcludesQueryObject: when q is itself indexed,
// its own MaxDist (zero-ish) must not deflate the threshold.
func TestKNNPruneThresholdExcludesQueryObject(t *testing.T) {
	rng := rand.New(rand.NewSource(602))
	db := smallDB(rng, 30, 8)
	q := db[0]
	var maxDists []float64
	for _, o := range db {
		if o == q {
			continue
		}
		maxDists = append(maxDists, o.MBR.MaxDistRect(geom.L2, q.MBR))
	}
	sort.Float64s(maxDists)
	const k = 4
	if got, want := newEngine(t, db, core.Options{}).knnThreshold(q, k, geom.L2), maxDists[k]; math.Abs(got-want) > 1e-12 {
		t.Fatalf("threshold %g, want %g", got, want)
	}
}

// TestPreselectionNeverPrunesAPossibleResult: every object pruned by
// the preselection must have exact probability zero of being a kNN.
func TestPreselectionNeverPrunesAPossibleResult(t *testing.T) {
	rng := rand.New(rand.NewSource(603))
	db := smallDB(rng, 40, 8)
	q := randObj(rng, 500, 8, 5, 5, 2)
	eng := newEngine(t, db, core.Options{MaxIterations: 6})
	const k, tau = 3, 0.25
	thresh := eng.KNNThreshold(q, k)
	pruned := 0
	for _, b := range db {
		if !knnPrunable(b, q, thresh, geom.L2) {
			continue
		}
		pruned++
		if exact := exactTail(db, b, q, k); exact != 0 {
			t.Fatalf("object %d pruned but P(kNN) = %g", b.ID, exact)
		}
	}
	if pruned == 0 {
		t.Skip("instance produced no prunable objects")
	}
}

// TestKNNWithPreselectionMatchesExact repeats the verdict cross-check
// with the indexed (preselecting) engine on a larger database where
// preselection definitely engages.
func TestKNNWithPreselectionMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(604))
	db := smallDB(rng, 60, 8)
	q := randObj(rng, 500, 8, 5, 5, 2)
	eng := newEngine(t, db, core.Options{MaxIterations: 8})
	const k, tau = 3, 0.5
	for _, m := range eng.KNN(q, k, tau) {
		exact := exactTail(db, m.Object, q, k)
		if !m.Prob.Contains(exact, 1e-9) {
			t.Fatalf("object %d: exact %g outside [%g, %g]", m.Object.ID, exact, m.Prob.LB, m.Prob.UB)
		}
		if m.Decided && math.Abs(exact-tau) > 1e-9 && m.IsResult != (exact >= tau) {
			t.Fatalf("object %d: verdict %v, exact %g", m.Object.ID, m.IsResult, exact)
		}
	}
}
