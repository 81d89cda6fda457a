package core

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"probprune/internal/geom"
	"probprune/internal/mc"
	"probprune/internal/rtree"
	"probprune/internal/uncertain"
	"probprune/internal/workload"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

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

// smallWorld builds a compact random database plus target and reference
// for ground-truth comparisons.
func smallWorld(rng *rand.Rand, nObjects, samples int) (uncertain.Database, *uncertain.Object, *uncertain.Object) {
	db := make(uncertain.Database, 0, nObjects)
	for i := 0; i < nObjects; i++ {
		db = append(db, randObj(rng, i, samples, rng.Float64()*10, rng.Float64()*10, 1.5))
	}
	target := db[0]
	reference := randObj(rng, 1000, samples, rng.Float64()*10, rng.Float64()*10, 1.5)
	return db, target, reference
}

// exactPDF computes the ground-truth domination count PDF for the full
// database via the exact sampling computation.
func exactPDF(db uncertain.Database, target, reference *uncertain.Object) []float64 {
	var cands []*uncertain.Object
	for _, o := range db {
		if o != target && o != reference {
			cands = append(cands, o)
		}
	}
	return mc.DomCountPDF(geom.L2, cands, target, reference, 0)
}

// TestBoundsContainExactAtEveryIteration is the central soundness test:
// at every refinement iteration, the IDCA bounds must bracket the exact
// possible-world probabilities.
func TestBoundsContainExactAtEveryIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	for trial := 0; trial < 10; trial++ {
		db, target, reference := smallWorld(rng, 12, 16)
		exact := exactPDF(db, target, reference)
		for iters := 1; iters <= 6; iters++ {
			res := Run(db, target, reference, Options{MaxIterations: iters})
			for k := range exact {
				if !res.Bound(k).Contains(exact[k], 1e-9) {
					t.Fatalf("trial %d iters %d: exact P(=%d)=%g outside [%g, %g]",
						trial, iters, k, exact[k], res.Bound(k).LB, res.Bound(k).UB)
				}
			}
			// CDF bounds must bracket the exact tails too.
			acc := 0.0
			for k := 0; k <= len(exact); k++ {
				if !res.CDFBound(k).Contains(acc, 1e-9) {
					t.Fatalf("trial %d iters %d: exact P(<%d)=%g outside [%g, %g]",
						trial, iters, k, acc, res.CDFBound(k).LB, res.CDFBound(k).UB)
				}
				if k < len(exact) {
					acc += exact[k]
				}
			}
		}
	}
}

// TestUncertaintyDecreasesMonotonically checks the filter-refinement
// contract: more iterations never loosen the bounds.
func TestUncertaintyDecreasesMonotonically(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for trial := 0; trial < 5; trial++ {
		db, target, reference := smallWorld(rng, 15, 32)
		res := Run(db, target, reference, Options{MaxIterations: 7})
		prev := math.Inf(1)
		for _, it := range res.Iterations {
			if it.Uncertainty > prev+1e-9 {
				t.Fatalf("trial %d: uncertainty rose from %g to %g at level %d",
					trial, prev, it.Uncertainty, it.Level)
			}
			prev = it.Uncertainty
		}
	}
}

// TestConvergesToExact: with full decomposition depth on a discrete
// database, the bounds collapse onto the exact PDF.
func TestConvergesToExact(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	db, target, reference := smallWorld(rng, 8, 8)
	exact := exactPDF(db, target, reference)
	res := Run(db, target, reference, Options{MaxIterations: 10})
	if u := res.Uncertainty(); u > 1e-9 {
		t.Fatalf("uncertainty did not converge: %g", u)
	}
	for k := range exact {
		iv := res.Bound(k)
		if !almostEqual(iv.LB, exact[k], 1e-9) {
			t.Fatalf("converged bound P(=%d)=[%g,%g] but exact is %g", k, iv.LB, iv.UB, exact[k])
		}
	}
}

// TestCompleteDominationShift verifies the ShiftRight of Algorithm 1:
// certain objects that are strictly closer in every world move the
// whole count PDF.
func TestCompleteDominationShift(t *testing.T) {
	// Reference at origin; three certain dominators at distance 1;
	// target certain at distance 5; two far objects pruned.
	reference := uncertain.PointObject(100, geom.Point{0, 0})
	target := uncertain.PointObject(0, geom.Point{5, 0})
	db := uncertain.Database{
		target,
		uncertain.PointObject(1, geom.Point{1, 0}),
		uncertain.PointObject(2, geom.Point{0, 1}),
		uncertain.PointObject(3, geom.Point{-1, 0}),
		uncertain.PointObject(4, geom.Point{50, 0}),
		uncertain.PointObject(5, geom.Point{0, 60}),
	}
	res := Run(db, target, reference, Options{})
	if res.CompleteDominators != 3 {
		t.Fatalf("CompleteDominators = %d, want 3", res.CompleteDominators)
	}
	if res.Pruned != 2 {
		t.Fatalf("Pruned = %d, want 2", res.Pruned)
	}
	if len(res.Influence) != 0 {
		t.Fatalf("Influence = %d, want 0", len(res.Influence))
	}
	// P(count = 3) must be exactly 1.
	if iv := res.Bound(3); !almostEqual(iv.LB, 1, 1e-12) || !almostEqual(iv.UB, 1, 1e-12) {
		t.Errorf("Bound(3) = %+v, want [1,1]", iv)
	}
	if iv := res.Bound(2); iv.UB != 0 {
		t.Errorf("Bound(2) = %+v, want [0,0]", iv)
	}
	if iv := res.CDFBound(3); iv.UB != 0 {
		t.Errorf("CDFBound(3) = %+v, want [0,0]", iv)
	}
	if iv := res.CDFBound(4); !almostEqual(iv.LB, 1, 1e-12) {
		t.Errorf("CDFBound(4) = %+v, want [1,1]", iv)
	}
}

// TestRunIndexedMatchesLinear: the R-tree accelerated filter must
// produce identical classifications and bounds.
func TestRunIndexedMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	for trial := 0; trial < 5; trial++ {
		db, target, reference := smallWorld(rng, 40, 16)
		index := rtree.New[*uncertain.Object]()
		for _, o := range db {
			index.Insert(o.MBR, o)
		}
		lin := Run(db, target, reference, Options{MaxIterations: 3})
		idx := RunIndexed(index, target, reference, Options{MaxIterations: 3})
		if lin.CompleteDominators != idx.CompleteDominators {
			t.Fatalf("dominators: linear %d vs indexed %d", lin.CompleteDominators, idx.CompleteDominators)
		}
		if lin.Pruned != idx.Pruned {
			t.Fatalf("pruned: linear %d vs indexed %d", lin.Pruned, idx.Pruned)
		}
		if len(lin.Influence) != len(idx.Influence) {
			t.Fatalf("influence: linear %d vs indexed %d", len(lin.Influence), len(idx.Influence))
		}
		for k := 0; k <= lin.MaxCount(); k++ {
			a, b := lin.Bound(k), idx.Bound(k)
			if !almostEqual(a.LB, b.LB, 1e-9) || !almostEqual(a.UB, b.UB, 1e-9) {
				t.Fatalf("bound mismatch at %d: %+v vs %+v", k, a, b)
			}
		}
	}
}

// TestTruncatedMatchesFullPrefix: the KMax optimization must return
// exactly the same bounds for counts below KMax.
func TestTruncatedMatchesFullPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	db, target, reference := smallWorld(rng, 15, 16)
	full := Run(db, target, reference, Options{MaxIterations: 4})
	for _, kMax := range []int{1, 2, 4} {
		tr := Run(db, target, reference, Options{MaxIterations: 4, KMax: kMax})
		limit := tr.CompleteDominators + kMax
		for k := 0; k < limit && k <= full.MaxCount(); k++ {
			a, b := full.Bound(k), tr.Bound(k)
			if !almostEqual(a.LB, b.LB, 1e-9) || !almostEqual(a.UB, b.UB, 1e-9) {
				t.Fatalf("kMax=%d count=%d: full %+v vs truncated %+v", kMax, k, a, b)
			}
			ca, cb := full.CDFBound(k), tr.CDFBound(k)
			if !almostEqual(ca.LB, cb.LB, 1e-9) || !almostEqual(ca.UB, cb.UB, 1e-9) {
				t.Fatalf("kMax=%d CDF count=%d: full %+v vs truncated %+v", kMax, k, ca, cb)
			}
		}
	}
}

// TestStopCallbackEndsRefinement: a Stop that fires immediately must
// prevent any iteration and set Decided.
func TestStopCallbackEndsRefinement(t *testing.T) {
	rng := rand.New(rand.NewSource(205))
	db, target, reference := smallWorld(rng, 15, 16)
	res := Run(db, target, reference, Options{
		MaxIterations: 8,
		Stop:          func(*Result) bool { return true },
	})
	if !res.Decided {
		t.Error("Decided not set")
	}
	if len(res.Iterations) != 0 {
		t.Errorf("expected no iterations, got %d", len(res.Iterations))
	}
	// A Stop that fires when uncertainty halves must cut the run short.
	var initial float64
	res2 := Run(db, target, reference, Options{
		MaxIterations: 8,
		Stop: func(r *Result) bool {
			if initial == 0 {
				initial = r.Uncertainty()
				return false
			}
			return r.Uncertainty() < initial/2
		},
	})
	if !res2.Decided {
		t.Skip("bounds never halved within 8 iterations (unlucky instance)")
	}
	if len(res2.Iterations) == 8 {
		t.Log("stop fired exactly at the last iteration")
	}
}

// TestParallelismDeterminism: a parallel run returns identical bounds
// to a serial one.
func TestParallelismDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(206))
	db, target, reference := smallWorld(rng, 20, 32)
	serial := Run(db, target, reference, Options{MaxIterations: 4})
	parallel := Run(db, target, reference, Options{MaxIterations: 4, Parallelism: 4})
	if len(serial.Bounds) != len(parallel.Bounds) {
		t.Fatalf("bounds length %d vs %d", len(serial.Bounds), len(parallel.Bounds))
	}
	for k := range serial.Bounds {
		a, b := serial.Bounds[k], parallel.Bounds[k]
		if !almostEqual(a.LB, b.LB, 1e-9) || !almostEqual(a.UB, b.UB, 1e-9) {
			t.Fatalf("k=%d: serial %+v vs parallel %+v", k, a, b)
		}
	}
}

// TestFilterOnlyClassification: the filter outcome must agree with a brute-force
// per-object classification.
func TestFilterOnlyClassification(t *testing.T) {
	rng := rand.New(rand.NewSource(207))
	db, target, reference := smallWorld(rng, 60, 8)
	res := NewSession(db, target, reference, Options{}).Result()
	if res.CompleteDominators+res.Pruned+len(res.Influence) != len(db)-1 {
		t.Fatalf("classification does not partition the database: %d + %d + %d != %d",
			res.CompleteDominators, res.Pruned, len(res.Influence), len(db)-1)
	}
	// The optimal criterion must classify at least as many objects as
	// min/max (Figure 6(a)'s claim).
	mm := NewSession(db, target, reference, Options{Criterion: geom.MinMax}).Result()
	if len(res.Influence) > len(mm.Influence) {
		t.Errorf("optimal left %d influence objects, min/max %d — optimal must prune at least as much",
			len(res.Influence), len(mm.Influence))
	}
}

// TestNoInfluenceObjectsShortCircuits: with an exact filter outcome the
// refinement loop must not run.
func TestNoInfluenceObjectsShortCircuits(t *testing.T) {
	reference := uncertain.PointObject(100, geom.Point{0, 0})
	target := uncertain.PointObject(0, geom.Point{5, 0})
	db := uncertain.Database{target, uncertain.PointObject(1, geom.Point{1, 0})}
	res := Run(db, target, reference, Options{MaxIterations: 5})
	if len(res.Iterations) != 0 {
		t.Errorf("refinement ran %d iterations with no influence objects", len(res.Iterations))
	}
	if res.Uncertainty() > 1e-12 {
		t.Errorf("uncertainty = %g", res.Uncertainty())
	}
}

// TestMinMaxCriterionStillSound: IDCA under the weaker criterion stays
// correct (only slower to converge).
func TestMinMaxCriterionStillSound(t *testing.T) {
	rng := rand.New(rand.NewSource(208))
	db, target, reference := smallWorld(rng, 10, 16)
	exact := exactPDF(db, target, reference)
	res := Run(db, target, reference, Options{MaxIterations: 5, Criterion: geom.MinMax})
	for k := range exact {
		if !res.Bound(k).Contains(exact[k], 1e-9) {
			t.Fatalf("min/max run unsound at count %d", k)
		}
	}
}

// TestBoundAccessorsOutOfRange exercises the absolute-count accessors.
func TestBoundAccessorsOutOfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(209))
	db, target, reference := smallWorld(rng, 10, 8)
	res := Run(db, target, reference, Options{MaxIterations: 2})
	if iv := res.Bound(-1); iv.LB != 0 || iv.UB != 0 {
		t.Error("negative count must have zero probability")
	}
	if iv := res.Bound(res.MaxCount() + 1); iv.LB != 0 || iv.UB != 0 {
		t.Error("count beyond MaxCount must have zero probability")
	}
	if iv := res.CDFBound(0); iv.LB != 0 || iv.UB != 0 {
		t.Error("P(count < 0) must be zero")
	}
	if iv := res.CDFBound(res.MaxCount() + 1); iv.LB != 1 || iv.UB != 1 {
		t.Error("P(count < max+1) must be one")
	}
}

// BenchmarkIDCAIterations is the iteration cost curve: the per-query
// cost at 3, 4, 5 and 6 refinement levels of the IDCA runs behind a
// threshold kNN query on an instance shaped like the serving ledger's
// knn-refine workload — 64-sample objects at its density, a 64-sample
// query object, one run per candidate the kNN distance preselection
// cannot discard, KMax 10, the kNN stop criterion at τ = 0.5, a warm
// decomposition cache and one reused Scratch.
func BenchmarkIDCAIterations(b *testing.B) {
	const k, tau = 10, 0.5
	db, err := workload.Synthetic(workload.SyntheticConfig{N: 2500, Samples: 64, MaxExtent: 0.008, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	index := bulkTree(db)
	// A query is its object plus the candidates whose MinDist does not
	// exceed the (k+1)-th smallest MaxDist.
	type knnQuery struct {
		q     *uncertain.Object
		cands []*uncertain.Object
	}
	var queries []knnQuery
	for _, wq := range workload.Queries(db, 16, k, geom.L2, 1) {
		q := wq.Reference
		var maxDists []float64
		for _, o := range db {
			if o != q {
				maxDists = append(maxDists, o.MBR.MaxDistRect(geom.L2, q.MBR))
			}
		}
		sort.Float64s(maxDists)
		kq := knnQuery{q: q}
		for _, o := range db {
			if o != q && o.MBR.MinDistRect(geom.L2, q.MBR) <= maxDists[k] {
				kq.cands = append(kq.cands, o)
			}
		}
		queries = append(queries, kq)
	}
	for _, iterations := range []int{3, 4, 5, 6} {
		b.Run(strconv.Itoa(iterations), func(b *testing.B) {
			opts := Options{
				MaxIterations: iterations,
				KMax:          k,
				Stop: func(r *Result) bool {
					iv := r.CDFBound(k)
					return iv.LB >= tau || iv.UB < tau
				},
				SharedDecomps: NewDecompCache(0),
				Scratch:       NewScratch(),
			}
			run := func() {
				for _, kq := range queries {
					for _, c := range kq.cands {
						RunIndexed(index, c, kq.q, opts)
					}
				}
			}
			run() // warm the cache and the arena
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(queries))/1e6, "ms/query")
		})
	}
}
