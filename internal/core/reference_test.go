package core

import (
	"fmt"
	"math/rand"
	"testing"

	"probprune/internal/domination"
	"probprune/internal/geom"
	"probprune/internal/gf"
	"probprune/internal/uncertain"
)

// This file keeps the full-grid refinement — what Session.Step was
// before it became incremental — as the in-test reference, and pins the
// incremental session to it: same bounds at every level up to summation
// order, bounds that bracket the exact PDF and only tighten, and never
// more domination tests than the grid.

// gridRef refines by rebuilding every level from nothing: every (B', R')
// pair of the 2^L × 2^L grid, every partition of every influence object
// under each pair, every factor through the generating function.
type gridRef struct {
	opts      Options
	influence []*uncertain.Object
	bTree     *uncertain.DecompTree
	rTree     *uncertain.DecompTree
	aTrees    []*uncertain.DecompTree
	aLevels   []int
	candWidth []float64
	level     int
}

func newGridRef(target, reference *uncertain.Object, influence []*uncertain.Object, opts Options) *gridRef {
	g := &gridRef{
		opts:      opts,
		influence: influence,
		bTree:     uncertain.NewDecompTree(target, opts.MaxHeight),
		rTree:     uncertain.NewDecompTree(reference, opts.MaxHeight),
		aLevels:   make([]int, len(influence)),
		candWidth: make([]float64, len(influence)),
	}
	for i, a := range influence {
		g.aTrees = append(g.aTrees, uncertain.NewDecompTree(a, opts.MaxHeight))
		g.candWidth[i] = a.ExistenceProb()
	}
	return g
}

// step evaluates the next level on the full grid and returns its bounds
// and the number of (A', B', R') triples it put to the criterion.
func (g *gridRef) step() (bounds, cdf []gf.Interval, tests int) {
	g.level++
	opts := g.opts
	n := opts.norm()
	bParts := g.bTree.PartitionsAtLevel(g.level)
	rParts := g.rTree.PartitionsAtLevel(g.level)
	c := len(g.influence)
	aParts := make([][]uncertain.Partition, c)
	for i, t := range g.aTrees {
		if !opts.Adaptive || g.candWidth[i] > opts.adaptiveEps() {
			g.aLevels[i] = g.level
		}
		aParts[i] = t.PartitionsAtLevel(g.aLevels[i])
	}
	hi := boundsHi(c, opts.KMax)
	accB := make([]gf.Interval, hi+1)
	accC := make([]gf.Interval, hi+2)
	accW := make([]float64, c)
	ivs := make([]gf.Interval, c)
	for _, bp := range bParts {
		for _, rp := range rParts {
			for i := range aParts {
				ivs[i] = domination.BoundsWithExistence(n, opts.Criterion, aParts[i], g.influence[i].ExistenceProb(), bp.MBR, rp.MBR)
				tests += len(aParts[i])
			}
			f := gf.NewUGF()
			if opts.KMax > 0 {
				f = gf.NewTruncatedUGF(opts.KMax)
			}
			f.MultiplyAll(ivs)
			w := bp.Prob * rp.Prob
			for k := 0; k <= hi; k++ {
				b := f.Bound(k)
				accB[k].LB += w * b.LB
				accB[k].UB += w * b.UB
			}
			for k := 0; k <= hi+1; k++ {
				cd := f.CDFBound(k)
				accC[k].LB += w * cd.LB
				accC[k].UB += w * cd.UB
			}
			for i := range ivs {
				accW[i] += w * ivs[i].Width()
			}
		}
	}
	clampAll(accB)
	clampAll(accC)
	g.candWidth = accW
	return accB, accC, tests
}

// refLevel is one level of a reference run.
type refLevel struct {
	bounds, cdf []gf.Interval
	tests       int
}

// runGridRef drives the reference the way Session.run drives a session:
// up to maxIter levels, stopping early on convergence.
func runGridRef(target, reference *uncertain.Object, influence []*uncertain.Object, opts Options, maxIter int) []refLevel {
	g := newGridRef(target, reference, influence, opts)
	var out []refLevel
	for i := 0; i < maxIter; i++ {
		b, c, tests := g.step()
		out = append(out, refLevel{b, c, tests})
		u := 0.0
		for _, iv := range b {
			u += iv.Width()
		}
		if u <= convergenceEps {
			break
		}
	}
	return out
}

// propWorld is one seeded instance of the property tier. Objects mix
// 1-, 3-, 8- and 64-sample clouds, zero-extent clouds (every sample the
// same point), clouds with repeated samples, two objects with the very
// same samples, a copy of the target, weighted samples, existential
// uncertainty and an
// existentially uncertain object that dominates geometrically; on odd
// seeds the reference is itself a database object.
type propWorld struct {
	db                uncertain.Database
	target, reference *uncertain.Object
}

func cloud(rng *rand.Rand, n int, cx, cy, ext float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{cx + (rng.Float64()-0.5)*ext, cy + (rng.Float64()-0.5)*ext}
	}
	return pts
}

func mustObject(id int, pts []geom.Point, weights []float64) *uncertain.Object {
	o, err := uncertain.NewWeightedObject(id, pts, weights)
	if err != nil {
		panic(err)
	}
	return o
}

func newPropWorld(seed int64) propWorld {
	rng := rand.New(rand.NewSource(seed))
	sizes := []int{1, 3, 8, 64}
	// Operand sizes rotate with the seed, so the 64 × 64 pair grid (the
	// expensive reference) comes up once in a cycle of four.
	bSize, rSize := sizes[seed%4], sizes[(seed/4+seed)%4]
	center := func() (float64, float64) { return 1 + 3*rng.Float64(), 1 + 3*rng.Float64() }
	var db uncertain.Database
	add := func(pts []geom.Point, weights []float64) *uncertain.Object {
		o := mustObject(len(db), pts, weights)
		db = append(db, o)
		return o
	}
	cx, cy := center()
	targetPts := cloud(rng, bSize, cx, cy, 1.5)
	target := add(targetPts, nil)
	for _, n := range sizes {
		cx, cy = center()
		add(cloud(rng, n, cx, cy, 2), nil)
	}
	// Zero extent: eight samples, one location.
	cx, cy = center()
	same := make([]geom.Point, 8)
	for i := range same {
		same[i] = geom.Point{cx, cy}
	}
	add(same, nil)
	// Repeated samples: eight alternatives, three distinct locations.
	cx, cy = center()
	distinct := cloud(rng, 3, cx, cy, 2)
	rep := make([]geom.Point, 8)
	for i := range rep {
		rep[i] = distinct[i%3]
	}
	add(rep, nil)
	// Two objects with identical samples, and a copy of the target: its
	// samples tie with the target's, a triple no depth ever decides, so
	// refinement runs on past the leaves instead of converging.
	cx, cy = center()
	twin := cloud(rng, 8, cx, cy, 2)
	add(twin, nil)
	add(append([]geom.Point(nil), twin...), nil)
	add(append([]geom.Point(nil), targetPts...), nil)
	// Weighted samples, masses far from dyadic.
	cx, cy = center()
	weights := make([]float64, 8)
	for i := range weights {
		weights[i] = 0.05 + rng.Float64()
	}
	add(cloud(rng, 8, cx, cy, 2), weights)
	// Existential uncertainty, once on an ordinary cloud and once on a
	// point the filter alone would call a complete dominator.
	cx, cy = center()
	maybe := add(cloud(rng, 8, cx, cy, 2), nil)
	if err := maybe.SetExistence(0.2 + 0.6*rng.Float64()); err != nil {
		panic(err)
	}
	var reference *uncertain.Object
	cx, cy = center()
	if seed%2 == 1 {
		reference = add(cloud(rng, rSize, cx, cy, 1.5), nil)
	} else {
		reference = mustObject(1000, cloud(rng, rSize, cx, cy, 1.5), nil)
	}
	ghost := add([]geom.Point{reference.Centroid()}, nil)
	if err := ghost.SetExistence(0.5); err != nil {
		panic(err)
	}
	return propWorld{db: db, target: target, reference: reference}
}

func sameIntervals(t *testing.T, what string, got, want []gf.Interval) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d intervals, reference has %d", what, len(got), len(want))
	}
	for k := range want {
		if !almostEqual(got[k].LB, want[k].LB, 1e-12) || !almostEqual(got[k].UB, want[k].UB, 1e-12) {
			t.Fatalf("%s[%d]: incremental %+v, full grid %+v", what, k, got[k], want[k])
		}
	}
}

// propIterations is past the leaf depth of a 64-sample object (6), so
// the last levels run on unsplittable leaves standing in for their
// descendants.
const propIterations = 8

// TestIncrementalMatchesFullGrid is property (a) and (c): at every
// level the incremental bounds equal the full grid's to 1e-12 — stepped
// sequentially and on four goroutines, and through Run, RunIndexed and
// RunMerged, which must also stop after the same number of levels — and
// a step never tests more triples than the grid does, strictly fewer
// from level 2 on once level 1 decided anything.
func TestIncrementalMatchesFullGrid(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		w := newPropWorld(seed)
		index := bulkTree(w.db)
		for _, kMax := range []int{0, 1, 3, len(w.db) + 2} {
			for _, adaptive := range []bool{false, true} {
				name := fmt.Sprintf("seed=%d/kmax=%d/adaptive=%v", seed, kMax, adaptive)
				opts := Options{KMax: kMax, Adaptive: adaptive, AdaptiveEps: 0.05, MaxIterations: propIterations}
				seq := NewSession(w.db, w.target, w.reference, opts)
				if len(seq.res.Influence) < 4 {
					t.Fatalf("%s: only %d influence objects; the world is too sparse to test anything", name, len(seq.res.Influence))
				}
				ref := runGridRef(w.target, w.reference, seq.res.Influence, opts, propIterations)
				parOpts := opts
				parOpts.Parallelism = 4
				par := NewSession(w.db, w.target, w.reference, parOpts)

				decidedAtLevel1 := false
				for l, want := range ref {
					before := seq.tests
					seq.Step()
					par.Step()
					at := fmt.Sprintf("%s level %d", name, l+1)
					sameIntervals(t, at+" Bounds", seq.res.Bounds, want.bounds)
					sameIntervals(t, at+" CDF", seq.res.CDF, want.cdf)
					sameIntervals(t, at+" parallel Bounds", par.res.Bounds, want.bounds)
					sameIntervals(t, at+" parallel CDF", par.res.CDF, want.cdf)
					if par.tests != seq.tests {
						t.Fatalf("%s: parallel step counted %d tests, sequential %d", at, par.tests, seq.tests)
					}
					tests := seq.tests - before
					if l == 0 {
						left := len(seq.sc.levels[seq.sc.cur].und)
						decidedAtLevel1 = left < tests
					}
					if tests > want.tests || (l >= 1 && decidedAtLevel1 && tests >= want.tests) {
						t.Fatalf("%s: %d domination tests, full grid %d (level 1 decided something: %v)",
							at, tests, want.tests, decidedAtLevel1)
					}
				}
				if len(seq.res.Iterations) != len(ref) || seq.Done() != (len(ref) < propIterations) {
					t.Fatalf("%s: session ran %d levels (done=%v), reference %d", name, len(seq.res.Iterations), seq.Done(), len(ref))
				}

				last := ref[len(ref)-1]
				pf := MergePartials(
					PartialFilterLinear(w.db[:len(w.db)/2], w.target, w.reference, opts),
					PartialFilterIndexed(bulkTree(w.db[len(w.db)/2:]), w.target, w.reference, opts))
				for entry, res := range map[string]*Result{
					"Run":        Run(w.db, w.target, w.reference, opts),
					"RunIndexed": RunIndexed(index, w.target, w.reference, opts),
					"RunMerged":  RunMerged(w.target, w.reference, pf, opts),
				} {
					if len(res.Iterations) != len(ref) {
						t.Fatalf("%s %s: %d iterations, reference %d", name, entry, len(res.Iterations), len(ref))
					}
					sameIntervals(t, name+" "+entry+" Bounds", res.Bounds, last.bounds)
					sameIntervals(t, name+" "+entry+" CDF", res.CDF, last.cdf)
				}
			}
		}
	}
}

// TestBoundsBracketExactAndOnlyTighten is property (b): after the filter
// and after every step the point and CDF bounds contain the exact
// possible-world values, and no interval is wider than it was a step
// earlier.
func TestBoundsBracketExactAndOnlyTighten(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		w := newPropWorld(seed)
		exact := exactPDF(w.db, w.target, w.reference)
		for _, kMax := range []int{0, 1, 3, len(w.db) + 2} {
			for _, adaptive := range []bool{false, true} {
				name := fmt.Sprintf("seed=%d/kmax=%d/adaptive=%v", seed, kMax, adaptive)
				s := NewSession(w.db, w.target, w.reference, Options{KMax: kMax, Adaptive: adaptive, AdaptiveEps: 0.05})
				res := s.Result()
				for {
					acc := 0.0
					for k := 0; k <= len(exact); k++ {
						if !res.CDFBound(k).Contains(acc, 1e-9) {
							t.Fatalf("%s level %d: exact P(<%d)=%g outside %+v", name, s.Level(), k, acc, res.CDFBound(k))
						}
						if k == len(exact) {
							break
						}
						if !res.Bound(k).Contains(exact[k], 1e-9) {
							t.Fatalf("%s level %d: exact P(=%d)=%g outside %+v", name, s.Level(), k, exact[k], res.Bound(k))
						}
						acc += exact[k]
					}
					if s.Done() || s.Level() == propIterations {
						break
					}
					prevB, prevC := res.Bounds, res.CDF
					s.Step()
					for k := range prevB {
						if res.Bounds[k].LB < prevB[k].LB-1e-12 || res.Bounds[k].UB > prevB[k].UB+1e-12 {
							t.Fatalf("%s level %d: Bounds[%d] widened from %+v to %+v", name, s.Level(), k, prevB[k], res.Bounds[k])
						}
					}
					for k := range prevC {
						if res.CDF[k].LB < prevC[k].LB-1e-12 || res.CDF[k].UB > prevC[k].UB+1e-12 {
							t.Fatalf("%s level %d: CDF[%d] widened from %+v to %+v", name, s.Level(), k, prevC[k], res.CDF[k])
						}
					}
				}
			}
		}
	}
}
