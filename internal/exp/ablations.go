package exp

import (
	"fmt"

	"probprune/internal/core"
	"probprune/internal/domination"
	"probprune/internal/geom"
	"probprune/internal/gf"
	"probprune/internal/rtree"
	"probprune/internal/uncertain"
	"probprune/internal/workload"
)

// AblationUGF compares the paper's uncertain generating function
// against the two-regular-GF alternative ([3]'s discussion) inside the
// actual IDCA iterate: at a fixed decomposition level, the
// per-candidate probability intervals of every (B', R') partition pair
// are expanded with a UGF, its point bounds are read once by Lemma 4
// and once by differencing its tail bounds (twoGFBound), and the pair
// bounds are recombined as Section IV-E prescribes. Reported is the
// accumulated uncertainty Σ_k width of the resulting domination-count
// PDF per refinement level. The UGF totals never exceed the two-GF
// totals. In exact arithmetic the two methods share their CDF bounds
// and their point upper bound; the whole gap is the point lower bound
// c_{k,0} = P(X = k, Y = 0), which the differenced tails only bound by
// P(X+Y ≤ k) − P(X < k).
func AblationUGF(cfg Config) (*Figure, error) {
	db, err := cfg.synthetic()
	if err != nil {
		return nil, err
	}
	queries := cfg.queries(db)
	levels := []int{1, 2, 3, 4}
	ugfW := make([][]float64, len(levels))
	cdfW := make([][]float64, len(levels))
	for _, q := range queries {
		res := core.NewSession(db, q.Target, q.Reference, core.Options{}).Result()
		c := len(res.Influence)
		if c == 0 {
			continue
		}
		bTree := uncertain.NewDecompTree(q.Target, 0)
		rTree := uncertain.NewDecompTree(q.Reference, 0)
		aTrees := make([]*uncertain.DecompTree, c)
		for i, a := range res.Influence {
			aTrees[i] = uncertain.NewDecompTree(a, 0)
		}
		for li, level := range levels {
			bParts := bTree.PartitionsAtLevel(level)
			rParts := rTree.PartitionsAtLevel(level)
			aParts := make([][]uncertain.Partition, c)
			for i, t := range aTrees {
				aParts[i] = t.PartitionsAtLevel(level)
			}
			ugfSum := make([]gf.Interval, c+1)
			cdfSum := make([]gf.Interval, c+1)
			ivs := make([]gf.Interval, c)
			f := gf.NewUGF()
			for _, bp := range bParts {
				for _, rp := range rParts {
					w := bp.Prob * rp.Prob
					for i := range aParts {
						ivs[i] = domination.Bounds(geom.L2, geom.Optimal, aParts[i], bp.MBR, rp.MBR)
					}
					f.Reset(0)
					f.MultiplyAll(ivs)
					for k := 0; k <= c; k++ {
						u, d := f.Bound(k), twoGFBound(f, k)
						ugfSum[k].LB += w * u.LB
						ugfSum[k].UB += w * u.UB
						cdfSum[k].LB += w * d.LB
						cdfSum[k].UB += w * d.UB
					}
				}
			}
			var tu, tc float64
			for k := 0; k <= c; k++ {
				tu += ugfSum[k].Width()
				tc += cdfSum[k].Width()
			}
			ugfW[li] = append(ugfW[li], tu)
			cdfW[li] = append(cdfW[li], tc)
		}
	}
	var su, sc Series
	su.Label, sc.Label = "UGF", "two regular GFs"
	for li, level := range levels {
		su.Points = append(su.Points, Point{X: float64(level), Y: mean(ugfW[li])})
		sc.Points = append(sc.Points, Point{X: float64(level), Y: mean(cdfW[li])})
	}
	return &Figure{
		ID:     "Ablation UGF",
		Title:  "Accumulated uncertainty per iteration: UGF vs two regular generating functions",
		XLabel: "iteration (decomposition level)",
		YLabel: "accumulated uncertainty",
		Series: []Series{su, sc},
		Notes:  "both methods run inside the IDCA pair loop on identical probability intervals",
	}, nil
}

// twoGFBound is the two-regular-GF bound on P(Σ = k): the difference
// P(Σ < k+1) − P(Σ < k) of two tail bounds, each bracketed by the
// Poisson binomials at the interval ends, which are exactly the UGF's
// CDF bounds.
func twoGFBound(f *gf.UGF, k int) gf.Interval {
	lo, hi := f.CDFBound(k), f.CDFBound(k+1)
	lb := max(hi.LB-lo.UB, 0)
	return gf.Interval{LB: lb, UB: max(min(hi.UB-lo.LB, 1), lb)}
}

// AblationTruncation measures the Section VI complexity reduction: IDCA
// runtime with the k-truncated generating functions versus the full
// expansion, as the predicate parameter k grows: per (B', R') pair the
// generating functions cost O(k·C) truncated and O(C²) in full, for C
// influence objects. Truncated runs must be cheaper for small k and
// converge toward the full cost as k approaches the influence set size.
func AblationTruncation(cfg Config) (*Figure, error) {
	// The O(k·C) vs O(C²) gap only shows on influence sets with
	// substantial C: use denser objects and a distant target so the
	// filter leaves a few dozen candidates.
	ext := cfg.MaxExtent
	if ext < 0.01 {
		ext = 0.01
	}
	db, err := workload.Synthetic(workload.SyntheticConfig{
		N:         cfg.SyntheticN,
		MaxExtent: ext,
		Samples:   cfg.Samples,
		Seed:      cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	queries := workload.Queries(db, cfg.Queries, 40, geom.L2, cfg.Seed+300)
	ks := []int{1, 2, 4, 8, 16}
	truncated := make([]Point, 0, len(ks))
	full := make([]Point, 0, len(ks))
	var fullTimes []float64
	for _, q := range queries {
		fullTimes = append(fullTimes, timeIt(func() {
			core.Run(db, q.Target, q.Reference, core.Options{MaxIterations: cfg.MaxIterations})
		}))
	}
	fullAvg := mean(fullTimes)
	for _, k := range ks {
		var times []float64
		for _, q := range queries {
			times = append(times, timeIt(func() {
				core.Run(db, q.Target, q.Reference, core.Options{
					MaxIterations: cfg.MaxIterations,
					KMax:          k,
				})
			}))
		}
		truncated = append(truncated, Point{X: float64(k), Y: mean(times)})
		full = append(full, Point{X: float64(k), Y: fullAvg})
	}
	return &Figure{
		ID:     "Ablation truncation",
		Title:  "IDCA runtime: k-truncated UGFs vs full expansion",
		XLabel: "k (truncation)",
		YLabel: "runtime (sec)",
		Series: []Series{
			{Label: "truncated (O(k C))", Points: truncated},
			{Label: "full (O(C^2))", Points: full},
		},
	}, nil
}

// AblationIndexFilter measures the R-tree bulk complete-domination
// filter against the linear scan, as the database grows. The index
// walk prunes whole subtrees at node granularity (the paper's future
// work, Section VIII).
func AblationIndexFilter(cfg Config) (*Figure, error) {
	sizes := []int{cfg.SyntheticN, 2 * cfg.SyntheticN, 4 * cfg.SyntheticN, 8 * cfg.SyntheticN}
	linear := make([]Point, 0, len(sizes))
	indexed := make([]Point, 0, len(sizes))
	for si, n := range sizes {
		db, err := workload.Synthetic(workload.SyntheticConfig{
			N:         n,
			MaxExtent: cfg.MaxExtent,
			Samples:   minInt(cfg.Samples, 20), // the filter only uses MBRs
			Seed:      cfg.Seed + int64(si),
		})
		if err != nil {
			return nil, err
		}
		index := rtree.New[*uncertain.Object]()
		for _, o := range db {
			index.Insert(o.MBR, o)
		}
		queries := cfg.queries(db)
		var tLin, tIdx []float64
		for _, q := range queries {
			var linRes, idxRes *core.Result
			tLin = append(tLin, timeIt(func() {
				linRes = core.NewSession(db, q.Target, q.Reference, core.Options{}).Result()
			}))
			tIdx = append(tIdx, timeIt(func() {
				idxRes = core.NewSessionIndexed(index, q.Target, q.Reference, core.Options{}).Result()
			}))
			if len(linRes.Influence) != len(idxRes.Influence) ||
				linRes.CompleteDominators != idxRes.CompleteDominators {
				return nil, fmt.Errorf("exp: index filter diverged from linear filter at n=%d", n)
			}
		}
		linear = append(linear, Point{X: float64(n), Y: mean(tLin)})
		indexed = append(indexed, Point{X: float64(n), Y: mean(tIdx)})
	}
	return &Figure{
		ID:     "Ablation index filter",
		Title:  "Complete-domination filter: R-tree bulk pruning vs linear scan",
		XLabel: "database size",
		YLabel: "filter time (sec)",
		Series: []Series{
			{Label: "linear", Points: linear},
			{Label: "R-tree", Points: indexed},
		},
	}, nil
}

// AblationAdaptive measures the adaptive refinement heuristic (the
// paper's future-work item implemented in core): per refinement level,
// runtime and residual uncertainty of the uniform-depth refinement vs
// the heuristic that freezes already-tight candidates. The heuristic
// should cost less per level at comparable uncertainty.
func AblationAdaptive(cfg Config) (*Figure, error) {
	ext := cfg.MaxExtent
	if ext < 0.01 {
		ext = 0.01
	}
	db, err := workload.Synthetic(workload.SyntheticConfig{
		N:         cfg.SyntheticN,
		MaxExtent: ext,
		Samples:   cfg.Samples,
		Seed:      cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	queries := workload.Queries(db, cfg.Queries, 30, geom.L2, cfg.Seed+400)
	iters := cfg.MaxIterations
	variants := []struct {
		label string
		opts  core.Options
	}{
		{"uniform", core.Options{MaxIterations: iters}},
		{"adaptive", core.Options{MaxIterations: iters, Adaptive: true, AdaptiveEps: 0.01}},
	}
	series := make([]Series, 0, 2*len(variants))
	for _, v := range variants {
		durs := make([][]float64, iters)
		uncs := make([][]float64, iters)
		for _, q := range queries {
			res := core.Run(db, q.Target, q.Reference, v.opts)
			for l, it := range res.Iterations {
				durs[l] = append(durs[l], it.Duration.Seconds())
				uncs[l] = append(uncs[l], it.Uncertainty)
			}
		}
		tPts := make([]Point, 0, iters)
		uPts := make([]Point, 0, iters)
		for l := 0; l < iters; l++ {
			if len(durs[l]) == 0 {
				continue
			}
			tPts = append(tPts, Point{X: float64(l + 1), Y: mean(durs[l])})
			uPts = append(uPts, Point{X: float64(l + 1), Y: mean(uncs[l])})
		}
		series = append(series,
			Series{Label: v.label + " sec", Points: tPts},
			Series{Label: v.label + " uncertainty", Points: uPts},
		)
	}
	return &Figure{
		ID:     "Ablation adaptive",
		Title:  "Adaptive refinement heuristic vs uniform depth",
		XLabel: "iteration",
		YLabel: "sec / accumulated uncertainty",
		Series: series,
	}, nil
}

// AblationDimensionality sweeps the space dimensionality (the paper
// evaluates d = 2 only; the framework is dimension-generic): it
// measures how many candidates survive the spatial filter and how much
// uncertainty one fixed refinement budget removes, as d grows. Spatial
// pruning weakens in higher dimensions — distances concentrate and
// uncertainty regions overlap more — so both curves are expected to
// rise with d.
func AblationDimensionality(cfg Config) (*Figure, error) {
	dims := []int{2, 3, 4, 5}
	cands := make([]Point, 0, len(dims))
	uncs := make([]Point, 0, len(dims))
	for _, d := range dims {
		// Hold per-dimension density comparable: scale the extent so an
		// object's uncertainty region keeps a similar diameter share.
		db, err := workload.Synthetic(workload.SyntheticConfig{
			N:         cfg.SyntheticN,
			Dim:       d,
			MaxExtent: cfg.MaxExtent * 4,
			Samples:   cfg.Samples,
			Seed:      cfg.Seed + int64(d),
		})
		if err != nil {
			return nil, err
		}
		queries := cfg.queries(db)
		var nc, nu []float64
		for _, q := range queries {
			res := core.Run(db, q.Target, q.Reference, core.Options{MaxIterations: 3})
			nc = append(nc, float64(len(res.Influence)))
			nu = append(nu, res.Uncertainty())
		}
		cands = append(cands, Point{X: float64(d), Y: mean(nc)})
		uncs = append(uncs, Point{X: float64(d), Y: mean(nu)})
	}
	return &Figure{
		ID:     "Ablation dimensionality",
		Title:  "Pruning power vs space dimensionality",
		XLabel: "dimensions",
		YLabel: "candidates / residual uncertainty (3 iterations)",
		Series: []Series{
			{Label: "influence objects", Points: cands},
			{Label: "residual uncertainty", Points: uncs},
		},
		Notes: "the paper evaluates d=2 only; extents are scaled x4 to keep overlap comparable",
	}, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
