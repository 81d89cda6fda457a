package exp

import (
	"fmt"
	"math/rand"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/mc"
	"probprune/internal/query"
	"probprune/internal/uncertain"
	"probprune/internal/workload"
)

// influenceSet runs the complete-domination filter and returns the
// influence objects for a query (the set both IDCA and the MC
// comparison partner operate on).
func influenceSet(db uncertain.Database, q workload.Query) []*uncertain.Object {
	res := core.NewSession(db, q.Target, q.Reference, core.Options{}).Result()
	return res.Influence
}

// Fig5 reproduces Figure 5: runtime per query of the Monte-Carlo
// comparison partner as the per-object sample size grows. The paper's
// curve rises superlinearly (the per-(b, r)-pair generating function
// makes the cost quadratic in S); the reproduction must show the same
// shape.
func Fig5(cfg Config) (*Figure, error) {
	db, err := cfg.synthetic()
	if err != nil {
		return nil, err
	}
	queries := cfg.queries(db)
	fractions := []float64{0.1, 0.25, 0.5, 0.75, 1.0, 1.5}
	rng := rand.New(rand.NewSource(cfg.Seed + 500))
	var pts []Point
	for _, f := range fractions {
		s := int(f * float64(cfg.Samples))
		if s < 2 {
			s = 2
		}
		var times []float64
		for _, q := range queries {
			influence := influenceSet(db, q)
			// The comparison partner draws S samples per object by
			// Monte-Carlo sampling, then computes the exact count PDF on
			// the sampled model.
			cands := make([]*uncertain.Object, len(influence))
			for i, o := range influence {
				cands[i] = o.Resample(s, rng)
			}
			b := q.Target.Resample(s, rng)
			r := q.Reference.Resample(s, rng)
			times = append(times, timeIt(func() {
				mc.DomCountPDF(geom.L2, cands, b, r, 0)
			}))
		}
		pts = append(pts, Point{X: float64(s), Y: mean(times)})
	}
	return &Figure{
		ID:     "Fig 5",
		Title:  "Runtime of MC for increasing sample size",
		XLabel: "samples",
		YLabel: "runtime/query (sec)",
		Series: []Series{{Label: "MC", Points: pts}},
		Notes: fmt.Sprintf("sample sizes scaled to the configured model granularity (S=%d); the paper sweeps 0-1500 at S=1000",
			cfg.Samples),
	}, nil
}

// Fig6a reproduces Figure 6(a): number of candidates remaining after
// the spatial filter step, optimal criterion vs min/max criterion, as
// the maximum object extent grows. The optimal criterion must prune
// roughly 20% more candidates.
func Fig6a(cfg Config) (*Figure, error) {
	extents := []float64{0.001, 0.002, 0.003, 0.004, 0.005, 0.006, 0.007, 0.008, 0.009, 0.01}
	optimal := make([]Point, 0, len(extents))
	minmax := make([]Point, 0, len(extents))
	for i, ext := range extents {
		db, err := workload.Synthetic(workload.SyntheticConfig{
			N:         cfg.SyntheticN,
			MaxExtent: ext,
			Samples:   cfg.Samples,
			Seed:      cfg.Seed + int64(i),
		})
		if err != nil {
			return nil, err
		}
		queries := cfg.queries(db)
		var nOpt, nMM []float64
		for _, q := range queries {
			resOpt := core.NewSession(db, q.Target, q.Reference, core.Options{Criterion: geom.Optimal}).Result()
			resMM := core.NewSession(db, q.Target, q.Reference, core.Options{Criterion: geom.MinMax}).Result()
			nOpt = append(nOpt, float64(len(resOpt.Influence)))
			nMM = append(nMM, float64(len(resMM.Influence)))
		}
		optimal = append(optimal, Point{X: ext, Y: mean(nOpt)})
		minmax = append(minmax, Point{X: ext, Y: mean(nMM)})
	}
	return &Figure{
		ID:     "Fig 6(a)",
		Title:  "Candidates after spatial pruning (filter step)",
		XLabel: "maximum extension of objects",
		YLabel: "remaining objects after filter step",
		Series: []Series{
			{Label: "Optimal", Points: optimal},
			{Label: "MinMax", Points: minmax},
		},
	}, nil
}

// Fig6b reproduces Figure 6(b): accumulated uncertainty of the
// domination count bounds per refinement iteration, under the optimal
// and the min/max decision criterion. Iteration 0 is the filter step.
func Fig6b(cfg Config) (*Figure, error) {
	db, err := cfg.synthetic()
	if err != nil {
		return nil, err
	}
	queries := cfg.queries(db)
	criteria := []geom.Criterion{geom.Optimal, geom.MinMax}
	series := make([]Series, len(criteria))
	for ci, crit := range criteria {
		// perIter[l] collects the uncertainty after iteration l.
		perIter := make([][]float64, cfg.MaxIterations+1)
		for _, q := range queries {
			filterRes := core.NewSession(db, q.Target, q.Reference, core.Options{Criterion: crit}).Result()
			perIter[0] = append(perIter[0], filterRes.Uncertainty())
			res := core.Run(db, q.Target, q.Reference, core.Options{
				Criterion:     crit,
				MaxIterations: cfg.MaxIterations,
			})
			u := filterRes.Uncertainty()
			for l := 1; l <= cfg.MaxIterations; l++ {
				if l-1 < len(res.Iterations) {
					u = res.Iterations[l-1].Uncertainty
				}
				perIter[l] = append(perIter[l], u)
			}
		}
		pts := make([]Point, len(perIter))
		for l, us := range perIter {
			pts[l] = Point{X: float64(l), Y: mean(us)}
		}
		series[ci] = Series{Label: crit.String(), Points: pts}
	}
	return &Figure{
		ID:     "Fig 6(b)",
		Title:  "Accumulated uncertainty of result per iteration",
		XLabel: "iteration",
		YLabel: "accumulated uncertainty",
		Series: series,
	}, nil
}

// Fig7 reproduces Figure 7: average residual uncertainty of IDCA as a
// function of its runtime relative to the MC comparison partner, for
// several per-object sample sizes. dataset selects "synthetic" (Figure
// 7(a)) or "iceberg" (Figure 7(b)).
func Fig7(cfg Config, dataset string) (*Figure, error) {
	fractions := []float64{0.25, 0.5, 1.0}
	var series []Series
	for _, f := range fractions {
		s := int(f * float64(cfg.Samples))
		if s < 4 {
			s = 4
		}
		var db uncertain.Database
		var err error
		switch dataset {
		case "iceberg":
			db, err = workload.IcebergSim(workload.IcebergConfig{
				N:       cfg.IcebergN,
				Samples: s,
				Seed:    cfg.Seed,
			})
		default:
			db, err = workload.Synthetic(workload.SyntheticConfig{
				N:         cfg.SyntheticN,
				MaxExtent: cfg.MaxExtent,
				Samples:   s,
				Seed:      cfg.Seed,
			})
		}
		if err != nil {
			return nil, err
		}
		queries := cfg.queries(db)
		// Per iteration: x = cumulative IDCA time / MC time,
		// y = uncertainty normalized per influence object.
		sumX := make([]float64, cfg.MaxIterations+1)
		sumY := make([]float64, cfg.MaxIterations+1)
		n := 0
		for _, q := range queries {
			influence := influenceSet(db, q)
			if len(influence) == 0 {
				continue
			}
			n++
			tMC := timeIt(func() {
				mc.DomCountPDF(geom.L2, influence, q.Target, q.Reference, 0)
			})
			res := core.Run(db, q.Target, q.Reference, core.Options{MaxIterations: cfg.MaxIterations})
			norm := float64(len(res.Influence) + 1)
			sumY[0] += 1 // before refinement: every bound is [0, 1]
			cum := 0.0
			for l := 1; l <= cfg.MaxIterations; l++ {
				if l-1 < len(res.Iterations) {
					cum += res.Iterations[l-1].Duration.Seconds()
					sumY[l] += res.Iterations[l-1].Uncertainty / norm
				}
				sumX[l] += cum / tMC
			}
		}
		pts := make([]Point, cfg.MaxIterations+1)
		for l := range pts {
			den := float64(max(n, 1))
			pts[l] = Point{X: sumX[l] / den, Y: sumY[l] / den}
		}
		series = append(series, Series{Label: fmt.Sprintf("samples=%d", s), Points: pts})
	}
	id, title := "Fig 7(a)", "Uncertainty of IDCA w.r.t. relative runtime to MC (synthetic)"
	if dataset == "iceberg" {
		id, title = "Fig 7(b)", "Uncertainty of IDCA w.r.t. relative runtime to MC (iceberg simulation)"
	}
	return &Figure{
		ID:     id,
		Title:  title,
		XLabel: "fraction of runtime of MC",
		YLabel: "avg. uncertainty",
		Series: series,
		Notes:  "each point is one refinement iteration (averaged over queries); x is cumulative IDCA time relative to one full MC computation",
	}, nil
}

// Fig8 reproduces Figure 8: runtime of IDCA with a threshold-kNN
// predicate ("is B among the k nearest neighbors of Q with probability
// tau?") for growing k and three thresholds, against the MC baseline.
// The predicate lets IDCA terminate refinement early, keeping it orders
// of magnitude below MC.
func Fig8(cfg Config) (*Figure, error) {
	db, err := cfg.synthetic()
	if err != nil {
		return nil, err
	}
	queries := cfg.queries(db)
	ks := []int{1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25}
	taus := []float64{0.25, 0.5, 0.75}

	// The MC baseline computes the full count PDF once per query; its
	// cost does not depend on the predicate.
	var mcTimes []float64
	for _, q := range queries {
		influence := influenceSet(db, q)
		mcTimes = append(mcTimes, timeIt(func() {
			mc.DomCountPDF(geom.L2, influence, q.Target, q.Reference, 0)
		}))
	}
	mcAvg := mean(mcTimes)

	series := make([]Series, 0, len(taus)+1)
	for _, tau := range taus {
		pts := make([]Point, 0, len(ks))
		for _, k := range ks {
			var times []float64
			for _, q := range queries {
				times = append(times, timeIt(func() {
					core.Run(db, q.Target, q.Reference, core.Options{
						MaxIterations: cfg.MaxIterations + 2,
						KMax:          k,
						Stop:          query.ThresholdStop(k, tau),
					})
				}))
			}
			pts = append(pts, Point{X: float64(k), Y: mean(times)})
		}
		series = append(series, Series{Label: fmt.Sprintf("tau=%.2f", tau), Points: pts})
	}
	mcPts := make([]Point, len(ks))
	for i, k := range ks {
		mcPts[i] = Point{X: float64(k), Y: mcAvg}
	}
	series = append(series, Series{Label: "MC", Points: mcPts})
	return &Figure{
		ID:     "Fig 8",
		Title:  "Runtimes of IDCA and MC for different query predicates k and tau",
		XLabel: "k",
		YLabel: "runtime (sec)",
		Series: series,
	}, nil
}

// Fig9a reproduces Figure 9(a): per-iteration runtime as a function of
// the number of influence objects, varied through the distance between
// the reference and the target (larger target rank → more influence
// objects).
func Fig9a(cfg Config) (*Figure, error) {
	// The paper runs this experiment at extent 0.002 on 20k-100k
	// objects; at the scaled-down cardinality the same *density* needs
	// the configured extent, otherwise influence sets degenerate to
	// one or two objects and the x axis collapses.
	db, err := workload.Synthetic(workload.SyntheticConfig{
		N:         cfg.SyntheticN,
		MaxExtent: cfg.MaxExtent,
		Samples:   cfg.Samples,
		Seed:      cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	ranks := []int{5, 10, 20, 40, 80}
	iters := cfg.MaxIterations
	// series[l] collects per-iteration-l points across ranks.
	pts := make([][]Point, iters)
	for ri, rank := range ranks {
		queries := workload.Queries(db, 2*cfg.Queries, rank, geom.L2, cfg.Seed+200+int64(ri))
		durs := make([][]float64, iters)
		var influence []float64
		for _, q := range queries {
			res := core.Run(db, q.Target, q.Reference, core.Options{MaxIterations: iters})
			influence = append(influence, float64(len(res.Influence)))
			for l, it := range res.Iterations {
				durs[l] = append(durs[l], it.Duration.Seconds())
			}
		}
		x := mean(influence)
		for l := 0; l < iters; l++ {
			pts[l] = append(pts[l], Point{X: x, Y: mean(durs[l])})
		}
	}
	series := make([]Series, iters)
	for l := 0; l < iters; l++ {
		series[l] = Series{Label: fmt.Sprintf("iteration %d", l+1), Points: pts[l]}
	}
	return &Figure{
		ID:     "Fig 9(a)",
		Title:  "Runtime w.r.t. number of influence objects",
		XLabel: "# of influence objects",
		YLabel: "runtime (sec)",
		Series: series,
		Notes:  "influence set size driven by the target's MinDist rank (5-80)",
	}, nil
}

// Fig9b reproduces Figure 9(b): per-iteration runtime as the database
// grows. IDCA must scale gracefully with the database size because the
// filter step reduces the refinement work to the influence set.
func Fig9b(cfg Config) (*Figure, error) {
	sizes := []int{cfg.SyntheticN, 2 * cfg.SyntheticN, 3 * cfg.SyntheticN, 4 * cfg.SyntheticN, 5 * cfg.SyntheticN}
	iters := cfg.MaxIterations
	pts := make([][]Point, iters)
	for si, n := range sizes {
		db, err := workload.Synthetic(workload.SyntheticConfig{
			N:         n,
			MaxExtent: 0.002,
			Samples:   cfg.Samples,
			Seed:      cfg.Seed + int64(si),
		})
		if err != nil {
			return nil, err
		}
		queries := cfg.queries(db)
		durs := make([][]float64, iters)
		for _, q := range queries {
			res := core.Run(db, q.Target, q.Reference, core.Options{MaxIterations: iters})
			for l, it := range res.Iterations {
				durs[l] = append(durs[l], it.Duration.Seconds())
			}
		}
		for l := 0; l < iters; l++ {
			pts[l] = append(pts[l], Point{X: float64(n), Y: mean(durs[l])})
		}
	}
	series := make([]Series, iters)
	for l := 0; l < iters; l++ {
		series[l] = Series{Label: fmt.Sprintf("iteration %d", l+1), Points: pts[l]}
	}
	return &Figure{
		ID:     "Fig 9(b)",
		Title:  "Runtime for different sizes of the database",
		XLabel: "database size",
		YLabel: "runtime (sec)",
		Series: series,
		Notes:  fmt.Sprintf("sizes scaled to %d-%d; the paper sweeps 20k-100k", sizes[0], sizes[len(sizes)-1]),
	}, nil
}
