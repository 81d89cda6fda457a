package query

import (
	"math"
	"sort"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/uncertain"
)

// This file is the query layer's full-scan reference: the threshold
// queries evaluated over the plain database with core.Run and
// core.NewSession — a linear filter scan per run and linear
// preselection, with no index, no shard cut and no store. The engine's
// one data plane is cross-checked against it.
type fullScan struct {
	db   uncertain.Database
	opts core.Options
}

func (f fullScan) norm() geom.Norm {
	if f.opts.Norm.Valid() {
		return f.opts.Norm
	}
	return geom.L2
}

// runOpts are the options of one candidate run: k-truncated, stopped
// once the threshold predicate is decided (never at tau < 0), and
// sequential inside the run, as the engine runs every candidate.
func (f fullScan) runOpts(k int, tau float64) core.Options {
	opts := f.opts
	opts.KMax = k
	opts.Parallelism = 1
	if tau >= 0 {
		opts.Stop = ThresholdStop(k, tau)
	}
	return opts
}

// knnThreshold is m_{k+1} by sorting the MaxDist of every certain
// object but q.
func (f fullScan) knnThreshold(q *uncertain.Object, k int) float64 {
	var ds []float64
	for _, o := range f.db {
		if o != q && o.ExistenceProb() >= 1 {
			ds = append(ds, o.MBR.MaxDistRect(f.norm(), q.MBR))
		}
	}
	if len(ds) <= k {
		return math.Inf(1)
	}
	sort.Float64s(ds)
	return ds[k]
}

// rknnPrunable counts the certain objects MaxDist-closer to b than q's
// minimum distance.
func (f fullScan) rknnPrunable(q, b *uncertain.Object, k int) bool {
	n := f.norm()
	lim := q.MBR.MinDistRect(n, b.MBR)
	if lim <= 0 {
		return false
	}
	count := 0
	for _, o := range f.db {
		if o != q && o != b && o.ExistenceProb() >= 1 && o.MBR.MaxDistRect(n, b.MBR) < lim {
			count++
		}
	}
	return count >= k
}

// knn is Snapshot.KNN over the full scan: one match per object but q, in
// the order of f.db — ascending ID, the engine's order, in every test
// that compares the two.
func (f fullScan) knn(q *uncertain.Object, k int, tau float64) []Match {
	thresh := math.Inf(1)
	if tau > 0 {
		thresh = f.knnThreshold(q, k)
	}
	var out []Match
	for _, b := range f.db {
		switch {
		case b == q:
		case knnPrunable(b, q, thresh, f.norm()):
			out = append(out, Match{Object: b, Decided: true})
		default:
			out = append(out, thresholdMatch(b, core.Run(f.db, b, q, f.runOpts(k, tau)), k, tau))
		}
	}
	return out
}

// rknn is Snapshot.RKNN over the full scan: q is the target of every run,
// the candidate its reference.
func (f fullScan) rknn(q *uncertain.Object, k int, tau float64) []Match {
	var out []Match
	for _, b := range f.db {
		switch {
		case b == q:
		case tau > 0 && f.rknnPrunable(q, b, k):
			out = append(out, Match{Object: b, Decided: true})
		default:
			out = append(out, thresholdMatch(b, core.Run(f.db, q, b, f.runOpts(k, tau)), k, tau))
		}
	}
	return out
}

// topKNN returns the m objects with the highest P(B ∈ kNN(q)): every
// candidate kNN preselection keeps is refined to the iteration budget,
// then ranked by the midpoint of its bounds, ties by ID.
func (f fullScan) topKNN(q *uncertain.Object, k, m int) []*uncertain.Object {
	thresh := f.knnThreshold(q, k)
	type cand struct {
		obj *uncertain.Object
		mid float64
	}
	budget := f.opts.MaxIterations
	if budget <= 0 {
		budget = core.DefaultMaxIterations
	}
	var cands []cand
	for _, b := range f.db {
		if b == q || knnPrunable(b, q, thresh, f.norm()) {
			continue
		}
		s := core.NewSession(f.db, b, q, f.runOpts(k, -1))
		for i := 0; i < budget && s.Step(); i++ {
		}
		iv := s.Result().CDFBound(k)
		cands = append(cands, cand{b, iv.LB + iv.UB})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].mid != cands[j].mid {
			return cands[i].mid > cands[j].mid
		}
		return cands[i].obj.ID < cands[j].obj.ID
	})
	var out []*uncertain.Object
	for i := 0; i < m && i < len(cands); i++ {
		out = append(out, cands[i].obj)
	}
	return out
}
