package query

import (
	"context"
	"sort"
	"sync/atomic"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/gf"
	"probprune/internal/uncertain"
)

// TopKNN answers the top-m probable kNN query (the semantics of
// Beskales et al. [6], which the paper's related work motivates):
// return the m database objects with the highest probability
// P(DomCount(B, q) < k) of being among the k nearest neighbors of q.
// Only the objects Within(q, m_{k+1}) get a session: everything beyond
// the ball has P = 0, can only occupy the tail, and is never visited.
//
// Unlike the threshold query there is no τ to stop against, so the
// query refines candidates selectively until the m best are separable
// by their probability bounds: a candidate is IN once its lower bound
// beats the upper bounds of all but < m others, OUT once its upper
// bound falls below m lower bounds. Only candidates straddling the
// boundary are refined further — the same bound-based pruning idea as
// IDCA itself, lifted to the candidate set.
//
// The returned matches are the selected objects in decreasing order of
// their probability bounds' midpoint, ties in ascending ID order.
// Decided is false on a candidate
// whose membership could not be separated within the iteration budget
// (ties or exhausted refinement); its bounds still quantify the
// remaining ambiguity.
//
// Sessions are constructed and stepped on the query executor; each
// refinement round decides which candidates still straddle the top-m
// boundary from the start-of-round bounds, then steps all of them
// concurrently, so the outcome is deterministic and independent of
// worker count.
func (sn *Snapshot) TopKNN(ctx context.Context, q *uncertain.Object, k, m int) ([]Match, error) {
	if err := sn.CheckDim(q); err != nil {
		return nil, err
	}
	if k < 1 || m < 1 {
		return nil, nil
	}
	run := sn.begin(ctx, kindTopK, nil)
	defer run.end()
	type cand struct {
		obj     *uncertain.Object
		session *core.Session
		prob    gf.Interval
		done    bool
	}
	objs := sn.Within(q, sn.knnThreshold(q, k, sn.normOrDefault()))
	n := sn.answered(q)
	run.tr.AddPreselected(n - len(objs))
	run.prepared(n)
	if len(objs) == 0 {
		return nil, nil
	}
	cands := make([]*cand, len(objs))
	err := run.forEach(len(objs), func(i int) {
		opts := sn.runOpts()
		opts.KMax = k
		opts.SharedDecomps = run.cache
		s := sn.newSession(objs[i], q, opts)
		cands[i] = &cand{obj: objs[i], session: s, prob: s.Result().CDFBound(k), done: s.Done()}
	})
	if err != nil {
		return nil, err
	}
	if m > len(cands) {
		m = len(cands)
	}

	maxIter := sn.opts.MaxIterations
	if maxIter <= 0 {
		maxIter = core.DefaultMaxIterations
	}
	// separated reports whether candidate i is decided relative to the
	// m-boundary: IN if at most m-1 others can beat it, OUT if at least
	// m others certainly beat it.
	countAbove := func(i int, x float64, strictUB bool) int {
		n := 0
		for j, c := range cands {
			if j == i {
				continue
			}
			if strictUB {
				if c.prob.UB > x {
					n++
				}
			} else {
				if c.prob.LB > x {
					n++
				}
			}
		}
		return n
	}
	inSet := func(i int) bool { return countAbove(i, cands[i].prob.LB, true) < m }
	outSet := func(i int) bool { return countAbove(i, cands[i].prob.UB, false) >= m }

	for round := 0; round < maxIter; round++ {
		// Phase 1: pick the candidates still straddling the boundary,
		// judged on the bounds as of the start of the round.
		var todo []int
		for i, c := range cands {
			if !c.done && !inSet(i) && !outSet(i) {
				todo = append(todo, i)
			}
		}
		if len(todo) == 0 {
			break
		}
		// Phase 2: step them all; sessions are independent, so the
		// steps parallelize freely.
		var progressed atomic.Bool
		err := run.forEach(len(todo), func(j int) {
			c := cands[todo[j]]
			if c.session.Step() {
				progressed.Store(true)
			} else {
				c.done = true
			}
			c.prob = c.session.Result().CDFBound(k)
		})
		if err != nil {
			return nil, err
		}
		if !progressed.Load() {
			break
		}
	}

	// Rank by midpoint (exact bounds collapse to the exact value),
	// breaking ties by ID for determinism.
	sort.SliceStable(cands, func(a, b int) bool {
		ma := cands[a].prob.LB + cands[a].prob.UB
		mb := cands[b].prob.LB + cands[b].prob.UB
		if ma != mb {
			return ma > mb
		}
		return cands[a].obj.ID < cands[b].obj.ID
	})
	out := make([]Match, 0, m)
	for i := 0; i < m; i++ {
		c := cands[i]
		// The selection is decided when no outside candidate's upper
		// bound can displace this candidate's lower bound.
		decided := true
		for j := m; j < len(cands); j++ {
			if cands[j].prob.UB > c.prob.LB {
				decided = false
				break
			}
		}
		out = append(out, Match{
			Object:     c.obj,
			Prob:       c.prob,
			IsResult:   true,
			Decided:    decided,
			Iterations: len(c.session.Result().Iterations),
		})
		if !decided {
			run.tr.CountUndecided()
		}
	}
	for _, c := range cands {
		run.tr.CountRefined(len(c.session.Result().Iterations))
	}
	return out, nil
}

// normOrDefault returns the configured norm or L2.
func (sn *Snapshot) normOrDefault() geom.Norm {
	if sn.opts.Norm.Valid() {
		return sn.opts.Norm
	}
	return geom.L2
}
