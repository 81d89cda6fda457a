package query

import (
	"context"

	"probprune/internal/gf"
	"probprune/internal/uncertain"
)

// This file implements the U-kRanks ranking semantics (Soliman &
// Ilyas [25]; also discussed by Li et al. [19]) on top of the IDCA
// bounds: the rank-i winner is the object most likely to appear at
// exactly rank i of the similarity ranking. Corollary 3 reduces
// P(Rank(B) = i) to P(DomCount(B) = i−1), so the winners fall directly
// out of the domination-count PDFs the framework bounds anyway — a
// demonstration of the paper's claim that the domination count answers
// "a wide range of probabilistic similarity queries".

// RankWinner is the U-kRanks answer for one rank position.
type RankWinner struct {
	// Rank is the 1-based ranking position.
	Rank int
	// Object is the most probable occupant of the position.
	Object *uncertain.Object
	// Prob bounds P(Rank(Object) = Rank).
	Prob gf.Interval
	// Decided reports whether the winner is unambiguous: its lower
	// bound is not exceeded by any other object's upper bound.
	Decided bool
}

// UKRanks computes the U-kRanks winners for ranks 1..k with respect to
// the reference q: for each rank, the object maximizing
// P(DomCount = rank−1). Winners are chosen by the midpoint of the
// probability bounds; Decided indicates whether the bounds alone
// already separate the winner. A rank no object can hold — every
// object's upper bound for it is 0, as past the last object or behind
// objects tied for an earlier rank — has no winner and no entry.
// Candidates are evaluated concurrently on the query executor.
func (sn *Snapshot) UKRanks(ctx context.Context, q *uncertain.Object, k int) ([]RankWinner, error) {
	if err := sn.CheckDim(q); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, nil
	}
	// Every rank beyond |DB| has probability 0 for every object: a
	// larger k answers as |DB| + 1, whatever the k.
	k = min(k, sn.Len()+1)
	run := sn.begin(ctx, kindUKRanks, nil)
	defer run.end()
	type entry struct {
		obj    *uncertain.Object
		bounds []gf.Interval // bounds[i] = P(Rank = i+1)
		offset int           // first rank with non-zero probability − 1
	}
	cands := sn.candidates(q)
	run.prepared(len(cands))
	entries := make([]entry, len(cands))
	err := run.forEach(len(cands), func(i int) {
		b := cands[i]
		opts := sn.runOpts()
		opts.KMax = k // ranks beyond k are irrelevant
		opts.SharedDecomps = run.cache
		res := sn.run(b, q, opts)
		run.tr.CountRefined(len(res.Iterations))
		entries[i] = entry{
			obj:    b,
			bounds: res.Bounds,
			offset: res.CountOffset(),
		}
	})
	if err != nil {
		return nil, err
	}
	probAt := func(en entry, rank int) gf.Interval {
		i := rank - 1 - en.offset // count index
		if i < 0 || i >= len(en.bounds) {
			return gf.Interval{}
		}
		return en.bounds[i]
	}
	winners := make([]RankWinner, 0, k)
	for rank := 1; rank <= k; rank++ {
		bestIdx, bestMid := -1, -1.0
		for i, en := range entries {
			iv := probAt(en, rank)
			mid := iv.LB + iv.UB
			if mid > bestMid || (mid == bestMid && bestIdx >= 0 && en.obj.ID < entries[bestIdx].obj.ID) {
				bestIdx, bestMid = i, mid
			}
		}
		if bestMid <= 0 {
			// No object can hold this rank (every upper bound is 0):
			// beyond the objects, or a gap behind tied objects.
			continue
		}
		best := probAt(entries[bestIdx], rank)
		decided := true
		for i, en := range entries {
			if i == bestIdx {
				continue
			}
			if probAt(en, rank).UB > best.LB {
				decided = false
				break
			}
		}
		winners = append(winners, RankWinner{
			Rank:    rank,
			Object:  entries[bestIdx].obj,
			Prob:    best,
			Decided: decided,
		})
	}
	return winners, nil
}

// GlobalTopK is a convenience wrapper: the distinct objects appearing
// as U-kRanks winners for ranks 1..k, in rank order of their first win.
func (sn *Snapshot) GlobalTopK(ctx context.Context, q *uncertain.Object, k int) ([]*uncertain.Object, error) {
	winners, err := sn.UKRanks(ctx, q, k)
	if err != nil {
		return nil, err
	}
	seen := map[int]bool{}
	var out []*uncertain.Object
	for _, w := range winners {
		if !seen[w.Object.ID] {
			seen[w.Object.ID] = true
			out = append(out, w.Object)
		}
	}
	return out, nil
}
