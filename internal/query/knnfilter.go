package query

import (
	"math"

	"probprune/internal/geom"
	"probprune/internal/uncertain"
)

// This file implements candidate preselection for kNN queries: before
// running per-candidate IDCA, a query discards every object that
// cannot be a k-nearest neighbor of q in ANY possible world.
//
// The bound: let m_1 <= m_2 <= ... be the sorted MaxDist(o, q) over all
// database objects. If MinDist(B, q) > m_{k+1}, then — even after
// excluding B itself from the list — at least k objects A satisfy
// MaxDist(A, q) < MinDist(B, q). For any fixed reference position r and
// any positions a, b, dist(a, r) <= MaxDist(A, q) < MinDist(B, q) <=
// dist(b, r), so all k objects dominate B in every possible world and
// P(DomCount(B, q) < k) = 0. The m_{k+1} (rather than m_k) guards the
// case where B's own MaxDist is among the k smallest.
//
// Only objects that certainly exist may be counted toward the bound: an
// existentially uncertain object fails to dominate in the worlds where
// it is absent from the database.
//
// The threshold is computed per cut on the cut's R-tree (see
// Snapshot.knnThreshold in plane.go): ordering values by MaxDist, with
// MinDist as the admissible node-level lower bound (MaxDist >= MinDist),
// streams the smallest MaxDist values first, and a bounded max-heap
// folds the cuts' streams into the k+1 smallest of their union.

// knnPrunable reports whether object b is impossible as a kNN of q
// given the threshold.
func knnPrunable(b *uncertain.Object, q *uncertain.Object, thresh float64, n geom.Norm) bool {
	return b.MBR.MinDistRect(n, q.MBR) > thresh
}

// maxDistHeap is a bounded max-heap of the smallest MaxDist values seen
// so far.
type maxDistHeap struct {
	vals  []float64
	bound int
}

func (h *maxDistHeap) full() bool { return len(h.vals) == h.bound }

// offer inserts v if the heap is not full or v improves the current
// threshold.
func (h *maxDistHeap) offer(v float64) {
	if !h.full() {
		h.vals = append(h.vals, v)
		for i := len(h.vals) - 1; i > 0; {
			p := (i - 1) / 2
			if h.vals[p] >= h.vals[i] {
				break
			}
			h.vals[p], h.vals[i] = h.vals[i], h.vals[p]
			i = p
		}
		return
	}
	if v >= h.vals[0] {
		return
	}
	h.vals[0] = v
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h.vals) {
			return
		}
		if r := c + 1; r < len(h.vals) && h.vals[r] > h.vals[c] {
			c = r
		}
		if h.vals[i] >= h.vals[c] {
			return
		}
		h.vals[i], h.vals[c] = h.vals[c], h.vals[i]
		i = c
	}
}

// threshold returns the current pruning bound: the largest value in a
// full heap, +Inf while under-filled.
func (h *maxDistHeap) threshold() float64 {
	if !h.full() {
		return math.Inf(1)
	}
	return h.vals[0]
}
