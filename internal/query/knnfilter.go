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
	return b.MBR.MinDistRect(n, q.MBR) > PreselectRadius(thresh, n, q.Dim())
}

// PreselectRadius returns the distance beyond which kNN preselection
// prunes for the threshold m = m_{k+1} under norm n in d dimensions: m
// widened by a bound on the rounding error of the computed distances, so
// that an object is pruned only when it is farther than m_{k+1} on the
// exact distances of the stored coordinates — near ties (a point turned
// about q) round either way. KNN preselection, Snapshot.Within's stop
// and a standing query's region radius all use it.
//
// A computed MinDist or MaxDist is off by a relative γ at most: for
// p = 2 one rounding in each separation and one in its square (3ε on
// the square), d − 1 in the sum, halved by the square root, which adds
// one, so γ ≤ (d+4)ε/2; for p = 1, γ ≤ dε; for L∞, γ ≤ ε (ε = 2⁻⁵³).
// Pruning is sound when MinDist/(1+γ) > m/(1−γ), which 2γ + 3ε covers
// together with the rounding of the widening itself: (d+6)·2⁻⁵². For
// other exponents math.Pow adds well under 4096ε per call, and the p-th
// root divides the error of the powers by p: (d+8200)·2⁻⁵². The absolute
// term covers powers that underflow: up to 2⁻¹⁰⁷⁴ per dimension in the
// sum, magnified by the root.
func PreselectRadius(m float64, n geom.Norm, d int) float64 {
	if n.P == 1 || n.P == 2 || n.IsInf() {
		return m + m*float64(d+6)*0x1p-52 + 0x1p-500
	}
	return m + m*float64(d+8200)*0x1p-52 + math.Pow(float64(d)*0x1p-1070, 1/n.P)
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
