package query

import (
	"container/heap"
	"math"

	"probprune/internal/geom"
	"probprune/internal/rtree"
	"probprune/internal/uncertain"
)

// This file implements candidate preselection for kNN queries: before
// running per-candidate IDCA, the engine discards every object that
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
// With an index the threshold falls out of the best-first Nearby
// stream: ordering values by MaxDist (with MinDist as the admissible
// node-level lower bound, MaxDist >= MinDist) yields the k+1 smallest
// MaxDist values and stops — no full scan, no heap. Without an index a
// linear scan over a bounded max-heap computes the same value.

// knnPruneThreshold computes m_{k+1}, the (k+1)-th smallest
// MaxDist(o, q) over the indexed certain objects (excluding q itself
// when it is a database object). Returns +Inf when the database is too
// small to prune.
func knnPruneThreshold(index *rtree.Tree[*uncertain.Object], q *uncertain.Object, k int, n geom.Norm) float64 {
	thresh := math.Inf(1)
	need := k + 1
	buf := nearbyPool.Get().(*rtree.NearbyBuf)
	defer nearbyPool.Put(buf)
	index.NearbyWith(buf,
		func(mbr geom.Rect, _ *uncertain.Object, leaf bool) float64 {
			if leaf {
				return mbr.MaxDistRect(n, q.MBR)
			}
			return mbr.MinDistRect(n, q.MBR)
		},
		func(_ geom.Rect, o *uncertain.Object, d float64) bool {
			if o == q || o.ExistenceProb() < 1 {
				return true
			}
			need--
			if need == 0 {
				thresh = d
				return false
			}
			return true
		},
	)
	return thresh
}

// knnPruneThresholdLinear is the index-less fallback: the same m_{k+1}
// from a single scan through a bounded max-heap of the k+1 smallest
// MaxDist values.
func knnPruneThresholdLinear(db uncertain.Database, q *uncertain.Object, k int, n geom.Norm) float64 {
	h := &maxDistHeap{bound: k + 1}
	for _, o := range db {
		if o == q || o.ExistenceProb() < 1 {
			continue
		}
		h.offer(o.MBR.MaxDistRect(n, q.MBR))
	}
	return h.threshold()
}

// knnThreshold dispatches the prune-threshold computation through the
// sharded plane or the index when one is present.
func (e *Engine) knnThreshold(q *uncertain.Object, k int, n geom.Norm) float64 {
	if e.plane != nil {
		return e.plane.knnThreshold(q, k, n)
	}
	if e.Index != nil {
		return knnPruneThreshold(e.Index, q, k, n)
	}
	return knnPruneThresholdLinear(e.Database(), q, k, n)
}

// knnPrunable reports whether object b is impossible as a kNN of q
// given the threshold.
func knnPrunable(b *uncertain.Object, q *uncertain.Object, thresh float64, n geom.Norm) bool {
	return b.MBR.MinDistRect(n, q.MBR) > thresh
}

// maxDistHeap is a bounded max-heap of the smallest MaxDist values seen
// so far (the linear fallback's working set).
type maxDistHeap struct {
	vals  []float64
	bound int
}

func (h *maxDistHeap) Len() int           { return len(h.vals) }
func (h *maxDistHeap) Less(i, j int) bool { return h.vals[i] > h.vals[j] }
func (h *maxDistHeap) Swap(i, j int)      { h.vals[i], h.vals[j] = h.vals[j], h.vals[i] }
func (h *maxDistHeap) Push(x any)         { h.vals = append(h.vals, x.(float64)) }
func (h *maxDistHeap) Pop() any {
	old := h.vals
	n := len(old)
	x := old[n-1]
	h.vals = old[:n-1]
	return x
}

// offer inserts v if the heap is not full or v improves the current
// threshold.
func (h *maxDistHeap) offer(v float64) {
	if len(h.vals) < h.bound {
		heap.Push(h, v)
		return
	}
	if v < h.vals[0] {
		h.vals[0] = v
		heap.Fix(h, 0)
	}
}

// threshold returns the current pruning bound: the largest value in a
// full heap, +Inf while under-filled.
func (h *maxDistHeap) threshold() float64 {
	if len(h.vals) < h.bound {
		return math.Inf(1)
	}
	return h.vals[0]
}
