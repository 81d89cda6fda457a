package query

import (
	"cmp"
	"slices"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/rtree"
	"probprune/internal/uncertain"
)

// This file is the snapshot's one data plane. The filter-stage primitives
// (IDCA filter, preselection threshold, impossibility count) run per
// cut on the cuts' own R-trees and are gathered into the exact global
// value before any refinement work runs. The paper's filter classifies
// each object on its own (Section III-A), so the filter over a database
// is the merge of the filters over any partition of it. A one-shard
// snapshot's cut list is the snapshot itself, and a merge of one
// partial is that partial, sorted in place.

// filter scatters the complete-domination filter across the cut
// indexes and gathers the canonical merged outcome. Cuts whose cached
// root MBR already decides the whole partition (completely dominated,
// or completely dominating with only certain objects) contribute their
// verdict with a single geometric test instead of a tree walk — the
// cut-level analogue of the walk's per-node wholesale decisions, with
// identical outcomes.
func (sn *Snapshot) filter(target, reference *uncertain.Object, opts core.Options) core.PartialFilter {
	parts := make([]core.PartialFilter, 0, 8)
	for _, sh := range sn.cuts() {
		root, ok := sh.root()
		if !ok {
			continue // empty cut
		}
		pf, whole := core.PartialFilterWhole(root, sh.index.Len(), sh.allCertain, target, reference, opts)
		if !whole {
			pf = core.PartialFilterIndexed(sh.index, target, reference, opts)
		}
		parts = append(parts, pf)
	}
	return core.MergePartials(parts...)
}

// knnThreshold computes the exact global m_{k+1} preselection bound —
// the (k+1)-th smallest MaxDist(o, q) over all certainly-existing
// objects, q excluded — by folding the cuts' ascending MaxDist streams
// into one bounded max-heap of the k+1 smallest values of the union.
// Cuts are visited nearest-first (by root-MBR MinDist, a lower bound on
// every resident object's MaxDist), so once the heap is full, far cuts
// are ruled out with one distance test and a near cut's stream stops as
// soon as its next value cannot displace a heap member. Returns +Inf
// when the database is too small to prune.
func (sn *Snapshot) knnThreshold(q *uncertain.Object, k int, n geom.Norm) float64 {
	h := maxDistHeap{vals: make([]float64, 0, k+1), bound: k + 1}
	type cutDist struct {
		sh  *Snapshot
		min float64
	}
	order := make([]cutDist, 0, 8)
	for _, sh := range sn.cuts() {
		if root, ok := sh.root(); ok {
			order = append(order, cutDist{sh, root.MinDistRect(n, q.MBR)})
		}
	}
	slices.SortFunc(order, func(a, b cutDist) int { return cmp.Compare(a.min, b.min) })
	buf := nearbyPool.Get().(*rtree.NearbyBuf)
	defer nearbyPool.Put(buf)
	for _, cd := range order {
		if h.full() && cd.min >= h.threshold() {
			// Every object in this (and every later) cut has
			// MaxDist >= its root MinDist >= the current bound: no value
			// can displace a heap member.
			break
		}
		cd.sh.index.NearbyWith(buf,
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
				h.offer(d)
				// Ascending stream: once the heap is full and the current
				// distance reaches the bound, later values cannot improve it.
				return !h.full() || d < h.threshold()
			},
		)
	}
	return h.threshold()
}

// rknnPrunable reports whether candidate b is impossible as an RKNN
// result for query object q: it sums capped per-cut certain-dominator
// counts (see rknnfilter.go), and the candidate is impossible once the
// cuts together account for k objects closer to it than q in every
// possible world. Cuts whose root MBR cannot be MaxDist-closer than the
// limit are ruled out without a traversal.
func (sn *Snapshot) rknnPrunable(q, b *uncertain.Object, k int, n geom.Norm) bool {
	lim := q.MBR.MinDistRect(n, b.MBR)
	if lim <= 0 {
		// q can coincide with b's region; no object can be strictly
		// closer than distance zero.
		return false
	}
	count := 0
	for _, sh := range sn.cuts() {
		root, ok := sh.root()
		if !ok || root.MinDistRect(n, b.MBR) >= lim {
			continue
		}
		count += rknnCertainDominators(sh.index, q, b, k-count, lim, n)
		if count >= k {
			return true
		}
	}
	return false
}
