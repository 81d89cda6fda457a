package query

import (
	"sort"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/rtree"
	"probprune/internal/uncertain"
)

// shardPlane is the scatter-gather data plane behind a multi-shard
// snapshot's engine: the filter-stage primitives (IDCA filter,
// preselection threshold, impossibility count) are computed per shard
// on the shards' own R-trees and gathered into the exact global value
// before any refinement work runs.
type shardPlane struct {
	shards []*Snapshot
}

// filter scatters the complete-domination filter across the shard
// indexes and gathers the canonical merged outcome. Shards whose cached
// root MBR already decides the whole partition (completely dominated,
// or completely dominating with only certain objects) contribute their
// verdict with a single geometric test instead of a tree walk — the
// shard-level analogue of the walk's per-node wholesale decisions, with
// identical outcomes.
func (p *shardPlane) filter(target, reference *uncertain.Object, opts core.Options) core.PartialFilter {
	parts := make([]core.PartialFilter, len(p.shards))
	for i, sh := range p.shards {
		root, allCertain, ok := sh.shardStats()
		if !ok {
			continue // empty shard
		}
		if pf, whole := core.PartialFilterWhole(root, sh.index.Len(), allCertain, target, reference, opts); whole {
			parts[i] = pf
			continue
		}
		parts[i] = core.PartialFilterIndexed(sh.index, target, reference, opts)
	}
	return core.MergePartials(parts...)
}

// knnThreshold computes the exact global m_{k+1} preselection bound —
// the (k+1)-th smallest MaxDist(o, q) over all certainly-existing
// objects — by folding the shards' ascending MaxDist streams into one
// bounded max-heap of the k+1 smallest values of the union. Shards are
// visited nearest-first (by root-MBR MinDist, a lower bound on every
// resident object's MaxDist), so once the heap is full, far shards are
// ruled out with one distance test and a near shard's stream stops as
// soon as its next value cannot displace a heap member. The result is
// the same order statistic of the same multiset the monolithic engine
// computes: bit-identical, but typically touching one or two shards.
func (p *shardPlane) knnThreshold(q *uncertain.Object, k int, n geom.Norm) float64 {
	h := &maxDistHeap{bound: k + 1}
	type shardDist struct {
		sh  *Snapshot
		min float64
	}
	order := make([]shardDist, 0, len(p.shards))
	for _, sh := range p.shards {
		root, _, ok := sh.shardStats()
		if !ok {
			continue
		}
		order = append(order, shardDist{sh, root.MinDistRect(n, q.MBR)})
	}
	sort.Slice(order, func(i, j int) bool { return order[i].min < order[j].min })
	buf := nearbyPool.Get().(*rtree.NearbyBuf)
	defer nearbyPool.Put(buf)
	for _, sd := range order {
		if h.Len() == h.bound && sd.min >= h.threshold() {
			// Every object in this (and every later) shard has
			// MaxDist >= its root MinDist >= the current bound: no value
			// can displace a heap member.
			break
		}
		sd.sh.index.NearbyWith(buf,
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
				return h.Len() < h.bound || d < h.threshold()
			},
		)
	}
	return h.threshold()
}

// rknnPrunable sums capped per-shard certain-dominator counts; the
// candidate is impossible once the shards together account for k
// objects closer to it than q in every possible world — the exact test
// the monolithic engine applies. Shards whose root MBR cannot be
// MaxDist-closer than lim are ruled out without a traversal.
func (p *shardPlane) rknnPrunable(q, b *uncertain.Object, k int, n geom.Norm) bool {
	lim := q.MBR.MinDistRect(n, b.MBR)
	if lim <= 0 {
		return false
	}
	count := 0
	for _, sh := range p.shards {
		root, _, ok := sh.shardStats()
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
