package query

import (
	"probprune/internal/geom"
	"probprune/internal/rtree"
	"probprune/internal/uncertain"
)

// This file implements candidate preselection for reverse kNN queries —
// the analogue of knnfilter.go with the roles swapped. An RKNN
// candidate B is evaluated as the reference of the run (q the target):
// the predicate is P(DomCount(q, B) < k) >= tau. B can be discarded
// without a run when at least k certainly-existing objects A satisfy
//
//	MaxDist(A, B) < MinDist(q, B),
//
// because then, for every possible world, dist(a, b) <= MaxDist(A, B) <
// MinDist(q, B) <= dist(q, b): all k objects are closer to B than q in
// every world, so P(DomCount(q, B) < k) = 0.
//
// Per cut (see Engine.rknnPrunable in plane.go) the count comes from a
// best-first Nearby stream ordered by MaxDist(·, B) (node-level lower
// bound: MinDist, which never exceeds a descendant's MaxDist). The stream is consumed only until
// either k qualifying objects have appeared or the next distance
// reaches MinDist(q, B) — whichever happens first, so the per-candidate
// cost is O(k) stream steps rather than a database scan.

// rknnCertainDominators counts the certainly-existing indexed objects
// (excluding q and b) whose MaxDist to b is below lim, capped at need.
// A capped count over one partition composes across shards: the global
// impossibility test is whether the per-shard counts sum to k, with
// each shard asked only for the residual it could still contribute.
func rknnCertainDominators(index *rtree.Tree[*uncertain.Object], q, b *uncertain.Object, need int, lim float64, n geom.Norm) int {
	count := 0
	buf := nearbyPool.Get().(*rtree.NearbyBuf)
	defer nearbyPool.Put(buf)
	index.NearbyWith(buf,
		func(mbr geom.Rect, _ *uncertain.Object, leaf bool) float64 {
			if leaf {
				return mbr.MaxDistRect(n, b.MBR)
			}
			return mbr.MinDistRect(n, b.MBR)
		},
		func(_ geom.Rect, o *uncertain.Object, d float64) bool {
			if d >= lim {
				return false // ascending stream: no further dominators
			}
			if o == q || o == b || o.ExistenceProb() < 1 {
				return true
			}
			count++
			return count < need
		},
	)
	return count
}
