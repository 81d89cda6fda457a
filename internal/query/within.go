package query

import (
	"slices"

	"probprune/internal/geom"
	"probprune/internal/rtree"
	"probprune/internal/uncertain"
)

// This file is the snapshot's candidate-generation primitive: the objects
// a query has to look at, produced by walking the index instead of the
// database. The paper's filter is spatial — an object beyond the
// m_{k+1} bound is dominated at least k times in every possible world —
// so a kNN query's work follows the ball around q, not |D|. KNN,
// BatchKNN and TopKNN take their candidates from Within; package cq
// builds both its subscribe path and its per-change maintenance on the
// two walks below.

// objTree is the R-tree type every shard cut indexes objects with.
type objTree = rtree.Tree[*uncertain.Object]

// gather runs probe once per non-empty cut with the cut's R-tree and
// root MBR; probe emits the objects it selects. q itself is never a
// candidate. Candidates come back in ascending object-ID order, so
// nothing downstream depends on index shape or shard layout.
func (sn *Snapshot) gather(q *uncertain.Object, probe func(t *objTree, root geom.Rect, emit func(b *uncertain.Object))) []*uncertain.Object {
	var out []*uncertain.Object
	emit := func(b *uncertain.Object) {
		if b != q {
			out = append(out, b)
		}
	}
	for _, sh := range sn.cuts() {
		if root, ok := sh.root(); ok {
			probe(sh.index, root, emit)
		}
	}
	slices.SortFunc(out, cmpID)
	return out
}

// Within returns every database object b != q with MinDist(b, q) at
// most PreselectRadius(d), in ascending object-ID order. With d =
// KNNThreshold(q, k) these are exactly the candidates kNN preselection
// keeps (KNNPrunable is false): it is the candidate source of KNN,
// BatchKNN, TopKNN and of cq's KNN subscriptions. d = +Inf yields the
// whole database but q. The cost is proportional to the answer: a
// best-first stream per index stops at the first distance above d, and
// shards whose root MBR is farther than d are not entered.
func (sn *Snapshot) Within(q *uncertain.Object, d float64) []*uncertain.Object {
	out, _ := sn.appendWithin(nil, q, d)
	return out
}

// appendWithin appends Within(q, d) to dst (sorting only the appended
// part) and returns it with the number of objects the traversal looked
// at — the answer, and the one object per entered index that ended its
// stream. It allocates nothing beyond dst's growth, so a query can run
// it on a pooled buffer.
func (sn *Snapshot) appendWithin(dst []*uncertain.Object, q *uncertain.Object, d float64) (out []*uncertain.Object, visited int) {
	n := sn.normOrDefault()
	r := PreselectRadius(d, n, q.Dim())
	out = dst
	buf := nearbyPool.Get().(*rtree.NearbyBuf)
	defer nearbyPool.Put(buf)
	for _, sh := range sn.cuts() {
		if root, ok := sh.root(); !ok || root.MinDistRect(n, q.MBR) > r {
			continue
		}
		sh.index.NearbyWith(buf,
			func(mbr geom.Rect, _ *uncertain.Object, _ bool) float64 { return mbr.MinDistRect(n, q.MBR) },
			func(_ geom.Rect, b *uncertain.Object, dist float64) bool {
				visited++
				if dist > r {
					return false // ascending stream: nothing closer follows
				}
				if b != q {
					out = append(out, b)
				}
				return true
			})
	}
	slices.SortFunc(out[len(dst):], cmpID)
	return out, visited
}

// RKNNInvolved reports whether a mutation taking an object from state
// old to state new (nil on the insert/delete side) can change candidate
// b's RkNN impossibility count for query q: the count holds the objects
// MaxDist-closer to b than q's minimum distance (see rknnfilter.go), so
// a state that is not leaves RKNNPrunable(q, b, ·) where it was.
func (sn *Snapshot) RKNNInvolved(q, b, old, new *uncertain.Object) bool {
	n := sn.normOrDefault()
	lim := q.MBR.MinDistRect(n, b.MBR)
	return (old != nil && old.MBR.MaxDistRect(n, b.MBR) < lim) ||
		(new != nil && new.MBR.MaxDistRect(n, b.MBR) < lim)
}

// RKNNAffected returns every database object b != q with
// RKNNInvolved(q, b, old, new), in ascending object-ID order — the only
// objects whose RkNN preselection verdict the mutation can flip. The
// walk skips a node N when neither state can be involved for anything
// inside it: MinDist(X, N) >= MaxDist(q, N) bounds MaxDist(X, b) from
// below and MinDist(q, b) from above for every b in N.
func (sn *Snapshot) RKNNAffected(q, old, new *uncertain.Object) []*uncertain.Object {
	n := sn.normOrDefault()
	clear := func(x *uncertain.Object, node geom.Rect, far float64) bool {
		return x == nil || x.MBR.MinDistRect(n, node) >= far
	}
	return sn.gather(q, func(t *objTree, _ geom.Rect, emit func(*uncertain.Object)) {
		t.Walk(
			func(node geom.Rect, _ int) rtree.WalkAction {
				far := q.MBR.MaxDistRect(n, node)
				if clear(old, node, far) && clear(new, node, far) {
					return rtree.SkipSubtree
				}
				return rtree.Descend
			},
			func(_ geom.Rect, b *uncertain.Object) {
				if sn.RKNNInvolved(q, b, old, new) {
					emit(b)
				}
			})
	})
}
