package query

import (
	"sort"

	"probprune/internal/geom"
	"probprune/internal/rtree"
	"probprune/internal/uncertain"
)

// This file is the snapshot's candidate-generation primitive: the objects
// a standing query has to look at, produced by walking the index instead
// of the database. The paper's filter is spatial — a completely
// dominated object contributes nothing — so the work of maintaining a
// result follows its influence set, not |D|. Package cq builds both its
// subscribe path and its per-change maintenance on the two walks below.

// objTree is the R-tree type every shard cut indexes objects with.
type objTree = rtree.Tree[*uncertain.Object]

// gather is the one place candidate generation touches the data plane.
// probe runs once per non-empty cut with the cut's R-tree and root MBR,
// and emits the objects it selects. q itself is never a candidate.
// Candidates come back in ascending object-ID order, so nothing
// downstream depends on index shape or shard layout.
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
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Within returns every database object b != q with MinDist(b, q) <= d,
// in ascending object-ID order. With d = KNNThreshold(q, k) these are
// exactly the candidates kNN preselection keeps (KNNPrunable is false);
// d = +Inf yields the whole database but q. The cost is proportional to
// the answer: a best-first stream per index stops at the first distance
// above d, and shards whose root MBR is farther than d are not entered.
func (sn *Snapshot) Within(q *uncertain.Object, d float64) []*uncertain.Object {
	out, _ := sn.within(q, d)
	return out
}

// within is Within plus the number of objects the traversal looked at —
// the answer, and the one object per entered index that ended its
// stream.
func (sn *Snapshot) within(q *uncertain.Object, d float64) (out []*uncertain.Object, visited int) {
	n := sn.normOrDefault()
	out = sn.gather(q, func(t *objTree, root geom.Rect, emit func(*uncertain.Object)) {
		if root.MinDistRect(n, q.MBR) > d {
			return
		}
		buf := nearbyPool.Get().(*rtree.NearbyBuf)
		defer nearbyPool.Put(buf)
		t.NearbyWith(buf, rtree.MinDist[*uncertain.Object](n, q.MBR),
			func(_ geom.Rect, b *uncertain.Object, dist float64) bool {
				visited++
				if dist > d {
					return false // ascending stream: nothing closer follows
				}
				emit(b)
				return true
			})
	})
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
