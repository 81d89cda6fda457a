package rtree

import (
	"probprune/internal/geom"
)

// This file adds best-first incremental traversal to the R-tree: values
// are visited in ascending order of a caller-supplied distance, pulled
// from a priority queue of subtrees and values keyed by that distance
// (the classic kNN traversal of Hjaltason & Samet, as popularized by
// tidwall's rtree implementations). The iterator is incremental — the
// caller stops as soon as it has seen enough, and only the visited
// frontier of the tree is ever touched — which is what lets the query
// layer derive kNN prune thresholds and reverse-kNN preselection
// verdicts without full scans.

// DistFunc scores an MBR for best-first traversal. For internal nodes
// (leaf == false, value is the zero value of T) it must return a lower
// bound of the score of every value stored beneath the node; for stored
// values (leaf == true) it returns the value's actual score. MinDist to
// a query rectangle has this property, as does any other monotone
// bound (e.g. MinDist as a lower bound for MaxDist, since
// MaxDist >= MinDist and child MBRs nest inside node MBRs).
type DistFunc[T comparable] func(mbr geom.Rect, value T, leaf bool) float64

// MinDist returns the DistFunc ranking by minimal Lp distance to the
// query rectangle — the standard nearest-neighbor ordering.
func MinDist[T comparable](n geom.Norm, query geom.Rect) DistFunc[T] {
	return func(mbr geom.Rect, _ T, _ bool) float64 {
		return mbr.MinDistRect(n, query)
	}
}

// nearbyItem is one priority-queue entry: a pending subtree (node >= 0)
// or a stored value (node < 0, addressed by its leaf slot). Items are
// plain values — the queue is a flat slice, not a heap of boxed
// pointers — and carry no T, so one buffer type serves every tree
// instantiation.
type nearbyItem struct {
	dist float64
	seq  int32 // insertion sequence; breaks ties deterministically
	node int32
	vn   int32 // value's leaf node (value items)
	ei   int32 // value's entry slot (value items)
}

// NearbyBuf is reusable Nearby traversal state. A zero NearbyBuf is
// ready to use; passing the same buffer to successive NearbyWith calls
// (from one goroutine at a time) reuses the queue's backing array, so
// warm traversals allocate nothing. Buffers are tree-independent and
// safe to pool globally.
type NearbyBuf struct {
	items []nearbyItem
}

func nbLess(a, b nearbyItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.seq < b.seq
}

func nbPush(h []nearbyItem, it nearbyItem) []nearbyItem {
	h = append(h, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !nbLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

func nbSiftDown(h []nearbyItem) {
	i := 0
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && nbLess(h[r], h[l]) {
			m = r
		}
		if !nbLess(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Nearby visits stored values in ascending dist order, calling iter with
// each value and its distance until iter returns false or the tree is
// exhausted. The visit order is deterministic: exact distance ties are
// broken by discovery order. Traversal work is proportional to the
// frontier actually consumed, so early-terminating callers leave most
// of the tree untouched.
func (t *Tree[T]) Nearby(dist DistFunc[T], iter func(rect geom.Rect, value T, d float64) bool) {
	var buf NearbyBuf
	t.NearbyWith(&buf, dist, iter)
}

// NearbyWith is Nearby with caller-supplied traversal state; see
// NearbyBuf. The visit order is identical to Nearby's: the queue pops
// in (dist, seq) order, which is total, so the heap layout cannot
// influence it.
func (t *Tree[T]) NearbyWith(buf *NearbyBuf, dist DistFunc[T], iter func(rect geom.Rect, value T, d float64) bool) {
	if t.size == 0 {
		return
	}
	var zero T
	h := buf.items[:0]
	defer func() { buf.items = h[:0] }()
	seq := int32(1)
	h = nbPush(h, nearbyItem{dist: dist(t.rootRect(), zero, false), node: t.root})
	for len(h) > 0 {
		it := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		nbSiftDown(h)
		if it.node < 0 {
			if !iter(t.rectAt(it.vn, int(it.ei)), t.valAt(it.vn, int(it.ei)), it.dist) {
				return
			}
			continue
		}
		ni := it.node
		p := t.pageOf(ni)
		m := p.meta[ni&pageMask]
		base := slot(ni, 0)
		for i := 0; i < int(m.n); i++ {
			r := p.rect(base+i, t.dim)
			if m.leaf {
				h = nbPush(h, nearbyItem{dist: dist(r, p.vals[base+i], true), seq: seq, node: -1, vn: ni, ei: int32(i)})
			} else {
				h = nbPush(h, nearbyItem{dist: dist(r, zero, false), seq: seq, node: p.child[base+i]})
			}
			seq++
		}
	}
}
