// Package rtree implements a classic Guttman R-tree with quadratic
// splits over axis-aligned rectangles. The pruning framework uses it as
// its spatial index substrate: the minimum bounding rectangles of
// uncertain objects are indexed, and the complete-domination filter of
// the paper walks the tree pruning whole subtrees at node granularity —
// the index integration the paper names as future work (Section VIII).
//
// The domination criterion is monotone in the rectangle arguments
// (shrinking the candidate region can only help it dominate, and can
// only help it be dominated), so a verdict established for a node MBR
// transfers to every object stored beneath it. Walk exposes exactly the
// traversal contract this needs.
//
// Layout: the tree is flat, not pointer-linked. Nodes are addressed by
// int32 indices and stored in fixed-size pages of pageNodes nodes: node
// ni lives in page ni>>pageShift, which holds its header and a
// fixed-stride slot range in three packed arrays — entry rectangles in
// coords (2·dim floats per entry), child links in child, stored values
// in vals. Entry rectangles handed to callbacks are sub-slice views
// into a page's coords, so traversals allocate nothing.
//
// Pages are copy-on-write (package cow): Clone copies only the page
// table, and each tree writes in place only the pages it owns, copying
// a shared page on its first write. A mutation after a Clone therefore
// costs the pages it touches — a root-to-leaf path or two — not the
// whole tree, which is what keeps the store's per-commit snapshot detach
// independent of the database size.
//
// The algorithms (ChooseLeaf, quadratic split, CondenseTree, STR
// packing, best-first Nearby) are operation-for-operation those of the
// original pointer-based implementation, so tree shapes, stored
// rectangle values and traversal orders are bit-identical — the
// equivalence fuzzer in equivalence_test.go pins exactly that against
// the retained reference implementation.
package rtree

import (
	"fmt"
	"math"
	"slices"

	"probprune/internal/cow"
	"probprune/internal/geom"
)

// Degree bounds for nodes: every node except the root holds between
// minEntries and maxEntries entries. slotCap reserves one transient
// overflow slot per node, filled only between an insertion and the
// split it triggers.
const (
	maxEntries = 16
	minEntries = 6
	slotCap    = maxEntries + 1
)

// Page geometry: a page holds pageNodes consecutive node indices. The
// size bounds the write amplification of copy-on-write (a shared page
// is copied whole on its first write). At 8 nodes (~6 KB in 2-D) a
// watched store Update at 10^4 objects copies ~28 KB of pages; 16 and
// 32 nodes copied ~49 and ~85 KB, and 4 nodes saved only 9 KB more for
// twice the page objects.
const (
	pageShift = 3
	pageNodes = 1 << pageShift
	pageMask  = pageNodes - 1
)

// nodeMeta is the per-node header; entry data lives in the page's
// packed arrays at the node's slot range.
type nodeMeta struct {
	leaf  bool
	n     int16 // entries in use
	count int32 // values stored in this subtree
}

// page stores pageNodes nodes. Pages live in a cow.Table: the tree
// writes in place only the pages its table owns.
type page[T comparable] struct {
	meta   [pageNodes]nodeMeta
	child  [pageNodes * slotCap]int32 // child links (internal nodes)
	vals   [pageNodes * slotCap]T     // stored values (leaf nodes)
	coords []float64                  // pageNodes*slotCap rects of 2*dim floats
}

// Copy returns a private copy of the page (cow.Page).
func (p *page[T]) Copy() *page[T] {
	c := *p
	c.coords = slices.Clone(p.coords)
	return &c
}

// rect returns a view of the rectangle in page slot s. The view aliases
// the page: callers must treat it as read-only, and it is invalidated
// by mutations.
func (p *page[T]) rect(s, dim int) geom.Rect {
	o := s * 2 * dim
	return geom.Rect{Min: p.coords[o : o+dim : o+dim], Max: p.coords[o+dim : o+2*dim : o+2*dim]}
}

// slot returns the page-local slot of entry i of node ni.
func slot(ni int32, i int) int { return int(ni&pageMask)*slotCap + i }

// Tree is an R-tree mapping rectangles to values of type T. The zero
// value is not usable; construct with New. A Tree may be read
// concurrently, but mutations require exclusive access (the store
// layer guarantees this via copy-on-write snapshots).
type Tree[T comparable] struct {
	dim   int
	size  int
	root  int32 // node index; -1 until the first insert fixes dim
	nodes int32 // node indices handed out (live or free)

	pages cow.Table[page[T], *page[T]] // page i holds nodes [i*pageNodes, (i+1)*pageNodes)
	free  []int32                      // recycled node indices

	// rootMBR caches the union of the root's entry rectangles (2*dim
	// floats), maintained on every mutation so read paths never compute
	// or allocate it.
	rootMBR []float64

	// Mutation scratch, reused across Inserts/Deletes (mutations are
	// exclusive by contract). scCoords holds slotCap+2 rect slots: the
	// overflowing node's entries plus the two split-group accumulators.
	scCoords     []float64
	orphanCoords []float64
	orphanVals   []T
}

// New returns an empty tree.
func New[T comparable]() *Tree[T] {
	return &Tree[T]{root: -1}
}

// Len returns the number of stored values.
func (t *Tree[T]) Len() int { return t.size }

// Dim returns the dimensionality of stored rectangles (0 before the
// first insert).
func (t *Tree[T]) Dim() int { return t.dim }

// pageOf returns the page of node ni for reading.
func (t *Tree[T]) pageOf(ni int32) *page[T] { return t.pages.At(int(ni >> pageShift)) }

// writable returns the page of node ni for writing, first replacing a
// page the tree does not own with a private copy. Views obtained from
// the page before the copy keep reading the shared original.
func (t *Tree[T]) writable(ni int32) *page[T] { return t.pages.Writable(int(ni >> pageShift)) }

// meta returns the header of node ni.
func (t *Tree[T]) meta(ni int32) nodeMeta { return t.pageOf(ni).meta[ni&pageMask] }

// metaW returns the header of node ni for writing.
func (t *Tree[T]) metaW(ni int32) *nodeMeta { return &t.writable(ni).meta[ni&pageMask] }

// coordOff returns the offset of entry i of node ni in its page's
// coords.
func (t *Tree[T]) coordOff(ni int32, i int) int {
	return slot(ni, i) * 2 * t.dim
}

// rectAt returns a view of entry i of node ni (see page.rect).
func (t *Tree[T]) rectAt(ni int32, i int) geom.Rect {
	return t.pageOf(ni).rect(slot(ni, i), t.dim)
}

func (t *Tree[T]) childAt(ni int32, i int) int32 { return t.pageOf(ni).child[slot(ni, i)] }
func (t *Tree[T]) valAt(ni int32, i int) T       { return t.pageOf(ni).vals[slot(ni, i)] }

// setRect copies r into entry slot i of node ni.
func (t *Tree[T]) setRect(ni int32, i int, r geom.Rect) {
	c := t.writable(ni).coords
	o := t.coordOff(ni, i)
	d := t.dim
	copy(c[o:o+d], r.Min)
	copy(c[o+d:o+2*d], r.Max)
}

// writeNodeRect computes the tight MBR of node ci (the union of its
// entry rectangles, accumulated in entry order exactly like the
// reference nodeRect) directly into entry slot i of node ni.
func (t *Tree[T]) writeNodeRect(ni int32, i int, ci int32) {
	d := t.dim
	dst := t.writable(ni).coords
	src := t.pageOf(ci).coords
	o := t.coordOff(ni, i)
	co := t.coordOff(ci, 0)
	copy(dst[o:o+2*d], src[co:co+2*d])
	for k := 1; k < int(t.meta(ci).n); k++ {
		ck := t.coordOff(ci, k)
		for j := 0; j < d; j++ {
			dst[o+j] = math.Min(dst[o+j], src[ck+j])
			dst[o+d+j] = math.Max(dst[o+d+j], src[ck+d+j])
		}
	}
}

// nodeRectAlloc returns a freshly allocated tight MBR of node ni —
// validation/bulk paths only; hot paths use writeNodeRect.
func (t *Tree[T]) nodeRectAlloc(ni int32) geom.Rect {
	r := t.rectAt(ni, 0).Clone()
	c := t.pageOf(ni).coords
	d := t.dim
	for k := 1; k < int(t.meta(ni).n); k++ {
		ck := t.coordOff(ni, k)
		for j := 0; j < d; j++ {
			r.Min[j] = math.Min(r.Min[j], c[ck+j])
			r.Max[j] = math.Max(r.Max[j], c[ck+d+j])
		}
	}
	return r
}

// rootRect returns a view of the cached root MBR; valid while size > 0.
func (t *Tree[T]) rootRect() geom.Rect {
	d := t.dim
	return geom.Rect{Min: t.rootMBR[0:d:d], Max: t.rootMBR[d : 2*d : 2*d]}
}

// refreshRootMBR recomputes the cached root MBR after a mutation.
func (t *Tree[T]) refreshRootMBR() {
	if t.size == 0 || t.root < 0 {
		return
	}
	d := t.dim
	if len(t.rootMBR) < 2*d {
		t.rootMBR = make([]float64, 2*d)
	}
	c := t.pageOf(t.root).coords
	ro := t.coordOff(t.root, 0)
	copy(t.rootMBR[:2*d], c[ro:ro+2*d])
	for k := 1; k < int(t.meta(t.root).n); k++ {
		ck := t.coordOff(t.root, k)
		for j := 0; j < d; j++ {
			t.rootMBR[j] = math.Min(t.rootMBR[j], c[ck+j])
			t.rootMBR[d+j] = math.Max(t.rootMBR[d+j], c[ck+d+j])
		}
	}
}

// Bounds returns the minimum bounding rectangle of every stored value
// and whether the tree is non-empty. A scatter-gather router uses it to
// rule whole shards out of a probe with one distance test instead of a
// traversal. The returned rectangle is caller-owned.
func (t *Tree[T]) Bounds() (geom.Rect, bool) {
	if t.size == 0 {
		return geom.Rect{}, false
	}
	return t.rootRect().Clone(), true
}

// newNode allocates (or recycles) a node index and returns it; a fresh
// index past the last page opens a new page owned by the tree.
func (t *Tree[T]) newNode(leaf bool) int32 {
	var ni int32
	if k := len(t.free); k > 0 {
		ni = t.free[k-1]
		t.free = t.free[:k-1]
	} else {
		ni = t.nodes
		t.nodes++
		if int(ni>>pageShift) == t.pages.Len() {
			t.pages.Append(&page[T]{coords: make([]float64, pageNodes*slotCap*2*t.dim)})
		}
	}
	*t.metaW(ni) = nodeMeta{leaf: leaf}
	return ni
}

// freeNode returns a node index to the free list, dropping value
// references so the GC can reclaim them.
func (t *Tree[T]) freeNode(ni int32) {
	p := t.writable(ni)
	base := slot(ni, 0)
	clear(p.vals[base : base+slotCap])
	p.meta[ni&pageMask] = nodeMeta{}
	t.free = append(t.free, ni)
}

// Insert adds value under the given bounding rectangle. Duplicate
// rectangles and values are allowed. The rectangle is copied into the
// tree's packed storage; the argument is not retained.
func (t *Tree[T]) Insert(rect geom.Rect, value T) {
	if t.root < 0 {
		t.dim = rect.Dim()
		t.root = t.newNode(true)
	}
	t.insertEntry(rect, value)
	t.size++
	t.refreshRootMBR()
}

// insertEntry places a leaf entry without touching t.size — the shared
// path of Insert and orphan reinsertion, which moves values that are
// still accounted for.
func (t *Tree[T]) insertEntry(rect geom.Rect, value T) {
	sib := t.insert(t.root, rect, value)
	if sib >= 0 {
		// Root split: grow the tree by one level.
		old := t.root
		nr := t.newNode(false)
		t.appendInternalEntry(nr, old)
		t.appendInternalEntry(nr, sib)
		t.metaW(nr).count = t.meta(old).count + t.meta(sib).count
		t.root = nr
	}
}

// appendLeafEntry appends (rect, value) to leaf node ni.
func (t *Tree[T]) appendLeafEntry(ni int32, rect geom.Rect, value T) {
	p := t.writable(ni)
	m := &p.meta[ni&pageMask]
	i := int(m.n)
	t.setRect(ni, i, rect)
	p.vals[slot(ni, i)] = value
	m.n++
}

// appendInternalEntry appends child ci (with its tight MBR) to internal
// node ni.
func (t *Tree[T]) appendInternalEntry(ni, ci int32) {
	p := t.writable(ni)
	m := &p.meta[ni&pageMask]
	i := int(m.n)
	t.writeNodeRect(ni, i, ci)
	p.child[slot(ni, i)] = ci
	m.n++
}

// insert places a leaf entry into the subtree under ni, returning the
// index of a new sibling if ni had to split (-1 otherwise).
func (t *Tree[T]) insert(ni int32, rect geom.Rect, value T) int32 {
	m := t.metaW(ni)
	m.count++
	if m.leaf {
		t.appendLeafEntry(ni, rect, value)
		if int(t.meta(ni).n) > maxEntries {
			return t.split(ni)
		}
		return -1
	}
	best := t.chooseSubtree(ni, rect)
	ci := t.childAt(ni, best)
	sib := t.insert(ci, rect, value)
	if sib >= 0 {
		// The child's entries were redistributed: recompute its MBR
		// tightly instead of unioning in the new rectangle.
		t.writeNodeRect(ni, best, ci)
		t.appendInternalEntry(ni, sib)
		if int(t.meta(ni).n) > maxEntries {
			return t.split(ni)
		}
	} else {
		// Union the inserted rectangle into the chosen entry in place.
		c := t.writable(ni).coords
		o := t.coordOff(ni, best)
		d := t.dim
		for j := 0; j < d; j++ {
			c[o+j] = math.Min(c[o+j], rect.Min[j])
			c[o+d+j] = math.Max(c[o+d+j], rect.Max[j])
		}
	}
	return -1
}

// chooseSubtree picks the child whose MBR needs the least enlargement
// to cover r, breaking ties by smaller area (Guttman's ChooseLeaf).
func (t *Tree[T]) chooseSubtree(ni int32, r geom.Rect) int {
	best := 0
	bestEnl, bestArea := math.Inf(1), math.Inf(1)
	for i := 0; i < int(t.meta(ni).n); i++ {
		er := t.rectAt(ni, i)
		area := er.Area()
		enl := unionArea(er, r) - area
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// unionArea returns Union(a, b).Area() without materializing the union:
// the same per-dimension extents multiplied in the same order.
func unionArea(a, b geom.Rect) float64 {
	p := 1.0
	for i := range a.Min {
		p *= math.Max(a.Max[i], b.Max[i]) - math.Min(a.Min[i], b.Min[i])
	}
	return p
}

// split performs Guttman's quadratic split on an overflowing node,
// keeping one group in ni and returning the other as a new node. The
// seed picking, preference ordering and tie-breaking replicate the
// reference implementation operation for operation.
func (t *Tree[T]) split(ni int32) int32 {
	d := t.dim
	d2 := 2 * d
	m := t.meta(ni)
	n := int(m.n) // slotCap: maxEntries + 1 overflow entry
	leaf := m.leaf

	// Copy the node's entries into scratch: the slots are about to be
	// rewritten.
	if cap(t.scCoords) < (slotCap+2)*d2 {
		t.scCoords = make([]float64, (slotCap+2)*d2)
	}
	sc := t.scCoords[:(slotCap+2)*d2]
	p := t.pageOf(ni)
	o := t.coordOff(ni, 0)
	copy(sc[:n*d2], p.coords[o:o+n*d2])
	var schild [slotCap]int32
	var svals [slotCap]T
	base := slot(ni, 0)
	if leaf {
		copy(svals[:n], p.vals[base:base+n])
	} else {
		copy(schild[:n], p.child[base:base+n])
	}
	srect := func(i int) geom.Rect {
		o := i * d2
		return geom.Rect{Min: sc[o : o+d : o+d], Max: sc[o+d : o+d2 : o+d2]}
	}
	// Group accumulator rects live in the two extra scratch slots.
	r1, r2 := srect(slotCap), srect(slotCap+1)
	unionInto := func(r geom.Rect, e geom.Rect) {
		for j := 0; j < d; j++ {
			r.Min[j] = math.Min(r.Min[j], e.Min[j])
			r.Max[j] = math.Max(r.Max[j], e.Max[j])
		}
	}

	// Pick the two seeds wasting the most area if grouped together.
	s1, s2 := 0, 1
	worst := -1.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			u := unionArea(srect(i), srect(j))
			waste := u - srect(i).Area() - srect(j).Area()
			if waste > worst {
				s1, s2, worst = i, j, waste
			}
		}
	}
	var g1, g2, rest [slotCap]int
	n1, n2 := 1, 1
	g1[0], g2[0] = s1, s2
	copy(r1.Min, srect(s1).Min)
	copy(r1.Max, srect(s1).Max)
	copy(r2.Min, srect(s2).Min)
	copy(r2.Max, srect(s2).Max)
	nr := 0
	for i := 0; i < n; i++ {
		if i != s1 && i != s2 {
			rest[nr] = i
			nr++
		}
	}
	for nr > 0 {
		// If one group must take all remaining entries to reach the
		// minimum, assign them wholesale.
		if n1+nr <= minEntries {
			for k := 0; k < nr; k++ {
				g1[n1] = rest[k]
				n1++
				unionInto(r1, srect(rest[k]))
			}
			break
		}
		if n2+nr <= minEntries {
			for k := 0; k < nr; k++ {
				g2[n2] = rest[k]
				n2++
				unionInto(r2, srect(rest[k]))
			}
			break
		}
		// PickNext: the entry with the strongest preference.
		bestIdx, bestDiff := 0, -1.0
		a1, a2 := r1.Area(), r2.Area()
		for k := 0; k < nr; k++ {
			e := srect(rest[k])
			d1 := unionArea(r1, e) - a1
			d2v := unionArea(r2, e) - a2
			diff := d1 - d2v
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestIdx, bestDiff = k, diff
			}
		}
		ei := rest[bestIdx]
		copy(rest[bestIdx:], rest[bestIdx+1:nr])
		nr--
		e := srect(ei)
		d1 := unionArea(r1, e) - r1.Area()
		d2v := unionArea(r2, e) - r2.Area()
		if d1 < d2v || (d1 == d2v && n1 <= n2) {
			g1[n1] = ei
			n1++
			unionInto(r1, e)
		} else {
			g2[n2] = ei
			n2++
			unionInto(r2, e)
		}
	}

	sib := t.newNode(leaf)
	t.writeGroup(ni, leaf, sc, g1[:n1], schild[:], svals[:])
	t.writeGroup(sib, leaf, sc, g2[:n2], schild[:], svals[:])
	return sib
}

// writeGroup rewrites node ni with the given scratch-entry indices.
func (t *Tree[T]) writeGroup(ni int32, leaf bool, sc []float64, g []int, schild []int32, svals []T) {
	d2 := 2 * t.dim
	p := t.writable(ni)
	base := slot(ni, 0)
	count := int32(0)
	for k, idx := range g {
		o := t.coordOff(ni, k)
		copy(p.coords[o:o+d2], sc[idx*d2:(idx+1)*d2])
		if leaf {
			p.vals[base+k] = svals[idx]
			count++
		} else {
			ci := schild[idx]
			p.child[base+k] = ci
			count += t.meta(ci).count
		}
	}
	// Drop stale value references beyond the group.
	if leaf {
		clear(p.vals[base+len(g) : base+slotCap])
	}
	m := &p.meta[ni&pageMask]
	m.n = int16(len(g))
	m.count = count
}

// removeEntry deletes entry i of node ni, shifting later entries left.
func (t *Tree[T]) removeEntry(ni int32, i int) {
	p := t.writable(ni)
	m := &p.meta[ni&pageMask]
	n := int(m.n)
	base := slot(ni, 0)
	if i < n-1 {
		d2 := 2 * t.dim
		o := t.coordOff(ni, i)
		copy(p.coords[o:o+(n-1-i)*d2], p.coords[o+d2:o+(n-i)*d2])
		copy(p.child[base+i:base+n-1], p.child[base+i+1:base+n])
		copy(p.vals[base+i:base+n-1], p.vals[base+i+1:base+n])
	}
	var zero T
	p.vals[base+n-1] = zero
	m.n--
}

// SearchIntersect calls fn for every stored value whose rectangle
// intersects query. Traversal stops early if fn returns false.
func (t *Tree[T]) SearchIntersect(query geom.Rect, fn func(rect geom.Rect, value T) bool) {
	if t.root < 0 {
		return
	}
	t.searchIntersect(t.root, query, fn)
}

func (t *Tree[T]) searchIntersect(ni int32, query geom.Rect, fn func(geom.Rect, T) bool) bool {
	p := t.pageOf(ni)
	m := p.meta[ni&pageMask]
	base := slot(ni, 0)
	for i := 0; i < int(m.n); i++ {
		r := p.rect(base+i, t.dim)
		if !r.Intersects(query) {
			continue
		}
		if m.leaf {
			if !fn(r, p.vals[base+i]) {
				return false
			}
		} else if !t.searchIntersect(p.child[base+i], query, fn) {
			return false
		}
	}
	return true
}

// WalkAction is the verdict a Walk node callback returns for a subtree.
type WalkAction int

const (
	// Descend continues into the subtree's children.
	Descend WalkAction = iota
	// SkipSubtree prunes the subtree without visiting any value in it.
	SkipSubtree
	// TakeSubtree accepts every value in the subtree: leaf is invoked
	// for each without further node callbacks.
	TakeSubtree
)

// Walk traverses the tree top-down. For every node (including leaf
// nodes), node is called with the node's MBR and the number of values
// beneath it, and its verdict controls descent. leaf is called for
// every value that is reached (via Descend into a leaf node, or via
// TakeSubtree). Either callback may be nil. Rectangles passed to the
// callbacks are read-only views into the tree's packed storage.
//
// This is the primitive the bulk complete-domination filter builds on:
// a node whose MBR is dominated by the target w.r.t. the reference is
// SkipSubtree'd (the count argument discards the subtree wholesale); a
// node whose MBR dominates the target is TakeSubtree'd so each object
// inherits the verdict but still gets its per-object existence check —
// counting dominators wholesale is unsound for existentially uncertain
// objects; everything else descends.
func (t *Tree[T]) Walk(node func(mbr geom.Rect, count int) WalkAction, leaf func(rect geom.Rect, value T)) {
	if t.size == 0 {
		return
	}
	t.walk(t.root, t.rootRect(), node, leaf)
}

func (t *Tree[T]) walk(ni int32, mbr geom.Rect, nodeFn func(geom.Rect, int) WalkAction, leafFn func(geom.Rect, T)) {
	p := t.pageOf(ni)
	m := p.meta[ni&pageMask]
	action := Descend
	if nodeFn != nil {
		action = nodeFn(mbr, int(m.count))
	}
	switch action {
	case SkipSubtree:
		return
	case TakeSubtree:
		t.emitAll(ni, leafFn)
	default:
		base := slot(ni, 0)
		for i := 0; i < int(m.n); i++ {
			if m.leaf {
				if leafFn != nil {
					leafFn(p.rect(base+i, t.dim), p.vals[base+i])
				}
			} else {
				t.walk(p.child[base+i], p.rect(base+i, t.dim), nodeFn, leafFn)
			}
		}
	}
}

func (t *Tree[T]) emitAll(ni int32, leafFn func(geom.Rect, T)) {
	if leafFn == nil {
		return
	}
	p := t.pageOf(ni)
	m := p.meta[ni&pageMask]
	base := slot(ni, 0)
	for i := 0; i < int(m.n); i++ {
		if m.leaf {
			leafFn(p.rect(base+i, t.dim), p.vals[base+i])
		} else {
			t.emitAll(p.child[base+i], leafFn)
		}
	}
}

// Delete removes one entry with the given rectangle and value, and
// reports whether an entry was found. Underflowing nodes are condensed
// and their remaining entries reinserted (Guttman's CondenseTree).
func (t *Tree[T]) Delete(rect geom.Rect, value T) bool {
	if t.root < 0 {
		return false
	}
	t.orphanCoords = t.orphanCoords[:0]
	t.orphanVals = t.orphanVals[:0]
	found, _ := t.delete(t.root, rect, value)
	if !found {
		return false
	}
	t.size--
	// Collapse a root with a single internal child.
	for m := t.meta(t.root); !m.leaf && m.n == 1; m = t.meta(t.root) {
		old := t.root
		t.root = t.childAt(old, 0)
		t.freeNode(old)
	}
	if m := t.meta(t.root); !m.leaf && m.n == 0 {
		t.freeNode(t.root)
		t.root = t.newNode(true)
	}
	// Reinsert orphaned values in collection order — the same sequence
	// the reference implementation's top-level reinsertion produces.
	d2 := 2 * t.dim
	for k := range t.orphanVals {
		o := k * d2
		r := geom.Rect{Min: t.orphanCoords[o : o+t.dim : o+t.dim], Max: t.orphanCoords[o+t.dim : o+d2 : o+d2]}
		t.insertEntry(r, t.orphanVals[k])
	}
	clear(t.orphanVals)
	t.orphanVals = t.orphanVals[:0]
	t.refreshRootMBR()
	return true
}

// delete removes the matching value from the subtree under ni. It
// returns whether the value was found and how many values left the
// subtree (the deleted one plus any orphaned by condensing, which
// Delete reinserts from the top).
func (t *Tree[T]) delete(ni int32, rect geom.Rect, value T) (bool, int32) {
	if t.meta(ni).leaf {
		for i := 0; i < int(t.meta(ni).n); i++ {
			if t.valAt(ni, i) == value && t.rectAt(ni, i).Equal(rect) {
				t.removeEntry(ni, i)
				t.metaW(ni).count--
				return true, 1
			}
		}
		return false, 0
	}
	for i := 0; i < int(t.meta(ni).n); i++ {
		if !t.rectAt(ni, i).ContainsRect(rect) {
			continue
		}
		ci := t.childAt(ni, i)
		found, removed := t.delete(ci, rect, value)
		if !found {
			continue
		}
		if cm := t.meta(ci); int(cm.n) < minEntries {
			// Condense: orphan the underflowing child's remaining
			// values; they also leave this subtree until the top-level
			// reinsertion puts them back.
			removed += cm.count
			t.collectOrphans(ci)
			t.removeEntry(ni, i)
		} else {
			t.writeNodeRect(ni, i, ci)
		}
		t.metaW(ni).count -= removed
		return true, removed
	}
	return false, 0
}

// collectOrphans copies every leaf (rect, value) under ni into the
// orphan scratch in DFS entry order — exactly the order the reference
// implementation reinserts a condensed subtree — and frees its nodes.
// Rect data must be copied out: reinsertion recycles freed slots, which
// would otherwise overwrite it mid-use.
func (t *Tree[T]) collectOrphans(ni int32) {
	d2 := 2 * t.dim
	p := t.pageOf(ni)
	m := p.meta[ni&pageMask]
	base := slot(ni, 0)
	for i := 0; i < int(m.n); i++ {
		if m.leaf {
			o := (base + i) * d2
			t.orphanCoords = append(t.orphanCoords, p.coords[o:o+d2]...)
			t.orphanVals = append(t.orphanVals, p.vals[base+i])
		} else {
			t.collectOrphans(p.child[base+i])
		}
	}
	t.freeNode(ni)
}

// All calls fn for every stored (rect, value) pair.
func (t *Tree[T]) All(fn func(rect geom.Rect, value T)) {
	if t.root < 0 {
		return
	}
	t.emitAll(t.root, fn)
}

// CheckInvariants validates structural invariants (entry counts, MBR
// containment, subtree counts, root-MBR cache coherence); it is
// exported for tests.
func (t *Tree[T]) CheckInvariants() error {
	if t.root < 0 {
		if t.size != 0 {
			return fmt.Errorf("rtree: size %d with no root", t.size)
		}
		return nil
	}
	n, err := t.check(t.root, true)
	if err != nil {
		return err
	}
	if n != t.size {
		return fmt.Errorf("rtree: size %d but %d reachable values", t.size, n)
	}
	if t.size > 0 {
		want := t.nodeRectAlloc(t.root)
		if !t.rootRect().Equal(want) {
			return fmt.Errorf("rtree: cached root MBR %v != computed %v", t.rootRect(), want)
		}
	}
	return nil
}

func (t *Tree[T]) check(ni int32, isRoot bool) (int, error) {
	m := t.meta(ni)
	n := int(m.n)
	if !isRoot && (n < minEntries || n > maxEntries) {
		return 0, fmt.Errorf("rtree: node with %d entries outside [%d, %d]", n, minEntries, maxEntries)
	}
	if m.leaf {
		if int(m.count) != n {
			return 0, fmt.Errorf("rtree: leaf count %d != %d entries", m.count, n)
		}
		return n, nil
	}
	total := 0
	for i := 0; i < n; i++ {
		ci := t.childAt(ni, i)
		sub := t.nodeRectAlloc(ci)
		if !t.rectAt(ni, i).ContainsRect(sub) {
			return 0, fmt.Errorf("rtree: entry MBR %v does not contain child MBR %v", t.rectAt(ni, i), sub)
		}
		c, err := t.check(ci, false)
		if err != nil {
			return 0, err
		}
		if c != int(t.meta(ci).count) {
			return 0, fmt.Errorf("rtree: child count %d != %d reachable", t.meta(ci).count, c)
		}
		total += c
	}
	if int(m.count) != total {
		return 0, fmt.Errorf("rtree: node count %d != %d reachable", m.count, total)
	}
	return total, nil
}
