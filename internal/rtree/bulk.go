package rtree

import (
	"math"
	"slices"
	"sort"

	"probprune/internal/geom"
)

// This file implements Sort-Tile-Recursive (STR) bulk loading
// (Leutenegger et al., ICDE'97) and structural cloning. Bulk builds a
// packed tree in O(n log n) — one multi-key sort plus a linear packing
// pass per level — where n repeated Inserts cost O(n log n) tree
// descents WITH the quadratic split on every overflow. The packed tree
// is also better clustered: tiles are spatially coherent, so the
// domination filter prunes more subtrees at node granularity.

// BulkItem is one (rectangle, value) pair for Bulk.
type BulkItem[T comparable] struct {
	Rect  geom.Rect
	Value T
}

// Bulk builds a tree over items with the STR packing algorithm. The
// result satisfies the same invariants as an incrementally built tree
// (every non-root node holds between minEntries and maxEntries entries)
// and supports all mutations. Items are not retained; rectangles are
// copied into the tree's packed storage.
func Bulk[T comparable](items []BulkItem[T]) *Tree[T] {
	t := New[T]()
	if len(items) == 0 {
		return t
	}
	t.dim = items[0].Rect.Dim()

	// Leaf level: tile a permutation of the items and pack them into
	// leaves. Sorting int32 indices instead of the items themselves keeps
	// the stable sort's swaps pointer-free (no write barriers on
	// BulkItem's rectangle slices and value), which dominates bulk-load
	// time for pointer-valued trees; items are read through the
	// permutation when packing.
	ord := make([]int32, len(items))
	for i := range ord {
		ord[i] = int32(i)
	}
	keys := make([]float64, len(items))
	tileBy(ord, keys, 0, t.dim, func(i int32, d int) float64 {
		return rectCenter(items[i].Rect, d)
	})
	groups := splitEven(len(items), maxEntries)
	level := make([]int32, 0, len(groups))
	off := 0
	for _, g := range groups {
		ni := t.newNode(true)
		p := t.writable(ni)
		base := slot(ni, 0)
		for k := 0; k < g; k++ {
			it := &items[ord[off+k]]
			t.setRect(ni, k, it.Rect)
			p.vals[base+k] = it.Value
		}
		p.meta[ni&pageMask] = nodeMeta{leaf: true, n: int16(g), count: int32(g)}
		level = append(level, ni)
		off += g
	}

	// Upper levels: tile the nodes by their tight MBRs and pack.
	type upEntry struct {
		rect geom.Rect
		ni   int32
	}
	for len(level) > 1 {
		ups := make([]upEntry, len(level))
		for i, ni := range level {
			ups[i] = upEntry{rect: t.nodeRectAlloc(ni), ni: ni}
		}
		ord = ord[:len(ups)]
		for i := range ord {
			ord[i] = int32(i)
		}
		tileBy(ord, keys[:len(ups)], 0, t.dim, func(i int32, d int) float64 {
			return rectCenter(ups[i].rect, d)
		})
		groups := splitEven(len(ups), maxEntries)
		level = level[:0]
		off := 0
		for _, g := range groups {
			ni := t.newNode(false)
			p := t.writable(ni)
			base := slot(ni, 0)
			count := int32(0)
			for k := 0; k < g; k++ {
				u := ups[ord[off+k]]
				t.setRect(ni, k, u.rect)
				p.child[base+k] = u.ni
				count += t.meta(u.ni).count
			}
			p.meta[ni&pageMask] = nodeMeta{n: int16(g), count: count}
			level = append(level, ni)
			off += g
		}
	}
	t.root = level[0]
	t.size = len(items)
	t.refreshRootMBR()
	return t
}

// keyedSorter stable-sorts an index permutation by a precomputed
// parallel key array. Sorting through a concrete sort.Interface keeps
// comparisons and swaps compiled (no reflect-based swapper, no
// per-comparison closure dispatch), and swapping (int32, float64) pairs
// is write-barrier free; a stable sort's output is uniquely determined
// by the keys and the initial order, so the resulting permutation is
// identical to stably sorting the items themselves on the same keys.
type keyedSorter struct {
	keys []float64
	ord  []int32
}

func (k keyedSorter) Len() int           { return len(k.ord) }
func (k keyedSorter) Less(i, j int) bool { return k.keys[i] < k.keys[j] }
func (k keyedSorter) Swap(i, j int) {
	k.keys[i], k.keys[j] = k.keys[j], k.keys[i]
	k.ord[i], k.ord[j] = k.ord[j], k.ord[i]
}

// tileBy recursively orders the permutation ord into STR tiles: sort by
// the center coordinate of the current dimension, slice into slabs
// sized for an even spread of the remaining pages, and recurse on the
// next dimension within each slab. keys is scratch of len(ord) for the
// sort keys — computed once per pass (n calls to center instead of
// n log n from inside a comparison); center maps an original item index
// to its center coordinate.
func tileBy(ord []int32, keys []float64, dim, dims int, center func(i int32, d int) float64) {
	for i, oi := range ord {
		keys[i] = center(oi, dim)
	}
	sort.Stable(keyedSorter{keys: keys, ord: ord})
	if dim >= dims-1 || len(ord) <= maxEntries {
		return
	}
	pages := (len(ord) + maxEntries - 1) / maxEntries
	slabs := int(math.Ceil(math.Pow(float64(pages), 1/float64(dims-dim))))
	if slabs < 1 {
		slabs = 1
	}
	slabSize := (len(ord) + slabs - 1) / slabs
	for off := 0; off < len(ord); off += slabSize {
		end := off + slabSize
		if end > len(ord) {
			end = len(ord)
		}
		tileBy(ord[off:end], keys[off:end], dim+1, dims, center)
	}
}

func rectCenter(r geom.Rect, dim int) float64 {
	return (r.Min[dim] + r.Max[dim]) / 2
}

// splitEven partitions n items into the fewest groups of size <= max,
// sized as evenly as possible. For n > max the groups hold at least
// n/ceil(n/max) >= max/2 >= minEntries items, so packed nodes never
// underflow; a single group may be arbitrarily small only when it
// becomes the root.
func splitEven(n, max int) []int {
	g := (n + max - 1) / max
	base, rem := n/g, n%g
	out := make([]int, g)
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// Clone returns a structurally independent copy of the tree in time
// and space proportional to its page count, not its size: only the page
// table is copied, and the pages become shared copy-on-write. Both
// trees get fresh ownership tags, so neither owns a shared page and
// each copies a page on its first write to it; mutations on either tree
// never affect the other. This is what makes the store's per-commit
// snapshot detach cheap.
//
// Clone re-tags t, so it counts as a mutation of t for exclusivity —
// it must not run concurrently with another Clone or mutation of t —
// but readers of t are unaffected: they never read the tag, and t's
// contents do not change.
func (t *Tree[T]) Clone() *Tree[T] {
	return &Tree[T]{
		dim:     t.dim,
		size:    t.size,
		root:    t.root,
		nodes:   t.nodes,
		pages:   t.pages.Clone(),
		free:    slices.Clone(t.free),
		rootMBR: slices.Clone(t.rootMBR),
	}
}
