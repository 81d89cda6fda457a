package uncertain

import (
	"fmt"
	"sort"

	"probprune/internal/geom"
)

// This file keeps a pointer kd-tree as the in-test reference for the
// implicit DecompTree: one node per split, each owning a copy of its
// sample indices. FuzzDecompTree requires the two to agree bit for bit
// at every level.

// refTree is the lazily expanded kd-tree decomposition of one
// uncertain object.
type refTree struct {
	obj       *Object
	root      *refNode
	maxHeight int
}

type refNode struct {
	mbr         geom.Rect
	prob        float64
	idx         []int // sample indices into obj; owned by this node
	left, right *refNode
	expanded    bool
}

// newRefTree creates the decomposition tree for obj with the given
// height limit (<= 0 selects DefaultMaxHeight). The tree initially
// consists of the root — the whole uncertainty region — and expands on
// demand.
func newRefTree(obj *Object, maxHeight int) *refTree {
	if maxHeight <= 0 {
		maxHeight = DefaultMaxHeight
	}
	idx := make([]int, obj.NumSamples())
	for i := range idx {
		idx[i] = i
	}
	return &refTree{
		obj:       obj,
		maxHeight: maxHeight,
		root:      &refNode{mbr: obj.MBR.Clone(), prob: 1, idx: idx},
	}
}

// Object returns the decomposed object.
func (t *refTree) Object() *Object { return t.obj }

// MaxHeight returns the height limit of the tree.
func (t *refTree) MaxHeight() int { return t.maxHeight }

// PartitionsAtLevel returns the disjunctive decomposition at depth
// level: all nodes exactly level splits below the root, with leaves
// that cannot be split further standing in for their would-be
// descendants. Level 0 is the whole object. Levels beyond the height
// limit are clamped to it.
func (t *refTree) PartitionsAtLevel(level int) []Partition {
	parts, _ := t.LevelWithChildren(level)
	return parts
}

// LevelWithChildren returns the decomposition at depth level together
// with the first-child offset table that links it to the level above:
// the children of partition p of level−1 are parts[first[p]:first[p+1]]
// — two for a split node, one for an unsplittable leaf standing in for
// its descendants. Incremental refinement follows a parent's verdicts
// down to exactly its children through this table. first is nil where
// the map is the identity: at level 0, which has no parent, and beyond
// the height limit, where a level repeats the one above.
func (t *refTree) LevelWithChildren(level int) (parts []Partition, first []int32) {
	if level < 0 {
		level = 0
	}
	if level > t.maxHeight {
		parts, _ = t.LevelWithChildren(t.maxHeight)
		return parts, nil
	}
	t.collect(t.root, level, &parts, &first)
	if level > 0 {
		first = append(first, int32(len(parts)))
	}
	return parts, first
}

// collect appends the partitions depth splits below n to out. Every
// node it emits for, or recurses from, at depth 1 — and every leaf it
// meets earlier, which stands in at all deeper levels — is a partition
// of the level above, so the current length of out is recorded as that
// partition's first-child offset.
func (t *refTree) collect(n *refNode, depth int, out *[]Partition, first *[]int32) {
	if depth == 0 {
		*out = append(*out, Partition{MBR: n.mbr, Prob: n.prob})
		return
	}
	t.expand(n)
	if depth == 1 || n.left == nil {
		*first = append(*first, int32(len(*out)))
	}
	if n.left == nil { // unsplittable leaf
		*out = append(*out, Partition{MBR: n.mbr, Prob: n.prob})
		return
	}
	t.collect(n.left, depth-1, out, first)
	t.collect(n.right, depth-1, out, first)
}

// expand performs the median split of a node once, caching the result.
func (t *refTree) expand(n *refNode) {
	if n.expanded {
		return
	}
	n.expanded = true
	if len(n.idx) < 2 {
		return // single alternative: nothing to split
	}
	axis := widestAxis(n.mbr)
	if n.mbr.Extent(axis) == 0 {
		return // all samples coincide: degenerate region
	}
	coords, d := t.obj.Coords, t.obj.Dim()
	sort.Slice(n.idx, func(a, b int) bool {
		return coords[n.idx[a]*d+axis] < coords[n.idx[b]*d+axis]
	})
	cut := t.massMedian(n)
	if cut <= 0 || cut >= len(n.idx) {
		return // mass concentrated on one side; treat as leaf
	}
	n.left = t.newChild(n.idx[:cut])
	n.right = t.newChild(n.idx[cut:])
}

// massMedian returns the split position that divides the node's
// probability mass as evenly as possible (the median split of Section
// V). For uniform weights this is the middle of the sorted order, so
// each child carries exactly half the mass — P(X') = 0.5^level.
func (t *refTree) massMedian(n *refNode) int {
	if t.obj.Weights == nil {
		return len(n.idx) / 2
	}
	half := n.prob / 2
	acc := 0.0
	for i, id := range n.idx {
		acc += t.obj.Weights[id]
		if acc >= half {
			// Put the straddling sample on whichever side keeps the
			// halves more balanced, while keeping both sides non-empty.
			if i == 0 {
				return 1
			}
			if acc-half > half-(acc-t.obj.Weights[id]) {
				return i
			}
			return i + 1
		}
	}
	return len(n.idx) / 2
}

func (t *refTree) newChild(idx []int) *refNode {
	obj := t.obj
	// Grow the child MBR in place instead of unioning a fresh point-rect
	// per sample — one corner-pair allocation per node, not per sample.
	mbr := geom.PointRect(obj.Sample(idx[0]))
	prob := obj.Weight(idx[0])
	for _, id := range idx[1:] {
		for d, c := range obj.Sample(id) {
			if c < mbr.Min[d] {
				mbr.Min[d] = c
			}
			if c > mbr.Max[d] {
				mbr.Max[d] = c
			}
		}
		prob += obj.Weight(id)
	}
	// Copy the index slice so sibling re-sorts cannot alias.
	own := make([]int, len(idx))
	copy(own, idx)
	return &refNode{mbr: mbr, prob: prob, idx: own}
}

// CheckInvariants verifies the structural invariants of the levels up
// to maxLevel: masses sum to one, partitions nest inside the object
// MBR, and no partition is empty. It is exported for use by tests of
// packages that build on the decomposition.
func (t *refTree) CheckInvariants(maxLevel int) error {
	for level := 0; level <= maxLevel; level++ {
		parts := t.PartitionsAtLevel(level)
		if len(parts) == 0 {
			return fmt.Errorf("uncertain: level %d has no partitions", level)
		}
		mass := 0.0
		for _, p := range parts {
			if p.Prob <= 0 {
				return fmt.Errorf("uncertain: level %d has non-positive mass partition", level)
			}
			if !t.obj.MBR.ContainsRect(p.MBR) {
				return fmt.Errorf("uncertain: level %d partition %v escapes object MBR %v", level, p.MBR, t.obj.MBR)
			}
			mass += p.Prob
		}
		if diff := mass - 1; diff > 1e-9 || diff < -1e-9 {
			return fmt.Errorf("uncertain: level %d total mass %g != 1", level, mass)
		}
	}
	return nil
}
