package uncertain

import (
	"fmt"
	"sort"

	"probprune/internal/geom"
)

// This file implements the object decomposition of Section V of the
// paper: each uncertain object is iteratively split by a
// median-split-based bisection method, and the resulting partitions are
// organized hierarchically in a kd-tree. Every node represents a
// subregion X' of the object with exactly known probability mass
// P(x ∈ X'); for median splits on equally weighted samples that mass is
// 0.5^level, exactly as the paper notes. The tree height is limited —
// the paper's trade-off between approximation quality and cost.

// Partition is one subregion of a decomposed uncertain object: a tight
// bounding rectangle and the exact probability that the object is
// located inside it. Partitions of one level are disjoint in
// probability (they partition the sample set), which is what Lemma 1
// requires.
type Partition struct {
	MBR  geom.Rect
	Prob float64
}

// DefaultMaxHeight bounds decomposition depth when the caller does not
// choose one. With 1000 samples per object, ten levels reach
// single-sample leaves; deeper trees add no information.
const DefaultMaxHeight = 24

// DecompTree is the lazily expanded kd-tree decomposition of one
// uncertain object.
type DecompTree struct {
	obj       *Object
	root      *decompNode
	maxHeight int
}

type decompNode struct {
	mbr         geom.Rect
	prob        float64
	idx         []int // indices into obj.Samples; owned by this node
	left, right *decompNode
	expanded    bool
}

// NewDecompTree creates the decomposition tree for obj with the given
// height limit (<= 0 selects DefaultMaxHeight). The tree initially
// consists of the root — the whole uncertainty region — and expands on
// demand.
func NewDecompTree(obj *Object, maxHeight int) *DecompTree {
	if maxHeight <= 0 {
		maxHeight = DefaultMaxHeight
	}
	idx := make([]int, len(obj.Samples))
	for i := range idx {
		idx[i] = i
	}
	return &DecompTree{
		obj:       obj,
		maxHeight: maxHeight,
		root:      &decompNode{mbr: obj.MBR.Clone(), prob: 1, idx: idx},
	}
}

// Object returns the decomposed object.
func (t *DecompTree) Object() *Object { return t.obj }

// MaxHeight returns the height limit of the tree.
func (t *DecompTree) MaxHeight() int { return t.maxHeight }

// PartitionsAtLevel returns the disjunctive decomposition at depth
// level: all nodes exactly level splits below the root, with leaves
// that cannot be split further standing in for their would-be
// descendants. Level 0 is the whole object. Levels beyond the height
// limit are clamped to it.
func (t *DecompTree) PartitionsAtLevel(level int) []Partition {
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
func (t *DecompTree) LevelWithChildren(level int) (parts []Partition, first []int32) {
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
func (t *DecompTree) collect(n *decompNode, depth int, out *[]Partition, first *[]int32) {
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
func (t *DecompTree) expand(n *decompNode) {
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
	obj := t.obj
	sort.Slice(n.idx, func(a, b int) bool {
		return obj.Samples[n.idx[a]][axis] < obj.Samples[n.idx[b]][axis]
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
func (t *DecompTree) massMedian(n *decompNode) int {
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

func (t *DecompTree) newChild(idx []int) *decompNode {
	obj := t.obj
	// Grow the child MBR in place instead of unioning a fresh point-rect
	// per sample — one corner-pair allocation per node, not per sample.
	mbr := geom.PointRect(obj.Samples[idx[0]])
	prob := obj.Weight(idx[0])
	for _, id := range idx[1:] {
		s := obj.Samples[id]
		for d := range s {
			if s[d] < mbr.Min[d] {
				mbr.Min[d] = s[d]
			}
			if s[d] > mbr.Max[d] {
				mbr.Max[d] = s[d]
			}
		}
		prob += obj.Weight(id)
	}
	// Copy the index slice so sibling re-sorts cannot alias.
	own := make([]int, len(idx))
	copy(own, idx)
	return &decompNode{mbr: mbr, prob: prob, idx: own}
}

// PackPartitions returns a copy of parts whose MBR corner coordinates
// live in one contiguous backing array — one allocation per level
// instead of per cell. The refinement loop iterates a whole level's
// MBRs per (B', R') pair, so contiguity turns the pointer-chasing walk
// over scattered tree-node rectangles into a linear scan. Values are
// copied verbatim; callers treat the result as read-only, like any
// shared partition slice.
func PackPartitions(parts []Partition) []Partition {
	if len(parts) == 0 {
		return parts
	}
	dim := parts[0].MBR.Dim()
	flat := make([]float64, 2*dim*len(parts))
	out := make([]Partition, len(parts))
	off := 0
	for i, p := range parts {
		min := flat[off : off+dim : off+dim]
		max := flat[off+dim : off+2*dim : off+2*dim]
		copy(min, p.MBR.Min)
		copy(max, p.MBR.Max)
		out[i] = Partition{MBR: geom.Rect{Min: min, Max: max}, Prob: p.Prob}
		off += 2 * dim
	}
	return out
}

func widestAxis(r geom.Rect) int {
	best, bestExt := 0, -1.0
	for i := range r.Min {
		if e := r.Extent(i); e > bestExt {
			best, bestExt = i, e
		}
	}
	return best
}

// CheckInvariants verifies the structural invariants of the levels up
// to maxLevel: masses sum to one, partitions nest inside the object
// MBR, and no partition is empty. It is exported for use by tests of
// packages that build on the decomposition.
func (t *DecompTree) CheckInvariants(maxLevel int) error {
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
