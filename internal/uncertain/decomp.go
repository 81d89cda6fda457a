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
// uncertain object, stored implicitly: every partition is a contiguous
// range of one sample permutation (a split sorts its range in place and
// cuts it in two), and each level is packed into one partition array
// and one coordinate array beside its child offsets. A DecompTree is
// not safe for concurrent use; core.RefDecomp shares one under a lock.
type DecompTree struct {
	obj       *Object
	maxHeight int
	perm      []int32
	levels    []decompLevel
	// ranges bounds the deepest level's partitions: partition p is
	// perm[ranges[p]:ranges[p+1]].
	ranges []int32
	// settled is set once a level split nothing: all deeper levels
	// repeat the deepest one.
	settled bool
}

// decompLevel is one materialized level: its partitions and the
// first-child offsets into it from the level above (nil at level 0).
type decompLevel struct {
	parts []Partition
	first []int32
}

// NewDecompTree creates the decomposition tree for obj with the given
// height limit (<= 0 selects DefaultMaxHeight). The tree initially
// consists of the root — the whole uncertainty region — and expands on
// demand.
func NewDecompTree(obj *Object, maxHeight int) *DecompTree {
	if maxHeight <= 0 {
		maxHeight = DefaultMaxHeight
	}
	n := obj.NumSamples()
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	root := []Partition{packed(make([]float64, 2*obj.Dim()), 0, Partition{MBR: obj.MBR, Prob: 1})}
	return &DecompTree{
		obj:       obj,
		maxHeight: maxHeight,
		perm:      perm,
		levels:    []decompLevel{{parts: root}},
		ranges:    []int32{0, int32(n)},
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
// limit are clamped to it. The slice is shared and read-only.
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
// the map is the identity: at level 0, which has no parent, and where a
// level repeats the one above (the same slice) — from the first level
// in which nothing splits, and beyond the height limit.
func (t *DecompTree) LevelWithChildren(level int) (parts []Partition, first []int32) {
	if level > t.maxHeight {
		parts, _ = t.LevelWithChildren(t.maxHeight)
		return parts, nil
	}
	level = max(level, 0)
	for len(t.levels) <= level && !t.settled {
		t.grow()
	}
	if level >= len(t.levels) {
		return t.levels[len(t.levels)-1].parts, nil
	}
	lv := t.levels[level]
	return lv.parts, lv.first
}

// grow materializes the level below the deepest one. A partition that
// was its parent's only child is a leaf for good; every other one is
// tried once. A level in which nothing splits settles the tree.
func (t *DecompTree) grow() {
	up := t.levels[len(t.levels)-1]
	n := len(up.parts)
	first := make([]int32, n+1)
	ranges := make([]int32, 1, 2*n+1)
	sorter := &axisSorter{coords: t.obj.Coords, dim: t.obj.Dim()}
	q := 0 // the parent of partition p in the level above
	for p, part := range up.parts {
		first[p] = int32(len(ranges) - 1)
		for up.first != nil && up.first[q+1] <= int32(p) {
			q++
		}
		lo, hi := t.ranges[p], t.ranges[p+1]
		if up.first == nil || up.first[q+1]-up.first[q] == 2 { // not a leaf yet
			if cut := t.split(sorter, part, lo, hi); cut > lo {
				ranges = append(ranges, cut)
			}
		}
		ranges = append(ranges, hi)
	}
	first[n] = int32(len(ranges) - 1)
	if int(first[n]) == n {
		t.settled = true
		return
	}
	dim := t.obj.Dim()
	parts := make([]Partition, first[n])
	flat := make([]float64, 2*dim*len(parts))
	for p, part := range up.parts {
		lo, hi := first[p], first[p+1]
		if hi-lo == 1 {
			parts[lo] = packed(flat, int(lo), part)
			continue
		}
		for c := lo; c < hi; c++ {
			parts[c] = t.bound(flat, int(c), t.perm[ranges[c]:ranges[c+1]])
		}
	}
	t.levels = append(t.levels, decompLevel{parts: parts, first: first})
	t.ranges = ranges
}

// split sorts partition part's range perm[lo:hi] along the widest axis
// of its MBR and returns the mass-median cut, or lo for a leaf: one
// sample, a zero-extent region, or all mass on one side.
func (t *DecompTree) split(s *axisSorter, part Partition, lo, hi int32) int32 {
	if hi-lo < 2 {
		return lo
	}
	s.axis = widestAxis(part.MBR)
	if part.MBR.Extent(s.axis) == 0 {
		return lo
	}
	s.idx = t.perm[lo:hi]
	sort.Sort(s)
	cut := t.massMedian(s.idx, part.Prob)
	if cut <= 0 || cut >= len(s.idx) {
		return lo
	}
	return lo + int32(cut)
}

// massMedian returns the split position in the sorted samples idx that
// divides their mass prob as evenly as possible (the median split of
// Section V). For uniform weights this is the middle of the sorted
// order, so each child carries exactly half the mass — P(X') = 0.5^level.
func (t *DecompTree) massMedian(idx []int32, prob float64) int {
	w := t.obj.Weights
	if w == nil {
		return len(idx) / 2
	}
	half := prob / 2
	acc := 0.0
	for i, id := range idx {
		acc += w[id]
		if acc >= half {
			// Put the straddling sample on whichever side keeps the
			// halves more balanced, while keeping both sides non-empty.
			if i == 0 {
				return 1
			}
			if acc-half > half-(acc-w[id]) {
				return i
			}
			return i + 1
		}
	}
	return len(idx) / 2
}

// bound returns the partition of the samples idx with its MBR in slot
// c of flat. The MBR grows by < and > tests in permutation order, so of
// a −0 and a +0 on a bound the first sample's wins.
func (t *DecompTree) bound(flat []float64, c int, idx []int32) Partition {
	o := t.obj
	r := rectAt(flat, c, o.Dim())
	copy(r.Min, o.Sample(int(idx[0])))
	copy(r.Max, r.Min)
	prob := o.Weight(int(idx[0]))
	for _, id := range idx[1:] {
		for d, x := range o.Sample(int(id)) {
			if x < r.Min[d] {
				r.Min[d] = x
			}
			if x > r.Max[d] {
				r.Max[d] = x
			}
		}
		prob += o.Weight(int(id))
	}
	return Partition{MBR: r, Prob: prob}
}

// packed returns a copy of part whose MBR is slot c of flat.
func packed(flat []float64, c int, part Partition) Partition {
	r := rectAt(flat, c, part.MBR.Dim())
	copy(r.Min, part.MBR.Min)
	copy(r.Max, part.MBR.Max)
	return Partition{MBR: r, Prob: part.Prob}
}

// rectAt returns slot c of a level's packed corner coordinates.
func rectAt(flat []float64, c, dim int) geom.Rect {
	off := 2 * c * dim
	return geom.Rect{Min: flat[off : off+dim : off+dim], Max: flat[off+dim : off+2*dim : off+2*dim]}
}

// axisSorter orders sample indices by one coordinate. sort.Sort runs
// the same pdqsort as sort.Slice, so ties land as a sort.Slice would
// put them, without its allocations per call.
type axisSorter struct {
	idx       []int32
	coords    []float64
	dim, axis int
}

func (s *axisSorter) Len() int { return len(s.idx) }

func (s *axisSorter) Less(a, b int) bool {
	return s.coords[int(s.idx[a])*s.dim+s.axis] < s.coords[int(s.idx[b])*s.dim+s.axis]
}

func (s *axisSorter) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

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
