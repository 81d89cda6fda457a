package core

import (
	"sync"

	"probprune/internal/geom"
	"probprune/internal/gf"
	"probprune/internal/uncertain"
)

// Scratch is a reusable arena for everything an IDCA run needs beyond
// its Result: the generating function expanded per (B', R') partition
// pair, the per-candidate interval buffers, the two ping-pong level
// buffers that carry the undecided part of the refinement from one
// level to the next, and the per-level accumulators. One warm Scratch
// makes the refinement loop allocation-free; the query layer keeps a
// pool of them and installs one per worker via Options.Scratch.
//
// A Session keeps its level state here between Steps, so a Scratch
// belongs to one run or session from its creation until its last Step;
// after that it may serve the next. Every slice that outlives a run
// (Result bounds, influence sets, iteration stats) is freshly
// allocated, never scratch-backed, so results stay valid after the
// arena moves on. Bounds are bit-identical with and without a Scratch.
type Scratch struct {
	ugf     gf.UGF
	ivs     []gf.Interval // one interval per influence object, current pair
	factors []gf.Interval // ivs without the certain ones
	step    stepLevel     // the current step's input

	// Session state, kept from one Step to the next. levels[cur] holds
	// the active pairs of the current level; a step writes the next level
	// into the other buffer and flips. settledB/settledC accumulate
	// weight × bounds of the (B', R') pairs under which every influence
	// object is decided: such a pair is exact for good — all its
	// descendants inherit the same verdicts — so it is added once and
	// never split again. aLevels is the decomposition level per
	// influence object (all equal to the session's level without the
	// adaptive heuristic), candWidth its aggregated interval width after
	// the last step, the heuristic's signal.
	levels             [2]levelState
	cur                int
	settledB, settledC []gf.Interval
	aLevels            []int
	candWidth          []float64

	// Per-step accumulators (see Session.refinePairs): the bounds of the
	// pairs that froze in this step, of those still active, the widths
	// and the number of domination tests.
	frozenB, frozenC []gf.Interval
	activeB, activeC []gf.Interval
	widths           []float64
	tests            int
	// kernel is the domination predicate of the (B', R') pair being
	// refined; its term buffer is kept across pairs and runs.
	kernel geom.PairKernel

	// workers are the arenas of the extra goroutines a
	// Parallelism > 1 step runs, wg what the step waits for them on; each
	// also collects its chunk's next level in levels[0].
	workers []*Scratch
	wg      sync.WaitGroup
}

// levelState is the undecided part of one refinement level: the (B', R')
// pairs under which some influence object still has partitions the
// domination criterion decides neither way, each with one candState per
// influence object.
type levelState struct {
	pairs []activePair
	cands []candState // len(pairs) × influence objects, pair-major
	und   []int32     // undecided A partition indices, referenced by cands
}

// activePair names a (B', R') pair by partition index at its level.
type activePair struct{ b, r int32 }

// candState is what one influence object has settled under one pair:
// the probability mass of its partitions that dominate (dom) and are
// dominated (sub) for every location in the pair — verdicts all their
// descendants inherit — and the partitions still undecided,
// und[off : off+n] of the level's table.
type candState struct {
	dom, sub float64
	off, n   int32
}

// stepLevel is the read-only input of one step: the new level's
// partitions of B, R and every influence object, each with the
// first-child table that maps the previous level onto it (nil =
// identity).
type stepLevel struct {
	bParts, rParts []uncertain.Partition
	bFirst, rFirst []int32
	cands          []candLevel
}

// candLevel is one influence object's side of a step: its partitions at
// its current level, the first-child table from the level the previous
// step used (nil = same level, identity), its existence probability.
type candLevel struct {
	parts []uncertain.Partition
	first []int32
	exist float64
}

// NewScratch returns an empty arena; buffers grow on first use and are
// retained across runs.
func NewScratch() *Scratch { return &Scratch{} }

// reset empties the level state for appending.
func (l *levelState) reset() {
	l.pairs, l.cands, l.und = l.pairs[:0], l.cands[:0], l.und[:0]
}

// grow returns buf resized to n, reallocating only when it is too
// small. Contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// beginSession installs the level-0 state for c influence objects and
// hi+1 tracked counts: one undecided (A, B, R) triple per object under
// the single pair of whole regions, nothing settled.
func (sc *Scratch) beginSession(c, hi int) {
	root := &sc.levels[sc.cur]
	root.reset()
	root.pairs = append(root.pairs, activePair{})
	for i := 0; i < c; i++ {
		root.cands = append(root.cands, candState{off: int32(i), n: 1})
		root.und = append(root.und, 0)
	}
	sc.settledB, sc.settledC = grow(sc.settledB, hi+1), grow(sc.settledC, hi+2)
	sc.aLevels, sc.candWidth = grow(sc.aLevels, c), grow(sc.candWidth, c)
	clear(sc.settledB)
	clear(sc.settledC)
	clear(sc.aLevels)
}

// beginStep sizes and zeroes the per-step accumulators for c influence
// objects and hi+1 tracked counts.
func (sc *Scratch) beginStep(c, hi int) {
	sc.ivs = grow(sc.ivs, c)
	sc.frozenB, sc.activeB = grow(sc.frozenB, hi+1), grow(sc.activeB, hi+1)
	sc.frozenC, sc.activeC = grow(sc.frozenC, hi+2), grow(sc.activeC, hi+2)
	sc.widths = grow(sc.widths, c)
	clear(sc.frozenB)
	clear(sc.frozenC)
	clear(sc.activeB)
	clear(sc.activeC)
	clear(sc.widths)
	sc.tests = 0
}

// worker returns the arena of extra goroutine w (0-based).
func (sc *Scratch) worker(w int) *Scratch {
	for len(sc.workers) <= w {
		sc.workers = append(sc.workers, NewScratch())
	}
	return sc.workers[w]
}

// addBounds adds w × the bounds of one pair's generating function to
// accB (point bounds) and accC (CDF bounds): the Section IV-E weighted
// combination, one term. Certain factors never enter the product: a
// [0,0] factor leaves every coefficient as it is and a [1,1] factor
// shifts the count by one, so the first kind is skipped and the second
// becomes an offset, with the truncation reduced to match. The bounds
// are read in one pass over the counts, with running sums of the UGF's
// terms, by the formulas of gf.UGF's Bound and CDFBound.
func (sc *Scratch) addBounds(ivs []gf.Interval, kMax int, w float64, accB, accC []gf.Interval) {
	shift := 0
	factors := sc.factors[:0]
	for _, iv := range ivs {
		switch {
		case iv.UB == 0:
		case iv.LB == 1:
			shift++
		default:
			factors = append(factors, iv)
		}
	}
	sc.factors = factors
	if kMax > 0 {
		if shift >= kMax {
			return // every tracked count is impossible under this pair
		}
		kMax -= shift
	}
	f := &sc.ugf
	f.Reset(kMax)
	f.MultiplyAll(factors)
	var lt, ltXY float64 // P(X < j) and P(X+Y < j)
	for j := 0; shift+j < len(accC); j++ {
		ub := min(lt, 1)
		accC[shift+j].LB += w * min(ltXY, ub)
		accC[shift+j].UB += w * ub
		x, xy, x0 := f.Terms(j)
		if k := shift + j; k < len(accB) && j <= f.N() {
			accB[k].LB += w * x0
			accB[k].UB += w * min(max(lt+x-ltXY, x0), 1)
		}
		lt, ltXY = lt+x, ltXY+xy
	}
}
