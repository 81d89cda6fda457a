package core

import (
	"time"

	"probprune/internal/domination"
	"probprune/internal/geom"
	"probprune/internal/gf"
	"probprune/internal/uncertain"
)

// Session is an incremental IDCA computation. Run and RunIndexed drive
// a Session to completion internally; callers that want to interleave
// refinement with their own logic (render intermediate bounds, apply
// custom budgets, refine several targets round-robin) construct one
// with NewSession and call Step explicitly.
//
// A Session also implements the adaptive refinement heuristic the paper
// names as future work ("investigate further heuristics for the
// refinement process"): with Options.Adaptive set, candidates whose
// aggregated domination interval is already tight are not decomposed
// further, concentrating work on the candidates that still contribute
// uncertainty. Lemma 3 permits per-candidate decomposition depths, so
// correctness is unaffected.
type Session struct {
	res  *Result
	opts Options
	norm geom.Norm
	// sc holds the level state between Steps: Options.Scratch, or a
	// session-private arena when none was supplied.
	sc *Scratch
	// bSrc/rSrc/aSrcs supply the target, reference and influence-object
	// decompositions — session-private by default, the shared RefDecomps
	// of Options.SharedDecomps when a cache is installed. A Session with
	// shared sources is safe to drive concurrently with other sessions
	// sharing the same structures (they synchronize internally);
	// everything else here is session-private.
	bSrc  *RefDecomp
	rSrc  *RefDecomp
	aSrcs []*RefDecomp
	// tests counts the (A', B', R') triples put to the domination
	// criterion so far: the refinement's unit of work.
	tests int
	level int
	done  bool
}

// defaultAdaptiveEps is the interval width below which the adaptive
// heuristic freezes a candidate's decomposition.
const defaultAdaptiveEps = 1e-3

// NewSession prepares an incremental run: the complete-domination
// filter is executed immediately (a linear scan over db); refinement
// happens on Step.
func NewSession(db uncertain.Database, target, reference *uncertain.Object, opts Options) *Session {
	return newSession(target, reference, PartialFilterLinear(db, target, reference, opts), opts)
}

// NewSessionIndexed is NewSession with the filter pushed into an R-tree
// (see RunIndexed).
func NewSessionIndexed(index IndexTree, target, reference *uncertain.Object, opts Options) *Session {
	return newSession(target, reference, PartialFilterIndexed(index, target, reference, opts), opts)
}

// newSession adopts a filter outcome: canonical influence order,
// post-filter bounds, decomposition sources and the level-0 refinement
// state. It is the one finalization path shared by the monolithic
// filters and the merged one.
func newSession(target, reference *uncertain.Object, pf PartialFilter, opts Options) *Session {
	res := &Result{
		Target: target, Reference: reference, kMax: opts.KMax,
		CompleteDominators: pf.Dominators, Pruned: pf.Pruned, Influence: pf.Influence,
	}
	s := &Session{res: res, opts: opts, norm: opts.norm()}
	c := len(res.Influence)
	if c == 0 {
		// The count is the complete-dominator shift in every world.
		res.Bounds = []gf.Interval{gf.Exact(1)}
		res.CDF = []gf.Interval{gf.Exact(0), gf.Exact(1)}
		s.done = true
		return s
	}
	canonicalize(res.Influence)
	s.sc = opts.Scratch
	if s.sc == nil {
		s.sc = NewScratch()
	}
	hi := boundsHi(c, opts.KMax)
	s.sc.beginSession(c, hi)
	s.aSrcs = make([]*RefDecomp, c)
	ivs := grow(s.sc.ivs, c)
	for i, a := range res.Influence {
		s.aSrcs[i] = source(a, opts)
		// Each influence object contributes an interval no wider than
		// its existence probability allows.
		ivs[i] = gf.Interval{LB: 0, UB: a.ExistenceProb()}
		s.sc.candWidth[i] = ivs[i].UB
	}
	s.sc.ivs = ivs
	res.Bounds, res.CDF = newBounds(hi)
	s.sc.addBounds(ivs, opts.KMax, 1, res.Bounds, res.CDF)
	s.bSrc = source(target, opts)
	s.rSrc = source(reference, opts)
	return s
}

// Result returns the session's (live) result; it is updated in place by
// Step.
func (s *Session) Result() *Result { return s.res }

// Level returns the number of refinement steps executed so far.
func (s *Session) Level() int { return s.level }

// Done reports whether further Steps would be no-ops (converged,
// decided, or nothing to refine).
func (s *Session) Done() bool { return s.done }

// stopped evaluates Options.Stop on the current result and, when it
// fires, ends the session as decided.
func (s *Session) stopped() bool {
	if s.opts.Stop == nil || !s.opts.Stop(s.res) {
		return false
	}
	s.res.Decided = true
	s.done = true
	return true
}

// Step executes one refinement iteration of Algorithm 1 and reports
// whether the bounds can still improve. It does NOT consult
// Options.MaxIterations — the caller owns the budget — but it does
// honor Options.Stop and the convergence threshold.
//
// A step is incremental. Complete domination is monotone under
// shrinking regions, so a triple (A', B', R') the criterion decided at
// the previous level is decided the same way for all its children: the
// step visits only the children of pairs that still have undecided
// triples, tests only the children of those triples, and moves a child
// pair under which nothing is left undecided to the frozen accumulator.
// Frozen plus active is the Section IV-E sum over the whole
// 2^L × 2^L grid, which is never built.
func (s *Session) Step() bool {
	if s.done {
		return false
	}
	// Honor a Stop the filter bounds already satisfy without charging an
	// iteration; later steps ended on this same call.
	if s.level == 0 && s.stopped() {
		return false
	}
	start := time.Now()
	s.level++
	sc := s.sc
	lv := &sc.step
	lv.bParts, lv.bFirst = s.bSrc.levelWithChildren(s.level)
	lv.rParts, lv.rFirst = s.rSrc.levelWithChildren(s.level)
	c := len(s.aSrcs)
	lv.cands = grow(lv.cands, c)
	eps := s.opts.adaptiveEps()
	for i, t := range s.aSrcs {
		cl := candLevel{exist: t.Object().ExistenceProb()}
		// A candidate the heuristic froze stays at its level for good
		// (its aggregated width only shrinks), so its child map is the
		// identity from then on.
		if sc.aLevels[i] == s.level-1 && (!s.opts.Adaptive || sc.candWidth[i] > eps) {
			sc.aLevels[i] = s.level
			cl.parts, cl.first = t.levelWithChildren(s.level)
		} else {
			cl.parts = t.PartitionsAtLevel(sc.aLevels[i])
		}
		lv.cands[i] = cl
	}

	// Contiguous chunks of the parent list, one arena per goroutine, the
	// first chunk on this one; gathering in worker order keeps the result
	// deterministic for a fixed Parallelism.
	hi := boundsHi(c, s.opts.KMax)
	parents, next := &sc.levels[sc.cur], &sc.levels[1-sc.cur]
	workers := max(1, min(s.opts.Parallelism, len(parents.pairs)))
	for w := 1; w < workers; w++ {
		lo, end := w*len(parents.pairs)/workers, (w+1)*len(parents.pairs)/workers
		wsc := sc.worker(w - 1)
		wsc.beginStep(c, hi)
		sc.wg.Add(1)
		go func() {
			defer sc.wg.Done()
			s.refinePairs(parents, lo, end, &wsc.levels[0], wsc)
		}()
	}
	sc.beginStep(c, hi)
	s.refinePairs(parents, 0, len(parents.pairs)/workers, next, sc)
	sc.wg.Wait()
	for _, wsc := range sc.workers[:workers-1] {
		sc.gather(wsc, next)
	}
	sc.cur = 1 - sc.cur
	s.tests += sc.tests

	// Frozen so far plus still active is the level's sum. It becomes the
	// Result's bounds, which callers may retain across steps: allocated
	// per step, never arena-backed.
	addScaled(sc.settledB, sc.frozenB, 1)
	addScaled(sc.settledC, sc.frozenC, 1)
	bounds, cdf := newBounds(hi)
	addScaled(bounds, sc.settledB, 1)
	addScaled(bounds, sc.activeB, 1)
	addScaled(cdf, sc.settledC, 1)
	addScaled(cdf, sc.activeC, 1)
	clampAll(bounds)
	clampAll(cdf)
	s.res.Bounds, s.res.CDF = bounds, cdf
	copy(sc.candWidth, sc.widths)

	u := s.res.Uncertainty()
	s.res.Iterations = append(s.res.Iterations, IterStat{
		Level:       s.level,
		Duration:    time.Since(start),
		Uncertainty: u,
	})
	if s.stopped() {
		return false
	}
	if u <= convergenceEps {
		s.done = true
		return false
	}
	return true
}

// children returns the index range of partition p's children in the
// next level; a nil table is the identity map.
func children(first []int32, p int32) (lo, hi int32) {
	if first == nil {
		return p, p + 1
	}
	return first[p], first[p+1]
}

// refinePairs refines the parent pairs [lo, hi) one level: for every
// child pair (B', R') each influence object starts from the mass its
// parent already settled and puts only the children of the parent's
// undecided partitions to the criterion (Lemma 3 within the conditioned
// world set, Lemma 5); the resulting intervals feed the generating
// function, weighted by P(B')·P(R') (Section IV-E). A child pair with
// undecided partitions left is appended to out and counted into wsc's
// active accumulators; one without goes to the frozen accumulators and
// leaves no state behind.
func (s *Session) refinePairs(parents *levelState, lo, hi int, out *levelState, wsc *Scratch) {
	out.reset()
	lv := &s.sc.step
	c := len(lv.cands)
	crit, n, kMax := s.opts.Criterion, s.norm, s.opts.KMax
	ivs := wsc.ivs
	for p := lo; p < hi; p++ {
		pair := parents.pairs[p]
		settled := parents.cands[p*c : (p+1)*c]
		bLo, bHi := children(lv.bFirst, pair.b)
		rLo, rHi := children(lv.rFirst, pair.r)
		for bi := bLo; bi < bHi; bi++ {
			b := lv.bParts[bi]
			for ri := rLo; ri < rHi; ri++ {
				r := lv.rParts[ri]
				w := b.Prob * r.Prob
				candMark, undMark := len(out.cands), len(out.und)
				for i := range settled {
					st, cl := settled[i], &lv.cands[i]
					off := len(out.und)
					for _, ap := range parents.und[st.off : st.off+st.n] {
						aLo, aHi := children(cl.first, ap)
						for ai := aLo; ai < aHi; ai++ {
							a := &cl.parts[ai]
							if crit.Decide(n, a.MBR, b.MBR, r.MBR) {
								st.dom += a.Prob
							} else if crit.Decide(n, b.MBR, a.MBR, r.MBR) {
								st.sub += a.Prob
							} else {
								out.und = append(out.und, ai)
							}
						}
						wsc.tests += int(aHi - aLo)
					}
					st.off, st.n = int32(off), int32(len(out.und)-off)
					out.cands = append(out.cands, st)
					ivs[i] = domination.FromMass(cl.exist, st.dom, st.sub)
					if st.n > 0 {
						wsc.widths[i] += w * ivs[i].Width()
					}
				}
				if len(out.und) > undMark {
					out.pairs = append(out.pairs, activePair{b: bi, r: ri})
					wsc.addBounds(ivs, kMax, w, wsc.activeB, wsc.activeC)
				} else {
					out.cands = out.cands[:candMark]
					wsc.addBounds(ivs, kMax, w, wsc.frozenB, wsc.frozenC)
				}
			}
		}
	}
}

// gather appends a worker's share of the next level and of the step's
// accumulators to the session arena's.
func (sc *Scratch) gather(w *Scratch, next *levelState) {
	from := &w.levels[0]
	base := int32(len(next.und))
	next.pairs = append(next.pairs, from.pairs...)
	next.und = append(next.und, from.und...)
	for _, st := range from.cands {
		st.off += base
		next.cands = append(next.cands, st)
	}
	addScaled(sc.frozenB, w.frozenB, 1)
	addScaled(sc.frozenC, w.frozenC, 1)
	addScaled(sc.activeB, w.activeB, 1)
	addScaled(sc.activeC, w.activeC, 1)
	for i, x := range w.widths {
		sc.widths[i] += x
	}
	sc.tests += w.tests
}

// run drives the session for Options.MaxIterations steps (the Run entry
// points) and returns its result.
func (s *Session) run() *Result {
	for i := 0; i < s.opts.maxIterations() && s.Step(); i++ {
	}
	return s.res
}

// newBounds allocates a Result's point and CDF bound arrays for hi+1
// tracked counts, zeroed, in one block.
func newBounds(hi int) (bounds, cdf []gf.Interval) {
	buf := make([]gf.Interval, 2*hi+3)
	return buf[: hi+1 : hi+1], buf[hi+1:]
}

func addScaled(dst, src []gf.Interval, w float64) {
	for k := range dst {
		dst[k].LB += w * src[k].LB
		dst[k].UB += w * src[k].UB
	}
}

func clampAll(ivs []gf.Interval) {
	for i := range ivs {
		if ivs[i].LB < 0 {
			ivs[i].LB = 0
		}
		if ivs[i].UB > 1 {
			ivs[i].UB = 1
		}
		if ivs[i].UB < ivs[i].LB {
			ivs[i].UB = ivs[i].LB
		}
	}
}
