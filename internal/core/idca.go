// Package core implements the paper's primary contribution: IDCA, the
// Iterative Domination Count Approximation (Algorithm 1).
//
// Given an uncertain database D, a target object B and an uncertain
// reference object R, IDCA bounds the PDF of the probabilistic
// domination count DomCount(B, R) — the number of database objects
// closer to R than B — and iteratively tightens the bounds until a stop
// criterion holds, all without integrating a single PDF:
//
//  1. Filter (complete domination, Section III-A): every object is
//     classified on whole uncertainty regions with the optimal
//     geometric criterion. Objects that dominate B in every possible
//     world shift the count; objects dominated by B in every world are
//     dropped; the rest form the influence set.
//  2. Refine (Sections IV–V): per iteration, B, R and all influence
//     objects are decomposed one kd-tree level deeper. For every pair
//     of partitions (B', R') — fixing B and R restores the mutual
//     independence of the candidate domination events (Lemma 5) — the
//     candidates' probability intervals (Lemma 3) feed an uncertain
//     generating function whose coefficients bound the conditional
//     domination count PDF (Lemma 4); the per-pair bounds combine by
//     the law of total probability (Section IV-E).
//
// The result is correct under possible-world semantics at every
// iteration: the true P(DomCount = k) provably lies within every
// reported interval.
package core

import (
	"sort"
	"time"

	"probprune/internal/domination"
	"probprune/internal/geom"
	"probprune/internal/gf"
	"probprune/internal/rtree"
	"probprune/internal/uncertain"
)

// Options configures an IDCA run. The zero value selects the paper's
// defaults: L2, the optimal domination criterion, full (untruncated)
// generating functions and six refinement iterations.
type Options struct {
	// Norm is the Lp norm; zero value selects L2.
	Norm geom.Norm
	// Criterion selects the complete-domination filter criterion;
	// geom.Optimal (zero value) is the paper's contribution, geom.MinMax
	// the baseline it is compared against in Figure 6.
	Criterion geom.Criterion
	// MaxIterations bounds the number of refinement iterations
	// (decomposition levels). <= 0 selects DefaultMaxIterations.
	MaxIterations int
	// KMax, when positive, truncates the generating functions to the
	// state needed for P(DomCount < KMax) — the O(k²·|Cand|)
	// optimization of Section VI for kNN/RkNN predicates. Zero computes
	// the full domination count PDF.
	KMax int
	// Stop, when non-nil, is evaluated after every iteration with the
	// current result; returning true ends refinement (the "domain- and
	// user-specific stop criterion" of Algorithm 1, e.g. a threshold
	// predicate becoming decidable).
	Stop func(*Result) bool
	// MaxHeight limits decomposition tree height; <= 0 selects the
	// uncertain package default.
	MaxHeight int
	// Parallelism > 1 refines the active (B', R') partition pairs on up
	// to that many goroutines. Results are deterministic for a fixed
	// value. The query engine consumes this knob at a higher level — as
	// its candidate worker count — and runs each candidate's pairs
	// sequentially.
	Parallelism int
	// SharedDecomps, when non-nil, shares every object decomposition —
	// operands and influence objects alike — across every run handed
	// the same cache: each object is decomposed at most once per cache
	// lifetime instead of once per run it appears in, and the bounds are
	// bit-identical either way. The query engine installs a fresh cache
	// per query.
	SharedDecomps *DecompCache
	// Adaptive enables the refinement heuristic: candidates whose
	// aggregated domination interval is narrower than AdaptiveEps stop
	// being decomposed further, concentrating work on the candidates
	// that still carry uncertainty (per-candidate depths are sound by
	// Lemma 3). Bounds may be marginally looser than the uniform-depth
	// refinement at equal iteration counts, never incorrect.
	Adaptive bool
	// AdaptiveEps is the width threshold of the adaptive heuristic;
	// zero selects a small default.
	AdaptiveEps float64
	// Scratch, when non-nil, supplies a reusable arena for the run's
	// working state (generating functions, interval buffers, the
	// refinement's level buffers and accumulators; with Parallelism > 1
	// the extra goroutines' arenas hang off it). Bounds are bit-identical
	// with and without it. A run or session owns its Scratch until its
	// last Step — never hand one to two live sessions — after which the
	// next run may reuse it. Results remain valid after their scratch is
	// reused — retained slices are never arena-backed.
	Scratch *Scratch
}

// DefaultMaxIterations is the refinement depth used when Options does
// not choose one; at this depth typical influence objects (1000
// samples) are decomposed into 64 partitions each.
const DefaultMaxIterations = 6

// convergenceEps is the residual uncertainty Σ_k (UB_k − LB_k) treated
// as "converged to zero": refinement stops once it drops to or below it.
const convergenceEps = 1e-9

// IterStat records one refinement iteration for the evaluation harness
// (Figures 6(b), 7 and 9 plot exactly these).
type IterStat struct {
	// Level is the decomposition depth of this iteration (1-based;
	// level 0 is the filter step).
	Level int
	// Duration is the wall-clock time the iteration took.
	Duration time.Duration
	// Uncertainty is Σ_k (UB_k − LB_k) after the iteration.
	Uncertainty float64
}

// Result is the state of an IDCA computation. It is updated in place
// after every iteration; Stop callbacks observe the intermediate
// states.
type Result struct {
	// Target and Reference are the objects the run was invoked with.
	Target, Reference *uncertain.Object
	// CompleteDominators counts objects that dominate Target w.r.t.
	// Reference in every possible world (they shift the count PDF).
	CompleteDominators int
	// Pruned counts objects discarded by the filter because Target
	// dominates them completely.
	Pruned int
	// Influence holds the objects whose domination relation remains
	// uncertain after the filter — the paper's influenceObjects.
	Influence []*uncertain.Object
	// Bounds[i] bounds P(DomCount(Target, Reference) = CountOffset()+i)
	// — see Bound for the absolute-count accessor. When Truncated is
	// set, only counts below KMax are bounded.
	Bounds []gf.Interval
	// CDF[i] bounds P(DomCount < CountOffset()+i); it has one entry
	// more than Bounds.
	CDF []gf.Interval
	// Iterations records per-iteration statistics; the filter step is
	// not included.
	Iterations []IterStat
	// Decided reports whether a Stop callback ended the run.
	Decided bool
	// kMax is the configured truncation (0 = none).
	kMax int
}

// CountOffset returns the smallest domination count with non-zero
// probability: the number of complete dominators.
func (r *Result) CountOffset() int { return r.CompleteDominators }

// MaxCount returns the largest domination count with non-zero
// probability.
func (r *Result) MaxCount() int { return r.CompleteDominators + len(r.Influence) }

// Bound returns the probability interval for P(DomCount = k) for an
// absolute count k, handling counts outside the tracked range.
func (r *Result) Bound(k int) gf.Interval {
	i := k - r.CompleteDominators
	if i < 0 || k > r.MaxCount() {
		return gf.Interval{}
	}
	if i >= len(r.Bounds) {
		// Truncated run: counts at or above KMax are not bounded.
		return gf.Interval{LB: 0, UB: 1}
	}
	return r.Bounds[i]
}

// CDFBound returns the probability interval for P(DomCount < k) for an
// absolute count k.
func (r *Result) CDFBound(k int) gf.Interval {
	i := k - r.CompleteDominators
	if i <= 0 {
		return gf.Interval{} // complete dominators always count: P = 0
	}
	if k > r.MaxCount() {
		return gf.Interval{LB: 1, UB: 1}
	}
	if i >= len(r.CDF) {
		return gf.Interval{LB: 0, UB: 1}
	}
	return r.CDF[i]
}

// Uncertainty returns the accumulated approximation uncertainty
// Σ_k (UB_k − LB_k) of the current bounds — the quality metric of
// Figures 6(b) and 7.
func (r *Result) Uncertainty() float64 {
	sum := 0.0
	for _, iv := range r.Bounds {
		sum += iv.Width()
	}
	return sum
}

// Run executes IDCA with a linear filter scan over db. Target must not
// be nil; reference may equal an object in db (it is excluded from the
// count, as is the target itself).
func Run(db uncertain.Database, target, reference *uncertain.Object, opts Options) *Result {
	return NewSession(db, target, reference, opts).run()
}

// RunIndexed executes IDCA with the complete-domination filter pushed
// into an R-tree over the database objects' MBRs: subtrees whose node
// MBR is already decided are counted or pruned wholesale without
// visiting their objects (the index integration of Section VIII).
func RunIndexed(index *rtree.Tree[*uncertain.Object], target, reference *uncertain.Object, opts Options) *Result {
	return NewSessionIndexed(index, target, reference, opts).run()
}

// Filter runs only the complete-domination filter step and returns the
// resulting classification — what Figure 6(a) measures.
func Filter(db uncertain.Database, target, reference *uncertain.Object, opts Options) *Result {
	return NewSession(db, target, reference, opts).res
}

// FilterIndexed runs only the complete-domination filter step through
// an R-tree, pruning decided subtrees wholesale.
func FilterIndexed(index *rtree.Tree[*uncertain.Object], target, reference *uncertain.Object, opts Options) *Result {
	return NewSessionIndexed(index, target, reference, opts).res
}

func (o *Options) norm() geom.Norm {
	if !o.Norm.Valid() {
		return geom.L2
	}
	return o.Norm
}

func (o *Options) maxIterations() int {
	if o.MaxIterations <= 0 {
		return DefaultMaxIterations
	}
	return o.MaxIterations
}

func (o *Options) adaptiveEps() float64 {
	if o.AdaptiveEps <= 0 {
		return defaultAdaptiveEps
	}
	return o.AdaptiveEps
}

// IndexTree is the R-tree type the indexed entry points accept.
type IndexTree = *rtree.Tree[*uncertain.Object]

// PartialFilterIndexed classifies every object of one partition through
// its R-tree, deciding whole subtrees wholesale where the node MBR
// already settles the domination relation (the index integration of
// Section VIII) — the filter of RunIndexed, and an engine's per-cut
// scatter step.
func PartialFilterIndexed(index IndexTree, target, reference *uncertain.Object, opts Options) PartialFilter {
	var pf PartialFilter
	n := opts.norm()
	b, r := target.MBR, reference.MBR
	// takeDominators marks the subtree currently emitted via
	// TakeSubtree as completely dominating: its objects inherit the
	// node-level verdict and skip re-classification, but each one still
	// passes the existence check — an existentially uncertain dominator
	// belongs to the influence set, not the count shift, so dominating
	// subtrees cannot be counted wholesale (Walk is a sequential DFS;
	// the flag is reset on every node callback).
	takeDominators := false
	index.Walk(
		func(mbr geom.Rect, count int) rtree.WalkAction {
			takeDominators = false
			switch domination.Classify(n, opts.Criterion, mbr, b, r) {
			case domination.DominatesTarget:
				// The whole subtree dominates — unless the target or the
				// reference object could live inside it, in which case we
				// must descend to exclude them by identity. (A subtree
				// containing the target always overlaps it and can never
				// dominate, so only the reference needs the check in
				// practice; both are tested for symmetry.)
				if mbr.ContainsRect(b) || mbr.ContainsRect(r) {
					return rtree.Descend
				}
				takeDominators = true
				return rtree.TakeSubtree
			case domination.DominatedByTarget:
				// Dominated objects are pruned regardless of existence:
				// the whole subtree is discarded by count.
				if mbr.ContainsRect(b) || mbr.ContainsRect(r) {
					return rtree.Descend
				}
				pf.Pruned += count
				return rtree.SkipSubtree
			default:
				return rtree.Descend
			}
		},
		func(_ geom.Rect, a *uncertain.Object) {
			if a == target || a == reference {
				return
			}
			if takeDominators {
				if a.ExistenceProb() < 1 {
					// Dominates only in the worlds where it exists; it
					// cannot shift the count (see classifyInto).
					pf.Influence = append(pf.Influence, a)
				} else {
					pf.Dominators++
				}
				return
			}
			classifyInto(&pf, n, opts.Criterion, a, target, reference)
		},
	)
	return pf
}

func classifyInto(pf *PartialFilter, n geom.Norm, crit geom.Criterion, a, target, reference *uncertain.Object) {
	switch ClassifyRole(n, crit, a.MBR, a.ExistenceProb(), target.MBR, reference.MBR) {
	case RoleDominator:
		pf.Dominators++
	case RolePruned:
		pf.Pruned++
	default:
		pf.Influence = append(pf.Influence, a)
	}
}

// canonicalize brings the influence set into canonical (object ID)
// order. Interval arithmetic in the refinement loop accumulates in
// influence order, so floating-point results depend on it;
// canonicalizing makes every filter path — linear scan, any R-tree
// shape, bulk-loaded or incrementally mutated — produce bit-identical
// bounds for the same database state. (Objects sharing an ID keep their
// traversal order; unique IDs, the database convention, guarantee full
// canonicity.)
func canonicalize(influence []*uncertain.Object) {
	// Skip the sort when the set is already canonical — merged filter
	// outcomes (MergePartials) arrive sorted, so a run pays one O(I)
	// scan here instead of a second O(I log I) sort.
	for i := 1; i < len(influence); i++ {
		if influence[i].ID < influence[i-1].ID {
			sort.SliceStable(influence, func(i, j int) bool {
				return influence[i].ID < influence[j].ID
			})
			return
		}
	}
}

// boundsHi returns the largest tracked relative count for c candidates
// under truncation kMax.
func boundsHi(c, kMax int) int {
	if kMax > 0 && kMax-1 < c {
		return kMax - 1
	}
	return c
}
