// Package query evaluates the probabilistic similarity queries of
// Section VI of the paper on top of the IDCA domination-count bounds:
//
//   - probabilistic inverse ranking (Corollary 3),
//   - probabilistic threshold k-nearest-neighbor queries (Corollary 4),
//   - probabilistic threshold reverse kNN queries (Corollary 5),
//   - expected-rank computation and ranking (Corollary 6).
//
// All queries share one structure: the predicate reduces to tail or
// point probabilities of DomCount, IDCA refines bounds iteratively, and
// a threshold predicate stops refinement as soon as the bounds decide
// it — the filter-refinement strategy the paper's Figure 8 measures.
//
// Every multi-candidate query runs its per-candidate IDCA runs on the
// parallel executor (see executor.go): Options.Parallelism worker
// goroutines (default GOMAXPROCS), one decomposition cache
// (core.DecompCache) sharing the kd-splits of the query object and of
// every influence object across all runs, and a context for
// cancellation and deadlines. Results are deterministic and identical
// to a sequential evaluation regardless of worker count.
//
// Every query is a method of Snapshot, the database at one version:
// each takes a context and returns an error, which is how a query
// object of another dimension is refused (see CheckDim).
package query

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/gf"
	"probprune/internal/obs"
	"probprune/internal/uncertain"
)

// CheckDim reports an error when o's dimension differs from the
// database's: distances across dimensions are undefined, so every query
// entry refuses such a query object instead of evaluating it. An empty
// database accepts any dimension.
func (sn *Snapshot) CheckDim(o *uncertain.Object) error {
	if d := sn.dim(); d != 0 && o.Dim() != d {
		return fmt.Errorf("query: object %d has %d dimensions, the database holds %d-dimensional objects", o.ID, o.Dim(), d)
	}
	return nil
}

// dim returns the dimension of the indexed objects, 0 when the snapshot
// has none.
func (sn *Snapshot) dim() int {
	for _, sh := range sn.cuts() {
		if d := sh.index.Dim(); d != 0 {
			return d
		}
	}
	return 0
}

// Match is one candidate's outcome in a threshold query.
type Match struct {
	// Object is the candidate.
	Object *uncertain.Object
	// Prob bounds the query-predicate probability for the candidate
	// (e.g. P(B is a kNN of Q) for KNN queries).
	Prob gf.Interval
	// IsResult reports whether the candidate qualifies (probability at
	// least the query threshold). Only meaningful when Decided.
	IsResult bool
	// Decided reports whether the bounds decided the predicate before
	// the iteration budget ran out. Undecided candidates are returned
	// with their final bounds so callers can present a confidence value
	// (Section V's discussion).
	Decided bool
	// Iterations is the number of refinement iterations spent.
	Iterations int
}

// run executes one IDCA run on the merged filter outcome of the
// snapshot's cuts (see filter). Merging is exact, so the result is
// bit-identical at any shard count.
func (sn *Snapshot) run(target, reference *uncertain.Object, opts core.Options) *core.Result {
	if opts.Scratch == nil {
		// Check a pooled arena out for the duration of the run. The run
		// completes before return and a Result never retains
		// arena-backed slices, so the scratch is quiescent when it goes
		// back to the pool.
		sc := scratchPool.Get().(*core.Scratch)
		opts.Scratch = sc
		defer scratchPool.Put(sc)
	}
	return core.RunMerged(target, reference, sn.filter(target, reference, opts), opts)
}

// newSession prepares an incremental IDCA run on the same filter
// outcome as run — the session-based queries (TopKNN) go through here.
func (sn *Snapshot) newSession(target, reference *uncertain.Object, opts core.Options) *core.Session {
	if opts.Scratch == nil {
		// A session outlives this call and is stepped at the caller's
		// pace (possibly interleaved with other live sessions), so it
		// gets a private arena rather than a pooled one: reused across
		// its own Steps, garbage-collected with the session.
		opts.Scratch = core.NewScratch()
	}
	return core.NewSessionMerged(target, reference, sn.filter(target, reference, opts), opts)
}

// ThresholdStop builds the IDCA stop criterion for a tail predicate
// P(DomCount < k) vs threshold tau: refinement ends as soon as the
// bounds decide the predicate either way. It is the stop criterion all
// threshold queries in this package install, exported for harnesses
// that drive core.Run directly (the Figure 8 experiment).
func ThresholdStop(k int, tau float64) func(*core.Result) bool {
	return func(r *core.Result) bool {
		iv := r.CDFBound(k)
		return iv.LB >= tau || iv.UB < tau
	}
}

// KNN answers the probabilistic threshold kNN query of Corollary 4:
// all objects B with P(B ∈ kNN(q)) = P(DomCount(B, q) < k) >= tau.
// It returns a Match per database object (q itself excluded, if it is a
// database object), in ascending object ID order. Candidates are
// evaluated concurrently on Options.Parallelism workers; the result is
// identical to the sequential evaluation. When ctx is cancelled before
// the query completes, (nil, ctx.Err()) is returned.
func (sn *Snapshot) KNN(ctx context.Context, q *uncertain.Object, k int, tau float64) ([]Match, error) {
	if err := sn.CheckDim(q); err != nil {
		return nil, err
	}
	tr, pooled := sn.obs.traceFor(ctx)
	start := time.Now()
	cache := sn.queryCache()
	j := sn.newKNNJob(q, k, tau, cache)
	j.tr = tr
	tr.AddCandidates(len(j.cands))
	sn.obs.countCandidates(len(j.cands))
	tr.AddPrepare(time.Since(start))
	evalStart := time.Now()
	if err := forEach(ctx, sn.parallelism(), len(j.cands), j.eval); err != nil {
		return nil, err
	}
	tr.AddEval(time.Since(evalStart))
	recordCache(sn.obs, tr, cache)
	sn.obs.observe(kindKNN, start, tr, pooled)
	return j.matches, nil
}

// knnJob is one prepared kNN query: the candidate set, the preselection
// threshold and the per-candidate evaluation closure, separated from
// the worker pool that drives it so that BatchKNN can pour the
// candidates of many queries into a single pool.
type knnJob struct {
	sn      *Snapshot
	q       *uncertain.Object
	k       int
	tau     float64
	norm    geom.Norm
	thresh  float64
	cache   *core.DecompCache
	cands   []*uncertain.Object
	matches []Match
	// tr, when non-nil, receives this query's per-candidate verdicts
	// alongside the store counters.
	tr *obs.Trace
}

// newKNNJob prepares a kNN query against the snapshot: candidate
// preselection (objects farther than the (k+1)-th smallest MaxDist are
// dominated at least k times in every possible world and get P = 0
// without an IDCA run, see knnfilter.go — only valid for tau > 0, at
// tau = 0 even impossible candidates satisfy the predicate) and one
// decomposition cache for the whole query, so the reference q and every
// influence object are decomposed once, not once per candidate run they
// appear in. k < 1 yields an empty job.
func (sn *Snapshot) newKNNJob(q *uncertain.Object, k int, tau float64, cache *core.DecompCache) *knnJob {
	j := &knnJob{sn: sn, q: q, k: k, tau: tau, norm: sn.normOrDefault(), cache: cache}
	if k < 1 {
		return j
	}
	j.thresh = math.Inf(1)
	if tau > 0 {
		j.thresh = sn.knnThreshold(q, k, j.norm)
	}
	j.cands = sn.candidates(q)
	j.matches = make([]Match, len(j.cands))
	return j
}

// eval evaluates candidate i into its result slot; calls for distinct i
// are safe to run concurrently.
func (j *knnJob) eval(i int) {
	m, pruned := j.sn.evalKNNCandidate(j.q, j.cands[i], j.k, j.tau, j.thresh, j.norm, j.cache)
	j.matches[i] = m
	countMatch(j.sn.obs, j.tr, m, pruned)
}

// KNNRequest is one query of a BatchKNN call.
type KNNRequest struct {
	// Q is the query reference object.
	Q *uncertain.Object
	// K is the kNN parameter.
	K int
	// Tau is the probability threshold.
	Tau float64
}

// BatchKNN evaluates many kNN queries on the snapshot: the candidate
// IDCA runs of all requests are poured into a single worker pool
// (Options.Parallelism workers total, not per query) and share one
// decomposition cache overlay, so common influence objects and repeated
// query objects are decomposed once for the whole batch. Results[i]
// corresponds to reqs[i] and is bit-identical to KNN(ctx, reqs[i]...).
func (sn *Snapshot) BatchKNN(ctx context.Context, reqs []KNNRequest) ([][]Match, error) {
	for i, r := range reqs {
		if err := sn.CheckDim(r.Q); err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
	}
	tr, pooled := sn.obs.traceFor(ctx)
	start := time.Now()
	// One cache overlay for the whole batch: influence objects come from
	// the persistent store cache, repeated query objects are decomposed
	// once per batch. Preparation (candidate scan + preselection
	// traversal per request) runs on the pool too — it only reads the
	// snapshot — so a large batch has no serial prefix.
	cache := sn.queryCache()
	jobs := make([]*knnJob, len(reqs))
	if err := forEach(ctx, sn.parallelism(), len(reqs), func(i int) {
		jobs[i] = sn.newKNNJob(reqs[i].Q, reqs[i].K, reqs[i].Tau, cache)
	}); err != nil {
		return nil, err
	}
	// ends[i] is the end of job i's candidates in one flat index space:
	// every request's candidates run on a single pool, so small queries
	// do not serialize behind big ones and the pool never idles while
	// work remains.
	ends := make([]int, len(jobs))
	total := 0
	for i, j := range jobs {
		j.tr = tr
		total += len(j.cands)
		ends[i] = total
	}
	tr.AddCandidates(total)
	sn.obs.countCandidates(total)
	tr.AddPrepare(time.Since(start))
	evalStart := time.Now()
	if err := forEach(ctx, sn.parallelism(), total, func(i int) {
		ji := sort.SearchInts(ends, i+1)
		jobs[ji].eval(i - ends[ji] + len(jobs[ji].cands))
	}); err != nil {
		return nil, err
	}
	tr.AddEval(time.Since(evalStart))
	recordCache(sn.obs, tr, cache)
	sn.obs.observe(kindBatchKNN, start, tr, pooled)
	out := make([][]Match, len(jobs))
	for i, j := range jobs {
		out[i] = j.matches
	}
	return out, nil
}

// evalKNNCandidate runs the threshold-kNN predicate for one candidate:
// preselection against the m_{k+1} threshold, then an IDCA run with the
// threshold stop criterion. It is the single evaluation path shared by
// KNN, BatchKNN and the incremental maintainers of package cq, so a
// candidate re-evaluated in isolation yields a Match bit-identical to
// the one a full query over the same database state would report. The
// second return reports whether preselection decided the candidate
// without an IDCA run — the filter-verdict classification the
// observability counters record.
func (sn *Snapshot) evalKNNCandidate(q, b *uncertain.Object, k int, tau, thresh float64, norm geom.Norm, cache *core.DecompCache) (Match, bool) {
	if knnPrunable(b, q, thresh, norm) {
		return Match{Object: b, Decided: true}, true
	}
	opts := sn.runOpts()
	opts.KMax = k
	opts.Stop = ThresholdStop(k, tau)
	opts.SharedDecomps = cache
	res := sn.run(b, q, opts)
	iv := res.CDFBound(k)
	return Match{
		Object:     b,
		Prob:       iv,
		IsResult:   iv.LB >= tau,
		Decided:    iv.LB >= tau || iv.UB < tau,
		Iterations: len(res.Iterations),
	}, false
}

// EvalKNNCandidate evaluates the threshold-kNN predicate for candidate
// b only, using thresh as the preselection bound (KNNThreshold; pass
// +Inf to disable preselection, as KNN does at tau = 0) and
// cache for decomposition sharing (nil builds a private cache per
// call). The Match is bit-identical to the entry for b in
// KNN(q, k, tau) over the same database state — the contract the
// continuous-query subsystem's incremental maintenance relies on. The
// second return reports that preselection decided b without an IDCA
// run.
func (sn *Snapshot) EvalKNNCandidate(q, b *uncertain.Object, k int, tau, thresh float64, cache *core.DecompCache) (Match, bool) {
	if cache == nil {
		cache = sn.queryCache()
	}
	m, pruned := sn.evalKNNCandidate(q, b, k, tau, thresh, sn.normOrDefault(), cache)
	countMatch(sn.obs, nil, m, pruned)
	return m, pruned
}

// RKNN answers the probabilistic threshold reverse kNN query of
// Corollary 5: all objects B for which q is among B's k nearest
// neighbors with probability at least tau, i.e.
// P(DomCount(q, B) < k) >= tau with B as the reference. Cancellation
// and concurrent candidate evaluation mirror KNN. Candidates impossible
// as results (at least k objects certainly closer to them than q, see
// rknnfilter.go) are preselected away without an IDCA run.
func (sn *Snapshot) RKNN(ctx context.Context, q *uncertain.Object, k int, tau float64) ([]Match, error) {
	if err := sn.CheckDim(q); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, nil
	}
	tr, pooled := sn.obs.traceFor(ctx)
	start := time.Now()
	norm := sn.normOrDefault()
	cands := sn.candidates(q)
	// The query object is the target of every run; the cache shares its
	// decomposition (and the influence objects') across candidates.
	cache := sn.queryCache()
	tr.AddCandidates(len(cands))
	sn.obs.countCandidates(len(cands))
	tr.AddPrepare(time.Since(start))
	matches := make([]Match, len(cands))
	evalStart := time.Now()
	err := forEach(ctx, sn.parallelism(), len(cands), func(i int) {
		m, pruned := sn.evalRKNNCandidate(q, cands[i], k, tau, norm, cache)
		matches[i] = m
		countMatch(sn.obs, tr, m, pruned)
	})
	if err != nil {
		return nil, err
	}
	tr.AddEval(time.Since(evalStart))
	recordCache(sn.obs, tr, cache)
	sn.obs.observe(kindRKNN, start, tr, pooled)
	return matches, nil
}

// evalRKNNCandidate runs the threshold-RkNN predicate for one
// candidate: the cheap impossibility preselection, then an IDCA run
// with q as the target and the candidate as the reference. Like
// evalKNNCandidate it is the single evaluation path shared by RKNN
// and the incremental maintainers, and like it the second return
// reports a preselection-only verdict.
func (sn *Snapshot) evalRKNNCandidate(q, b *uncertain.Object, k int, tau float64, norm geom.Norm, cache *core.DecompCache) (Match, bool) {
	if tau > 0 && sn.rknnPrunable(q, b, k, norm) {
		return Match{Object: b, Decided: true}, true
	}
	opts := sn.runOpts()
	opts.KMax = k
	opts.Stop = ThresholdStop(k, tau)
	opts.SharedDecomps = cache
	// Target is the query, reference is the candidate: the count is
	// how many objects are closer to B than q is.
	res := sn.run(q, b, opts)
	iv := res.CDFBound(k)
	return Match{
		Object:     b,
		Prob:       iv,
		IsResult:   iv.LB >= tau,
		Decided:    iv.LB >= tau || iv.UB < tau,
		Iterations: len(res.Iterations),
	}, false
}

// EvalRKNNCandidate evaluates the threshold-RkNN predicate for
// candidate b only, bit-identical to the entry for b in RKNN(q, k, tau)
// over the same database state. cache may be nil (a private cache is
// built per call). The second return reports that preselection decided
// b without an IDCA run.
func (sn *Snapshot) EvalRKNNCandidate(q, b *uncertain.Object, k int, tau float64, cache *core.DecompCache) (Match, bool) {
	if cache == nil {
		cache = sn.queryCache()
	}
	m, pruned := sn.evalRKNNCandidate(q, b, k, tau, sn.normOrDefault(), cache)
	countMatch(sn.obs, nil, m, pruned)
	return m, pruned
}

// RankDistribution is the probabilistic inverse ranking result for one
// object: bounds on P(Rank = i) for every rank (Corollary 3; ranks are
// 1-based: P(Rank = i) = P(DomCount = i−1)).
type RankDistribution struct {
	// Object is the ranked object.
	Object *uncertain.Object
	// MinRank is the best (1-based) rank with non-zero probability.
	MinRank int
	// Ranks[j] bounds P(Rank = MinRank + j).
	Ranks []gf.Interval
	// Result carries the underlying IDCA state for further inspection.
	Result *core.Result
}

// Bound returns the probability interval of the 1-based rank i.
func (rd *RankDistribution) Bound(i int) gf.Interval {
	j := i - rd.MinRank
	if j < 0 || j >= len(rd.Ranks) {
		return gf.Interval{}
	}
	return rd.Ranks[j]
}

// InverseRank computes the probabilistic inverse ranking of object b
// with respect to reference r: the distribution of b's position in a
// similarity ranking of the database w.r.t. r. As the one query with a
// single IDCA run and no candidate fan-out, it applies
// Options.Parallelism at the pair level inside that run (results are
// deterministic for a fixed value, like core.Run). It refuses a context
// already done, or b or r of another dimension than the database (see
// CheckDim). The single run itself is not cancellable.
func (sn *Snapshot) InverseRank(ctx context.Context, b, r *uncertain.Object) (*RankDistribution, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, o := range [2]*uncertain.Object{b, r} {
		if err := sn.CheckDim(o); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	opts := sn.runOpts()
	opts.Parallelism = sn.opts.Parallelism
	cache := sn.queryCache()
	opts.SharedDecomps = cache
	res := sn.run(b, r, opts)
	recordCache(sn.obs, nil, cache)
	sn.obs.observe(kindInverseRank, start, nil, false)
	ranks := make([]gf.Interval, len(res.Bounds))
	copy(ranks, res.Bounds)
	return &RankDistribution{
		Object:  b,
		MinRank: res.CountOffset() + 1,
		Ranks:   ranks,
		Result:  res,
	}, nil
}

// ExpectedRankBounds derives bounds on the expected rank
// E[Rank] = Σ_k P(DomCount = k)·(k+1) (Corollary 6) from interval
// bounds on the count PDF. The definite mass Σ LB_k is placed at its
// counts; the free mass (1 − Σ LB_k) is pushed greedily to the lowest
// counts with spare capacity (UB_k − LB_k) for the lower bound and to
// the highest for the upper bound.
func ExpectedRankBounds(res *core.Result) (lo, hi float64) {
	offset := res.CountOffset()
	nb := len(res.Bounds)
	base, definite := 0.0, 0.0
	for k, iv := range res.Bounds {
		base += iv.LB * float64(offset+k+1)
		definite += iv.LB
	}
	free := 1 - definite
	if free < 0 {
		free = 0
	}
	lo, hi = base, base
	rem := free
	for k := 0; k < nb && rem > 1e-15; k++ {
		cap := res.Bounds[k].Width()
		m := minFloat(cap, rem)
		lo += m * float64(offset+k+1)
		rem -= m
	}
	rem = free
	for k := nb - 1; k >= 0 && rem > 1e-15; k-- {
		cap := res.Bounds[k].Width()
		m := minFloat(cap, rem)
		hi += m * float64(offset+k+1)
		rem -= m
	}
	return lo, hi
}

// Ranked is one object in an expected-rank ranking.
type Ranked struct {
	Object *uncertain.Object
	// ExpectedRankLB/UB bound the expected rank of the object.
	ExpectedRankLB, ExpectedRankUB float64
}

// RankByExpectedRank orders all database objects by (the midpoint of
// the bounds on) their expected rank with respect to q — the expected
// rank semantics of Cormode et al. [14] evaluated with IDCA bounds.
// Candidates are evaluated concurrently. The ordering is deterministic:
// the stable sort runs over per-candidate bounds computed independently
// of worker count and completion order, so ties keep ascending ID order.
func (sn *Snapshot) RankByExpectedRank(ctx context.Context, q *uncertain.Object) ([]Ranked, error) {
	if err := sn.CheckDim(q); err != nil {
		return nil, err
	}
	tr, pooled := sn.obs.traceFor(ctx)
	start := time.Now()
	cands := sn.candidates(q)
	cache := sn.queryCache()
	tr.AddCandidates(len(cands))
	sn.obs.countCandidates(len(cands))
	tr.AddPrepare(time.Since(start))
	out := make([]Ranked, len(cands))
	evalStart := time.Now()
	err := forEach(ctx, sn.parallelism(), len(cands), func(i int) {
		opts := sn.runOpts()
		opts.SharedDecomps = cache
		res := sn.run(cands[i], q, opts)
		// Expected-rank ranking refines every candidate — there is no
		// threshold to preselect against.
		tr.CountRefined(len(res.Iterations))
		sn.obs.countRefined(len(res.Iterations))
		lo, hi := ExpectedRankBounds(res)
		out[i] = Ranked{Object: cands[i], ExpectedRankLB: lo, ExpectedRankUB: hi}
	})
	if err != nil {
		return nil, err
	}
	tr.AddEval(time.Since(evalStart))
	recordCache(sn.obs, tr, cache)
	sn.obs.observe(kindExpectedRank, start, tr, pooled)
	sort.SliceStable(out, func(i, j int) bool {
		mi := out[i].ExpectedRankLB + out[i].ExpectedRankUB
		mj := out[j].ExpectedRankLB + out[j].ExpectedRankUB
		return mi < mj
	})
	return out, nil
}

// The accessors below expose the snapshot's candidate-preselection
// primitives to incremental maintainers (package cq): a standing query
// that persists per-candidate verdicts needs to recompute exactly the
// preselection decisions a from-scratch query would make, on exactly
// the store's resolved configuration.

// Norm returns the resolved distance norm (L2 when unset).
func (sn *Snapshot) Norm() geom.Norm { return sn.normOrDefault() }

// Criterion returns the configured domination criterion.
func (sn *Snapshot) Criterion() geom.Criterion { return sn.opts.Criterion }

// NewQueryCache returns a decomposition cache scoped the way one query
// run scopes it: an overlay over the store's persistent cache.
// Long-lived callers (standing subscriptions) hold one to reuse the
// decompositions of the query object and of database-resident influence
// objects across re-evaluations.
func (sn *Snapshot) NewQueryCache() *core.DecompCache { return sn.queryCache() }

// KNNThreshold returns m_{k+1}, the (k+1)-th smallest MaxDist(o, q)
// over the certainly-existing database objects — the kNN preselection
// bound (see knnfilter.go). Candidates with MinDist(b, q) above it have
// P(B ∈ kNN(q)) = 0. Returns +Inf when the database is too small to
// prune. The value is an order statistic of the database state, so it
// is independent of index shape.
func (sn *Snapshot) KNNThreshold(q *uncertain.Object, k int) float64 {
	return sn.knnThreshold(q, k, sn.normOrDefault())
}

// KNNPrunable reports whether candidate b is impossible as a kNN
// result of q given the KNNThreshold bound thresh — the exact
// preselection test KNN applies at tau > 0.
func (sn *Snapshot) KNNPrunable(q, b *uncertain.Object, thresh float64) bool {
	return knnPrunable(b, q, thresh, sn.normOrDefault())
}

// RKNNPrunable reports whether candidate b is impossible as a reverse
// kNN result for q: at least k certainly-existing objects are closer to
// b than q in every possible world — the exact preselection test RKNN
// applies at tau > 0.
func (sn *Snapshot) RKNNPrunable(q, b *uncertain.Object, k int) bool {
	return sn.rknnPrunable(q, b, k, sn.normOrDefault())
}

func minFloat(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
