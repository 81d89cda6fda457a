package query

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"probprune/internal/core"
	"probprune/internal/obs"
)

// This file wires the obs primitives into the queries. Every snapshot
// records into its store's Metrics: a latency histogram per query kind
// plus the filter-economy counters — candidates entering the filter
// stage, preselected-away vs. IDCA-refined verdicts, refinement
// iterations and decomposition-cache traffic, the quantities Figure 8
// of the paper plots, measured on the serving path.
//
// Every query records its anatomy once, into a trace of its own (see
// queryRun); at its end that trace is added to the store counters and,
// when the caller threaded an obs.Trace through the context
// (obs.WithTrace), to the caller's trace. The lifecycle is pooled and
// allocation-free, so an uninstrumented query stays inside its
// allocation ceilings.

// queryKind enumerates the instrumented query algorithms.
type queryKind int

const (
	kindKNN queryKind = iota
	kindRKNN
	kindTopK
	kindInverseRank
	kindExpectedRank
	kindUKRanks
	kindBatchKNN
	numQueryKinds
	// kindCandidate is one standing-query candidate re-evaluation
	// (EvalKNNCandidate/EvalRKNNCandidate): its verdict is counted, but
	// it is no query of its own and observes no latency.
	kindCandidate = numQueryKinds
)

// kindNames are the metric-name segments of the kinds, in order.
var kindNames = [numQueryKinds]string{
	"knn", "rknn", "topk", "inverse_rank", "expected_rank", "ukranks", "batch_knn",
}

// Metrics is the query-layer metric set of a store and every snapshot
// it publishes. All record paths are atomic
// and allocation-free; a nil *Metrics is valid and records nothing.
type Metrics struct {
	reg     *obs.Registry
	latency [numQueryKinds]*obs.Histogram

	candidates  *obs.Counter
	preselected *obs.Counter
	refined     *obs.Counter
	undecided   *obs.Counter
	iterations  *obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter

	// ckptQueue/ckptMerged instrument the background checkpoint
	// scheduler of a durable store: pending + running installs, and pins
	// coalesced away because a newer one replaced them before install.
	ckptQueue  *obs.Gauge
	ckptMerged *obs.Counter

	// rec holds the flight-recorder arming (a recState). When armed
	// together with slowRecNanos, every query above the threshold
	// records an EvSlowQuery event — with its full trace snapshot —
	// into the ring, whether or not the caller attached a trace (every
	// query records into a trace of its own, see queryRun).
	rec          atomic.Value
	slowRecNanos atomic.Int64
}

// recState is the installed flight recorder plus the pre-registered
// per-kind note IDs, swapped atomically so arming is safe mid-serving
// and the per-query load costs no lock.
type recState struct {
	rec   *obs.Recorder
	notes [numQueryKinds]obs.NoteID
}

// NewMetrics builds the query metric set:
//
//	query.<kind>.latency   histogram per query kind
//	query.candidates       counter: candidates entering the filter stage
//	query.preselected      counter: candidates decided without an IDCA run
//	query.refined          counter: candidates refined by an IDCA run
//	query.undecided        counter: refined candidates left undecided
//	query.iterations       counter: total refinement iterations
//	query.cache.hits/misses counter: decomposition-cache traffic
//	store.checkpoint.queue  gauge: background checkpoint installs pending + running
//	store.checkpoint.coalesced counter: checkpoint pins replaced by a newer one before install
func NewMetrics() *Metrics {
	m := &Metrics{reg: obs.NewRegistry()}
	for k := queryKind(0); k < numQueryKinds; k++ {
		m.latency[k] = m.reg.Histogram("query." + kindNames[k] + ".latency")
	}
	m.candidates = m.reg.Counter("query.candidates")
	m.preselected = m.reg.Counter("query.preselected")
	m.refined = m.reg.Counter("query.refined")
	m.undecided = m.reg.Counter("query.undecided")
	m.iterations = m.reg.Counter("query.iterations")
	m.cacheHits = m.reg.Counter("query.cache.hits")
	m.cacheMisses = m.reg.Counter("query.cache.misses")
	m.ckptQueue = m.reg.Gauge("store.checkpoint.queue")
	m.ckptMerged = m.reg.Counter("store.checkpoint.coalesced")
	return m
}

// Registry exposes the underlying registry (nil for nil metrics).
func (m *Metrics) Registry() *obs.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// SetRecorder installs (or, with nil, removes) the flight recorder the
// slow-query capture records into. Pair with SetSlowQueryThreshold to
// arm it. Safe to call while queries run.
func (m *Metrics) SetRecorder(rec *obs.Recorder) {
	if m == nil {
		return
	}
	var rs recState
	if rec != nil {
		rs.rec = rec
		for k := queryKind(0); k < numQueryKinds; k++ {
			rs.notes[k] = rec.Note(kindNames[k])
		}
	}
	m.rec.Store(rs)
}

// Recorder returns the installed flight recorder, nil when disarmed.
func (m *Metrics) Recorder() *obs.Recorder {
	if m == nil {
		return nil
	}
	rs, _ := m.rec.Load().(recState)
	return rs.rec
}

// SetSlowQueryThreshold arms the flight-recorder slow-query capture:
// every query at least this slow records an EvSlowQuery event with its
// full trace snapshot. <= 0 disarms.
func (m *Metrics) SetSlowQueryThreshold(d time.Duration) {
	if m == nil {
		return
	}
	m.slowRecNanos.Store(int64(d))
}

// queryRun is the lifecycle of one query: begin opens it, the query
// records each verdict once into the run's own trace, and end — deferred,
// so a cancelled query folds its partial work too — adds that trace to
// the caller's trace and to the store counters, once per query. Runs
// are pooled, so the lifecycle allocates nothing in steady state.
type queryRun struct {
	tr        obs.Trace
	sn        *Snapshot
	ctx       context.Context
	kind      queryKind
	cache     *core.DecompCache
	owned     bool // cache is the run's own overlay, its traffic this query's
	start     time.Time
	evalStart time.Time
	cancelled bool
}

// runPool recycles query runs together with their traces.
var runPool = sync.Pool{New: func() any { return new(queryRun) }}

// begin opens a query of the given kind on the snapshot. The run
// evaluates over cache, or over a fresh overlay of the store's cache
// (queryCache) when cache is nil; only an overlay of its own has its
// hit/miss counts folded in at end, a caller-held cache's being
// cumulative.
func (sn *Snapshot) begin(ctx context.Context, kind queryKind, cache *core.DecompCache) *queryRun {
	r := runPool.Get().(*queryRun)
	r.tr.Reset()
	r.sn, r.ctx, r.kind, r.cache, r.owned = sn, ctx, kind, cache, cache == nil
	if r.owned {
		r.cache = sn.queryCache()
	}
	r.start, r.evalStart, r.cancelled = time.Now(), time.Time{}, false
	return r
}

// prepared ends the prepare span: n candidates enter the filter stage
// and evaluation starts.
func (r *queryRun) prepared(n int) {
	r.tr.AddCandidates(n)
	r.evalStart = time.Now()
	r.tr.AddPrepare(r.evalStart.Sub(r.start))
}

// end closes the run: the eval span and the overlay's cache traffic go
// into the trace, the trace into the caller's (when the context carries
// one) and into the store counters, and a completed query's latency
// into its kind's histogram — plus a slow-query event when the flight
// recorder's threshold is exceeded. The run goes back to the pool.
func (r *queryRun) end() {
	if !r.evalStart.IsZero() {
		r.tr.AddEval(time.Since(r.evalStart))
	}
	if r.owned {
		r.tr.AddCacheStats(r.cache.Stats())
	}
	s := r.tr.Snapshot()
	obs.TraceFrom(r.ctx).Merge(s)
	if m := r.sn.obs; m != nil {
		m.candidates.Add(s.Candidates)
		m.preselected.Add(s.Preselected)
		m.refined.Add(s.Refined)
		m.undecided.Add(s.Undecided)
		m.iterations.Add(s.Iterations)
		m.cacheHits.Add(s.CacheHits)
		m.cacheMisses.Add(s.CacheMisses)
		if r.kind < numQueryKinds && !r.cancelled {
			m.observe(r.kind, time.Since(r.start), s)
		}
	}
	r.sn, r.ctx, r.cache = nil, nil, nil
	runPool.Put(r)
}

// observe records one completed query of duration d: latency into the
// kind's histogram, plus a flight-recorder event carrying the query's
// trace when the capture threshold is exceeded.
func (m *Metrics) observe(kind queryKind, d time.Duration, s obs.TraceSnapshot) {
	m.latency[kind].Observe(d)
	if thr := m.slowRecNanos.Load(); thr > 0 && int64(d) >= thr {
		if rs, _ := m.rec.Load().(recState); rs.rec != nil {
			rs.rec.RecordTrace(obs.EvSlowQuery, rs.notes[kind], d, 0, 0, s)
		}
	}
}

// countMatch records one candidate verdict into the query's trace:
// pruned candidates were preselected away without an IDCA run,
// everything else was refined.
func countMatch(tr *obs.Trace, m Match, pruned bool) {
	if pruned {
		tr.AddPreselected(1)
		return
	}
	tr.CountRefined(m.Iterations)
	if !m.Decided {
		tr.CountUndecided()
	}
}
