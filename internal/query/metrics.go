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
// records into its store's Metrics, and every query records its latency into a per-kind histogram plus the shared
// filter-economy counters: candidates entering the filter stage,
// preselected-away vs. IDCA-refined verdicts, refinement iterations and
// decomposition-cache traffic — the quantities Figure 8 of the paper
// plots, now measured on the serving path.
//
// A caller that wants the same anatomy for ONE query threads an
// obs.Trace through the context (obs.WithTrace); the query records
// into both unconditionally, and both paths are nil-safe and
// allocation-free so an uninstrumented query stays inside its
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
	// into the ring, whether or not the caller attached a trace
	// (untraced queries borrow a pooled one, see traceFor).
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

// tracePool recycles the traces the slow-query capture arms for
// otherwise-untraced queries, keeping the always-on recorder inside the
// query allocation ceilings.
var tracePool = sync.Pool{New: func() any { return &obs.Trace{} }}

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

// traceFor resolves the trace a query records into: the caller's, when
// the context carries one, or a pooled trace when the flight recorder
// is armed for slow-query capture — so an untraced slow query still
// leaves its anatomy in the ring. pooled reports the latter; observe
// returns the pooled trace to the pool.
func (m *Metrics) traceFor(ctx context.Context) (tr *obs.Trace, pooled bool) {
	tr = obs.TraceFrom(ctx)
	if tr != nil || m == nil {
		return tr, false
	}
	if m.slowRecNanos.Load() <= 0 {
		return nil, false
	}
	rs, _ := m.rec.Load().(recState)
	if rs.rec == nil {
		return nil, false
	}
	t := tracePool.Get().(*obs.Trace)
	t.Reset()
	return t, true
}

// observe records one completed query: latency into the kind's
// histogram, plus a flight-recorder event when the capture threshold is
// exceeded.
// pooled marks a trace traceFor borrowed; it is returned to the pool
// here, after the snapshot was taken.
func (m *Metrics) observe(kind queryKind, start time.Time, tr *obs.Trace, pooled bool) {
	if m == nil {
		return
	}
	d := time.Since(start)
	m.latency[kind].Observe(d)
	if thr := m.slowRecNanos.Load(); thr > 0 && int64(d) >= thr {
		if rs, _ := m.rec.Load().(recState); rs.rec != nil {
			rs.rec.RecordTrace(obs.EvSlowQuery, rs.notes[kind], d, 0, 0, tr.Snapshot())
		}
	}
	if pooled {
		tracePool.Put(tr)
	}
}

// countCandidates records n candidates entering the filter stage.
func (m *Metrics) countCandidates(n int) {
	if m == nil || n <= 0 {
		return
	}
	m.candidates.Add(uint64(n))
}

// countPreselected records one candidate decided by preselection alone.
func (m *Metrics) countPreselected() {
	if m == nil {
		return
	}
	m.preselected.Inc()
}

// countRefined records one candidate that needed an IDCA run.
func (m *Metrics) countRefined(iterations int) {
	if m == nil {
		return
	}
	m.refined.Inc()
	if iterations > 0 {
		m.iterations.Add(uint64(iterations))
	}
}

// countUndecided records one refined candidate whose bounds ran out of
// iteration budget.
func (m *Metrics) countUndecided() {
	if m == nil {
		return
	}
	m.undecided.Inc()
}

// countMatch classifies one candidate verdict into the per-query trace
// and the store counters: pruned candidates were preselected away
// without an IDCA run, everything else was refined.
func countMatch(m *Metrics, tr *obs.Trace, match Match, pruned bool) {
	if pruned {
		tr.CountPreselected()
		m.countPreselected()
		return
	}
	tr.CountRefined(match.Iterations)
	m.countRefined(match.Iterations)
	if !match.Decided {
		tr.CountUndecided()
		m.countUndecided()
	}
}

// recordCache drains a query-scoped cache's hit/miss counts into the
// trace and the store counters. The cache is the query's overlay (or
// private cache), so its counts are exactly this query's traffic.
func recordCache(m *Metrics, tr *obs.Trace, cache *core.DecompCache) {
	if cache == nil || (m == nil && tr == nil) {
		return
	}
	hits, misses := cache.Stats()
	tr.AddCacheStats(hits, misses)
	if m != nil {
		m.cacheHits.Add(hits)
		m.cacheMisses.Add(misses)
	}
}
