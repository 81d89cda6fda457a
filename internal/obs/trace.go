package obs

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// Trace collects the anatomy of one query: how many candidates the
// engine visited, how the pruning stages decided them (preselected away
// by the domination filter vs. refined by IDCA runs), how many
// refinement iterations and decomposition-cache hits the runs cost, and
// how the wall time split between preparing the query and evaluating
// candidates.
//
// A caller opts in per query by threading a Trace through the context
// (WithTrace); the engine extracts it with TraceFrom and, at the end of
// the query, merges the query's own trace into it (Merge). All record
// methods are atomic (candidate evaluation is concurrent) and nil-safe.
type Trace struct {
	candidates   atomic.Uint64
	preselected  atomic.Uint64
	refined      atomic.Uint64
	undecided    atomic.Uint64
	iterations   atomic.Uint64
	cacheHits    atomic.Uint64
	cacheMisses  atomic.Uint64
	prepareNanos atomic.Int64
	evalNanos    atomic.Int64
	walWaitNanos atomic.Int64
	queueNanos   atomic.Int64
}

// Reset zeroes every counter, making the trace reusable (the engine
// pools the traces its queries record into).
func (t *Trace) Reset() {
	if t == nil {
		return
	}
	t.candidates.Store(0)
	t.preselected.Store(0)
	t.refined.Store(0)
	t.undecided.Store(0)
	t.iterations.Store(0)
	t.cacheHits.Store(0)
	t.cacheMisses.Store(0)
	t.prepareNanos.Store(0)
	t.evalNanos.Store(0)
	t.walWaitNanos.Store(0)
	t.queueNanos.Store(0)
}

// AddCandidates records n candidates entering the filter stage.
func (t *Trace) AddCandidates(n int) {
	if t == nil || n <= 0 {
		return
	}
	t.candidates.Add(uint64(n))
}

// AddPreselected records n candidates decided by preselection alone
// (no IDCA run).
func (t *Trace) AddPreselected(n int) {
	if t == nil || n <= 0 {
		return
	}
	t.preselected.Add(uint64(n))
}

// CountRefined records one candidate that needed an IDCA run, with the
// refinement iterations it spent.
func (t *Trace) CountRefined(iterations int) {
	if t == nil {
		return
	}
	t.refined.Add(1)
	if iterations > 0 {
		t.iterations.Add(uint64(iterations))
	}
}

// CountUndecided records one refined candidate whose bounds did not
// decide the predicate within the iteration budget.
func (t *Trace) CountUndecided() {
	if t == nil {
		return
	}
	t.undecided.Add(1)
}

// AddCacheStats records decomposition-cache traffic (the per-query
// overlay's hit/miss counts).
func (t *Trace) AddCacheStats(hits, misses uint64) {
	if t == nil {
		return
	}
	t.cacheHits.Add(hits)
	t.cacheMisses.Add(misses)
}

// AddPrepare records query-preparation wall time (candidate selection,
// preselection thresholds).
func (t *Trace) AddPrepare(d time.Duration) {
	if t == nil || d <= 0 {
		return
	}
	t.prepareNanos.Add(int64(d))
}

// AddEval records candidate-evaluation wall time.
func (t *Trace) AddEval(d time.Duration) {
	if t == nil || d <= 0 {
		return
	}
	t.evalNanos.Add(int64(d))
}

// AddWALWait records time spent waiting for a (group) fsync to cover a
// journaled commit — a mutation's durability wait, after the store lock
// was released.
func (t *Trace) AddWALWait(d time.Duration) {
	if t == nil || d <= 0 {
		return
	}
	t.walWaitNanos.Add(int64(d))
}

// AddQueue records time a request spent between arriving (decoded off
// the wire) and starting to execute — the server's dispatch/decode span.
func (t *Trace) AddQueue(d time.Duration) {
	if t == nil || d <= 0 {
		return
	}
	t.queueNanos.Add(int64(d))
}

// Merge adds every counter and span of s to t — how a query folds its
// own trace into the caller's at its end.
func (t *Trace) Merge(s TraceSnapshot) {
	if t == nil {
		return
	}
	t.candidates.Add(s.Candidates)
	t.preselected.Add(s.Preselected)
	t.refined.Add(s.Refined)
	t.undecided.Add(s.Undecided)
	t.iterations.Add(s.Iterations)
	t.AddCacheStats(s.CacheHits, s.CacheMisses)
	t.AddPrepare(s.Prepare)
	t.AddEval(s.Eval)
	t.AddWALWait(s.WALWait)
	t.AddQueue(s.Queue)
}

// TraceSnapshot is a plain copy of a Trace's counters.
type TraceSnapshot struct {
	// Candidates entered the filter stage; every one is either
	// Preselected or Refined.
	Candidates  uint64
	Preselected uint64
	Refined     uint64
	// Undecided counts Refined candidates whose bounds ran out of
	// iteration budget before deciding the predicate.
	Undecided uint64
	// Iterations is the total refinement iterations across all runs.
	Iterations uint64
	// CacheHits/CacheMisses are the query's decomposition-cache traffic.
	CacheHits   uint64
	CacheMisses uint64
	// Prepare/Eval split the query wall time by phase.
	Prepare time.Duration
	Eval    time.Duration
	// WALWait is the durability wait of a traced mutation: journaled
	// commit → covered by a (group) fsync. Zero for queries and for
	// non-SyncAlways stores.
	WALWait time.Duration
	// Queue is the server-side dispatch span of a traced request:
	// decoded off the wire → execution started (argument parsing and
	// object decoding live here). Zero for in-process queries.
	Queue time.Duration
}

// Snapshot returns the trace's current counters (zero for a nil trace).
func (t *Trace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	return TraceSnapshot{
		Candidates:  t.candidates.Load(),
		Preselected: t.preselected.Load(),
		Refined:     t.refined.Load(),
		Undecided:   t.undecided.Load(),
		Iterations:  t.iterations.Load(),
		CacheHits:   t.cacheHits.Load(),
		CacheMisses: t.cacheMisses.Load(),
		Prepare:     time.Duration(t.prepareNanos.Load()),
		Eval:        time.Duration(t.evalNanos.Load()),
		WALWait:     time.Duration(t.walWaitNanos.Load()),
		Queue:       time.Duration(t.queueNanos.Load()),
	}
}

// String renders the snapshot as one log-friendly line.
func (s TraceSnapshot) String() string {
	return fmt.Sprintf(
		"candidates=%d preselected=%d refined=%d undecided=%d iterations=%d cache_hits=%d cache_misses=%d prepare=%v eval=%v wal_wait=%v queue=%v",
		s.Candidates, s.Preselected, s.Refined, s.Undecided, s.Iterations,
		s.CacheHits, s.CacheMisses, s.Prepare, s.Eval, s.WALWait, s.Queue)
}

// traceKey is the context key of WithTrace. A zero-size key type makes
// TraceFrom allocation-free on contexts without a trace.
type traceKey struct{}

// WithTrace returns a context carrying t: queries run under it record
// their anatomy into t.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom extracts the trace from ctx, nil when none was attached.
// The nil result is directly usable — every Trace method accepts a nil
// receiver.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
