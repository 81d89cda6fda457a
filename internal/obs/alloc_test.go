//go:build !race

package obs

import (
	"context"
	"testing"
	"time"
)

// The metric record paths must stay allocation-free: they run inside
// the audited query hot paths (the SnapshotKNN/StoreWarmKNN
// ceilings) and on every server command dispatch. Guarded by !race
// because the race detector instruments allocations; CI runs these in
// the plain allocation-ceilings step.

func TestCounterRecordZeroAlloc(t *testing.T) {
	var c Counter
	if n := testing.AllocsPerRun(100, func() { c.Inc(); c.Add(3) }); n != 0 {
		t.Fatalf("Counter record path allocates %.1f allocs/op, want 0", n)
	}
}

func TestGaugeRecordZeroAlloc(t *testing.T) {
	var g Gauge
	if n := testing.AllocsPerRun(100, func() { g.Inc(); g.Add(-1); g.Set(5) }); n != 0 {
		t.Fatalf("Gauge record path allocates %.1f allocs/op, want 0", n)
	}
}

func TestHistogramRecordZeroAlloc(t *testing.T) {
	var h Histogram
	d := 37 * time.Microsecond
	if n := testing.AllocsPerRun(100, func() { h.Observe(d) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %.1f allocs/op, want 0", n)
	}
}

func TestTraceRecordZeroAlloc(t *testing.T) {
	tr := &Trace{}
	if n := testing.AllocsPerRun(100, func() {
		tr.AddCandidates(10)
		tr.AddPreselected(1)
		tr.CountRefined(2)
		tr.CountUndecided()
		tr.AddCacheStats(1, 1)
		tr.AddPrepare(time.Microsecond)
		tr.AddEval(time.Microsecond)
	}); n != 0 {
		t.Fatalf("Trace record path allocates %.1f allocs/op, want 0", n)
	}
}

func TestNilTraceZeroAlloc(t *testing.T) {
	var tr *Trace
	if n := testing.AllocsPerRun(100, func() {
		tr.AddCandidates(10)
		tr.CountRefined(2)
		tr.AddEval(time.Microsecond)
	}); n != 0 {
		t.Fatalf("nil Trace path allocates %.1f allocs/op, want 0", n)
	}
}

// TestTraceFromZeroAlloc pins the trace-disabled query path's context
// lookup at zero allocations: extracting a (missing) trace from a
// context must cost nothing, or every uninstrumented query would pay
// for the instrumentation it did not ask for.
func TestTraceFromZeroAlloc(t *testing.T) {
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		if TraceFrom(ctx) != nil {
			t.Fatal("unexpected trace")
		}
	}); n != 0 {
		t.Fatalf("TraceFrom on a trace-free context allocates %.1f allocs/op, want 0", n)
	}
}

// TestRecorderRecordZeroAlloc pins the flight-recorder write path at
// zero allocations: it runs on the commit path, the group-commit
// leader and every traced query, so a single allocation here would
// show up in the audited SnapshotKNN/StoreWarmKNN ceilings.
func TestRecorderRecordZeroAlloc(t *testing.T) {
	r := NewRecorder(64)
	note := r.Note("knn") // pre-registered, as hot paths do
	ts := TraceSnapshot{Candidates: 12, Refined: 3, Eval: time.Millisecond}
	if n := testing.AllocsPerRun(100, func() {
		r.Record(EvGroupCommit, 0, time.Millisecond, 8, 0)
		r.RecordTrace(EvSlowQuery, note, 40*time.Millisecond, 0, 0, ts)
	}); n != 0 {
		t.Fatalf("Recorder record path allocates %.1f allocs/op, want 0", n)
	}
}
