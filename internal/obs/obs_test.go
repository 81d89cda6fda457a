package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Load() != 0 {
		t.Fatalf("fresh counter = %d", c.Load())
	}
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Inc()
	g.Inc()
	g.Dec()
	g.Add(10)
	if got := g.Load(); got != 11 {
		t.Fatalf("gauge = %d, want 11", got)
	}
	g.Set(-3)
	if got := g.Load(); got != -3 {
		t.Fatalf("gauge = %d, want -3", got)
	}
}

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{999 * time.Nanosecond, 0},
		{time.Microsecond, 1},
		{2*time.Microsecond - 1, 1},
		{2 * time.Microsecond, 2},
		{time.Millisecond, 10},
		{time.Second, 20},
		{1000 * time.Hour, HistBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestHistogramObserveAndQuantiles(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
	if got := h.Snapshot().Mean(); got != 0 {
		t.Fatalf("empty mean = %v", got)
	}
	// 90 fast observations, 10 slow: p50 lands in the fast bucket's
	// range, p99 in the slow one's.
	for i := 0; i < 90; i++ {
		h.Observe(10 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(10 * time.Millisecond)
	}
	h.Observe(-time.Second) // clamps to zero, lands in bucket 0
	s := h.Snapshot()
	if s.Count != 101 {
		t.Fatalf("count = %d, want 101", s.Count)
	}
	if h.Count() != 101 {
		t.Fatalf("Count() = %d", h.Count())
	}
	p50 := s.Quantile(0.50)
	if p50 < 10*time.Microsecond || p50 > 32*time.Microsecond {
		t.Errorf("p50 = %v, want within the 10µs bucket's bound", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < 10*time.Millisecond || p99 > 32*time.Millisecond {
		t.Errorf("p99 = %v, want within the 10ms bucket's bound", p99)
	}
	if s.MaxNanos != int64(10*time.Millisecond) {
		t.Errorf("max = %d, want %d", s.MaxNanos, int64(10*time.Millisecond))
	}
	// Quantiles clamp p and never exceed the observed max.
	if q := s.Quantile(2); q != time.Duration(s.MaxNanos) {
		t.Errorf("Quantile(2) = %v, want max %v", q, time.Duration(s.MaxNanos))
	}
	if q := s.Quantile(-1); q <= 0 {
		t.Errorf("Quantile(-1) = %v, want > 0", q)
	}
	if m := s.Mean(); m <= 0 || m > 10*time.Millisecond {
		t.Errorf("mean = %v out of range", m)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	var h Histogram
	h.Observe(10000 * time.Hour) // beyond the ladder: last bucket
	s := h.Snapshot()
	if s.Buckets[HistBuckets-1] != 1 {
		t.Fatalf("overflow bucket = %d, want 1", s.Buckets[HistBuckets-1])
	}
	if got := s.Quantile(0.5); got != time.Duration(s.MaxNanos) {
		t.Fatalf("overflow quantile = %v, want max %v", got, time.Duration(s.MaxNanos))
	}
}

func TestHistSnapshotMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(time.Millisecond)
	a.Observe(2 * time.Millisecond)
	b.Observe(time.Second)
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Count != 3 {
		t.Fatalf("merged count = %d, want 3", sa.Count)
	}
	if sa.MaxNanos != int64(time.Second) {
		t.Fatalf("merged max = %d, want 1s", sa.MaxNanos)
	}
	wantSum := int64(3*time.Millisecond) + int64(time.Second)
	if sa.SumNanos != wantSum {
		t.Fatalf("merged sum = %d, want %d", sa.SumNanos, wantSum)
	}
	if q := sa.Quantile(1); q < time.Second {
		t.Fatalf("merged p100 = %v, want >= 1s", q)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	if r.Counter("a.count") != c {
		t.Fatal("Counter not idempotent")
	}
	g := r.Gauge("a.gauge")
	if r.Gauge("a.gauge") != g {
		t.Fatal("Gauge not idempotent")
	}
	h := r.Histogram("a.lat")
	if r.Histogram("a.lat") != h {
		t.Fatal("Histogram not idempotent")
	}
	c.Add(7)
	g.Set(-2)
	h.Observe(time.Millisecond)
	snap := PointsMap(r.Points())
	if snap["a.count"] != 7 || snap["a.gauge"] != -2 {
		t.Fatalf("snapshot = %v", snap)
	}
	if snap["a.lat.count"] != 1 || snap["a.lat.max_ns"] != int64(time.Millisecond) {
		t.Fatalf("histogram snapshot = %v", snap)
	}
	for _, k := range []string{"a.lat.sum_ns", "a.lat.p50_ns", "a.lat.p95_ns", "a.lat.p99_ns"} {
		if _, ok := snap[k]; !ok {
			t.Errorf("missing key %s", k)
		}
	}
	keys := SortedKeys(snap)
	if len(keys) != len(snap) {
		t.Fatalf("SortedKeys lost entries: %d vs %d", len(keys), len(snap))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("keys not sorted: %q >= %q", keys[i-1], keys[i])
		}
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x")
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.AddCandidates(5)
	tr.CountPreselected()
	tr.CountRefined(3)
	tr.CountUndecided()
	tr.AddCacheStats(1, 2)
	tr.AddPrepare(time.Millisecond)
	tr.AddEval(time.Millisecond)
	if s := tr.Snapshot(); s != (TraceSnapshot{}) {
		t.Fatalf("nil trace snapshot = %+v", s)
	}
}

func TestTraceRecordsAndString(t *testing.T) {
	tr := &Trace{}
	tr.AddCandidates(10)
	tr.AddCandidates(0) // no-op
	tr.CountPreselected()
	tr.CountRefined(4)
	tr.CountRefined(0) // refined with zero iterations still counts the run
	tr.CountUndecided()
	tr.AddCacheStats(3, 2)
	tr.AddPrepare(2 * time.Millisecond)
	tr.AddEval(5 * time.Millisecond)
	tr.AddPrepare(-time.Second) // no-op
	s := tr.Snapshot()
	want := TraceSnapshot{
		Candidates: 10, Preselected: 1, Refined: 2, Undecided: 1,
		Iterations: 4, CacheHits: 3, CacheMisses: 2,
		Prepare: 2 * time.Millisecond, Eval: 5 * time.Millisecond,
	}
	if s != want {
		t.Fatalf("snapshot = %+v, want %+v", s, want)
	}
	str := s.String()
	for _, frag := range []string{"candidates=10", "preselected=1", "refined=2", "iterations=4", "cache_hits=3"} {
		if !strings.Contains(str, frag) {
			t.Errorf("String() = %q missing %q", str, frag)
		}
	}
}

// TestTraceSpansAndReset: the two server/WAL spans accumulate (a
// non-positive duration is a no-op, a nil trace ignores them), and
// Reset zeroes every counter for reuse.
func TestTraceSpansAndReset(t *testing.T) {
	var nilTrace *Trace
	nilTrace.AddQueue(time.Second)
	nilTrace.AddWALWait(time.Second)
	nilTrace.Reset()

	tr := &Trace{}
	tr.AddQueue(3 * time.Microsecond)
	tr.AddQueue(4 * time.Microsecond)
	tr.AddQueue(0)
	tr.AddWALWait(2 * time.Millisecond)
	tr.AddWALWait(-time.Millisecond)
	tr.AddCandidates(7)
	tr.CountRefined(2)
	tr.CountUndecided()
	tr.AddCacheStats(1, 1)
	tr.AddPrepare(time.Millisecond)
	tr.AddEval(time.Millisecond)
	s := tr.Snapshot()
	if s.Queue != 7*time.Microsecond || s.WALWait != 2*time.Millisecond {
		t.Fatalf("queue %v, wal wait %v; want 7µs and 2ms", s.Queue, s.WALWait)
	}
	if str := s.String(); !strings.Contains(str, "wal_wait=2ms") || !strings.Contains(str, "queue=7µs") {
		t.Fatalf("String() = %q misses the spans", str)
	}
	tr.Reset()
	if s := tr.Snapshot(); s != (TraceSnapshot{}) {
		t.Fatalf("snapshot after Reset = %+v", s)
	}
}

// TestHistValueQuantiles: a value-fed histogram reports the upper bound
// of the bucket holding the rank, clamped to the maximum, and
// AddHistValue flattens exactly those figures.
func TestHistValueQuantiles(t *testing.T) {
	if got := (HistSnapshot{}).QuantileValue(0.5); got != 0 {
		t.Fatalf("empty quantile = %d", got)
	}
	var h Histogram
	for _, v := range []uint64{0, 1, 3, 5, 100} {
		h.ObserveValue(v)
	}
	s := h.Snapshot()
	for _, c := range []struct {
		p    float64
		want uint64
	}{
		{-1, 0},  // clamped to p = 0: the first rank, bucket 0
		{0.2, 0}, // rank 1: the 0
		{0.4, 2}, // rank 2: 1 lives in [1, 2)
		{0.6, 4}, // rank 3: 3 lives in [2, 4)
		{0.8, 8}, // rank 4: 5 lives in [4, 8)
		{1, 100}, // rank 5: [64, 128) clamped to the maximum
		{2, 100}, // clamped to p = 1
	} {
		if got := s.QuantileValue(c.p); got != c.want {
			t.Errorf("QuantileValue(%g) = %d, want %d", c.p, got, c.want)
		}
	}
	var huge Histogram
	huge.ObserveValue(1 << 60)
	if got := huge.Snapshot().QuantileValue(0.5); got != 1<<60 {
		t.Errorf("overflow-bucket quantile = %d, want the maximum", got)
	}
	// A snapshot whose buckets lag its count (a concurrent observe
	// straddling the reads) falls back to the maximum.
	if got := (HistSnapshot{Count: 3, MaxNanos: 9, Buckets: [HistBuckets]uint64{1}}).QuantileValue(1); got != 9 {
		t.Errorf("lagging snapshot quantile = %d, want 9", got)
	}

	out := map[string]int64{}
	AddHistValue(out, "batch", s)
	want := map[string]int64{
		"batch.count": 5, "batch.sum": 109, "batch.max": 100,
		"batch.p50": 4, "batch.p95": 100, "batch.p99": 100,
	}
	if len(out) != len(want) {
		t.Fatalf("AddHistValue wrote %v, want %v", out, want)
	}
	for k, v := range want {
		if out[k] != v {
			t.Errorf("%s = %d, want %d", k, out[k], v)
		}
	}
}

func TestTraceContext(t *testing.T) {
	if got := TraceFrom(context.Background()); got != nil {
		t.Fatalf("TraceFrom(background) = %v, want nil", got)
	}
	tr := &Trace{}
	ctx := WithTrace(context.Background(), tr)
	if got := TraceFrom(ctx); got != tr {
		t.Fatalf("TraceFrom = %v, want %v", got, tr)
	}
}

// TestObsConcurrency hammers every primitive from many goroutines; its
// assertions are exact because all record paths are atomic. CI runs it
// under -race as a dedicated step.
func TestObsConcurrency(t *testing.T) {
	const workers, per = 8, 1000
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	tr := &Trace{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Inc()
				g.Dec()
				h.Observe(time.Duration(i) * time.Microsecond)
				tr.AddCandidates(1)
				tr.CountRefined(1)
				tr.AddCacheStats(1, 1)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Load(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Load(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got := h.Snapshot().Count; got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	s := tr.Snapshot()
	if s.Candidates != workers*per || s.Refined != workers*per || s.CacheHits != workers*per {
		t.Errorf("trace = %+v", s)
	}
}
