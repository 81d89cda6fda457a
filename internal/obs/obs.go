// Package obs is the dependency-free observability core of the stack:
// atomic counters, gauges and fixed-bucket latency histograms whose
// record paths never allocate (safe inside the engine's allocation
// ceilings), plus the per-query Trace of trace.go. Every layer — query
// engine, store, WAL, continuous queries, the TCP server — records into
// these primitives; the server flattens them into the STATS command and
// the HTTP debug endpoint.
//
// Allocation discipline: constructing a metric (Registry.Counter etc.)
// may allocate; recording into one (Counter.Add, Gauge.Set,
// Histogram.Observe, every Trace method) never does. The non-race
// allocation tests pin this at 0 allocs/op, the same //go:build !race
// pattern that guards the engine ceilings.
package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (it can go down).
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (negative n subtracts).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// HistBuckets is the fixed bucket count of every Histogram: bucket 0
// holds observations under 1µs, bucket i (0 < i < HistBuckets-1) holds
// [2^(i-1)µs, 2^i µs), and the last bucket overflows upward. The
// doubling ladder spans 1µs to ~6 days — every latency this system can
// produce — with ~2x quantile resolution, which is what fixed buckets
// buy: recording is one atomic add, no locks, no allocation.
const HistBuckets = 40

// Histogram is a fixed-bucket latency histogram. Observe is
// allocation-free and safe for concurrent use; quantiles are estimated
// from the bucket counts of a Snapshot.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [HistBuckets]atomic.Uint64
}

// bucketIndex maps a duration to its bucket.
func bucketIndex(d time.Duration) int {
	idx := bits.Len64(uint64(d) / 1000)
	if idx >= HistBuckets {
		idx = HistBuckets - 1
	}
	return idx
}

// Observe records one duration. Negative durations (clock steps) are
// clamped to zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	n := int64(d)
	h.count.Add(1)
	h.sum.Add(n)
	for {
		cur := h.max.Load()
		if n <= cur || h.max.CompareAndSwap(cur, n) {
			break
		}
	}
	h.buckets[bucketIndex(d)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// valueBucketIndex maps a dimensionless value to its bucket: bucket 0
// holds 0, bucket i holds [2^(i-1), 2^i), overflow lands in the last.
func valueBucketIndex(v uint64) int {
	idx := bits.Len64(v)
	if idx >= HistBuckets {
		idx = HistBuckets - 1
	}
	return idx
}

// ObserveValue records one dimensionless value (a batch size, a byte
// count) into the same doubling-ladder buckets, without the microsecond
// scaling of Observe. A histogram must be fed through exactly one of
// Observe and ObserveValue — the bucket boundaries differ — and a
// value-fed one is summarized with QuantileValue/AddHistValue instead
// of Quantile/AddHist.
func (h *Histogram) ObserveValue(v uint64) {
	n := int64(v)
	h.count.Add(1)
	h.sum.Add(n)
	for {
		cur := h.max.Load()
		if n <= cur || h.max.CompareAndSwap(cur, n) {
			break
		}
	}
	h.buckets[valueBucketIndex(v)].Add(1)
}

// Snapshot returns a consistent-enough copy of the histogram state for
// quantile estimation and merging. (Counts are read bucket by bucket;
// concurrent Observes may straddle the reads, skewing a quantile by at
// most the in-flight observations.)
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.SumNanos = h.sum.Load()
	s.MaxNanos = h.max.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram, mergeable across
// instances (per-shard WAL journals sum into one).
type HistSnapshot struct {
	Count    uint64
	SumNanos int64
	MaxNanos int64
	Buckets  [HistBuckets]uint64
}

// Merge adds o into s.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	s.Count += o.Count
	s.SumNanos += o.SumNanos
	if o.MaxNanos > s.MaxNanos {
		s.MaxNanos = o.MaxNanos
	}
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Quantile estimates the p-quantile (p in [0, 1]) as the upper bound of
// the bucket holding the rank, clamped to the observed maximum. Zero
// observations yield zero.
func (s HistSnapshot) Quantile(p float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	rank := uint64(math.Ceil(p * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, b := range s.Buckets {
		cum += b
		if cum >= rank {
			if i == HistBuckets-1 {
				return time.Duration(s.MaxNanos)
			}
			ub := time.Duration(uint64(1000) << uint(i))
			if m := time.Duration(s.MaxNanos); m > 0 && ub > m {
				return m
			}
			return ub
		}
	}
	return time.Duration(s.MaxNanos)
}

// QuantileValue estimates the p-quantile of a value-fed histogram (one
// recorded through ObserveValue) as the upper bound of the bucket
// holding the rank, clamped to the observed maximum.
func (s HistSnapshot) QuantileValue(p float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	rank := uint64(math.Ceil(p * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, b := range s.Buckets {
		cum += b
		if cum >= rank {
			if i == 0 {
				return 0
			}
			if i == HistBuckets-1 {
				return uint64(s.MaxNanos)
			}
			ub := uint64(1) << uint(i)
			if m := uint64(s.MaxNanos); m > 0 && ub > m {
				return m
			}
			return ub
		}
	}
	return uint64(s.MaxNanos)
}

// Mean returns the arithmetic mean of the observations, zero when
// empty.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNanos / int64(s.Count))
}

// Registry is a named metric set. Registration (Counter/Gauge/
// Histogram) is idempotent and may allocate; the returned metric's
// record path never does, so callers register once up front and record
// on the hot path. A name holds at most one metric — registering it
// again under a different type panics, which catches wiring bugs at
// startup rather than producing silently-split metrics.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

func (r *Registry) checkFree(name, as string) {
	if _, ok := r.counters[name]; ok && as != "counter" {
		panic("obs: " + name + " already registered as a counter")
	}
	if _, ok := r.gauges[name]; ok && as != "gauge" {
		panic("obs: " + name + " already registered as a gauge")
	}
	if _, ok := r.hists[name]; ok && as != "histogram" {
		panic("obs: " + name + " already registered as a histogram")
	}
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkFree(name, "counter")
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkFree(name, "gauge")
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkFree(name, "histogram")
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// AddHist expands a histogram snapshot into a flat metric map under the
// given name prefix: .count, .sum_ns, .p50_ns, .p95_ns, .p99_ns and
// .max_ns, the flat shape PointsMap produces.
func AddHist(out map[string]int64, name string, s HistSnapshot) {
	out[name+".count"] = int64(s.Count)
	out[name+".sum_ns"] = s.SumNanos
	out[name+".p50_ns"] = int64(s.Quantile(0.50))
	out[name+".p95_ns"] = int64(s.Quantile(0.95))
	out[name+".p99_ns"] = int64(s.Quantile(0.99))
	out[name+".max_ns"] = s.MaxNanos
}

// AddHistValue expands a value-fed histogram snapshot (ObserveValue)
// into a flat metric map: count, sum, mean and value quantiles — no
// nanosecond suffixes, the values are dimensionless.
func AddHistValue(out map[string]int64, name string, s HistSnapshot) {
	out[name+".count"] = int64(s.Count)
	out[name+".sum"] = s.SumNanos
	out[name+".p50"] = int64(s.QuantileValue(0.50))
	out[name+".p95"] = int64(s.QuantileValue(0.95))
	out[name+".p99"] = int64(s.QuantileValue(0.99))
	out[name+".max"] = s.MaxNanos
}

// SortedKeys returns the keys of a flat metric map in lexical order —
// the deterministic iteration order of every surfaced snapshot.
func SortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
