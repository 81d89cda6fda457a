package main

import (
	"math"
	"sort"
)

// round is what one replay of the op list (or one slice of a write or
// push stream) measured.
type round struct {
	lat    []float64 // ms, one per primary latency sample
	ops    int       // primary ops completed
	wall   float64   // seconds
	cpuMs  float64   // server utime+stime spent
	bytes  int64     // bytes read from the server
	reads  []float64 // ms, secondary reads riding along (write-durable)
	lateMs []float64 // open loop: how late each send ran
}

// estimate is one metric three ways: over the quiet rounds (the
// reported value), the median of the per-round values, and the gap
// between them as a share of the quiet value.
type estimate struct {
	quiet, median, noise float64
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quantile is the nearest-rank quantile of an unsorted sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// pool merges rounds into one.
func pool(rs []round) round {
	var p round
	for _, r := range rs {
		p.lat = append(p.lat, r.lat...)
		p.reads = append(p.reads, r.reads...)
		p.lateMs = append(p.lateMs, r.lateMs...)
		p.ops += r.ops
		p.wall += r.wall
		p.cpuMs += r.cpuMs
		p.bytes += r.bytes
	}
	return p
}

// quietRounds returns the fastest third of the rounds by mean latency.
// Interference from the machine's other tenants only ever adds time,
// so the fast rounds measure the program and the rest measure the
// neighbours; the estimator reports the first and prints the second
// beside it.
func quietRounds(rs []round) []round {
	byMean := append([]round(nil), rs...)
	sort.SliceStable(byMean, func(i, j int) bool { return mean(byMean[i].lat) < mean(byMean[j].lat) })
	return byMean[:max(len(byMean)/3, 1)]
}

// roundMetrics are the per-round end-to-end metrics; setup_s and
// server_rss_mb are properties of the run, not of a round. Bytes are
// counted over every round, not the quiet ones: interference cannot
// change them, so they repeat exactly for a seed.
var roundMetrics = []struct {
	name      string
	of        func(round) float64
	allRounds bool
}{
	{"latency_p50_ms", func(r round) float64 { return quantile(r.lat, 0.50) }, false},
	{"latency_p90_ms", func(r round) float64 { return quantile(r.lat, 0.90) }, false},
	{"ops_per_s", func(r round) float64 { return float64(r.ops) / r.wall }, false},
	{"server_cpu_ms_per_op", func(r round) float64 { return r.cpuMs / float64(r.ops) }, false},
	{"net_bytes_per_op", func(r round) float64 { return float64(r.bytes) / float64(r.ops) }, true},
}

// summarize computes every per-round metric over the quiet pool, with
// the all-round median as its noise estimate.
func summarize(rs []round) map[string]estimate {
	quiet, all := pool(quietRounds(rs)), pool(rs)
	out := make(map[string]estimate, len(roundMetrics))
	for _, m := range roundMetrics {
		per := make([]float64, len(rs))
		for i, r := range rs {
			per[i] = m.of(r)
		}
		e := estimate{quiet: m.of(quiet), median: median(per)}
		if m.allRounds {
			e.quiet = m.of(all)
		}
		if e.quiet != 0 {
			e.noise = (e.median - e.quiet) / e.quiet
		}
		out[m.name] = e
	}
	return out
}
