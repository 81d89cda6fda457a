package query

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"probprune/internal/core"
	"probprune/internal/obs"
	"probprune/internal/workload"
)

// anatomy is a metric set's query counters as a trace snapshot (the
// spans left zero).
func anatomy(m *Metrics) obs.TraceSnapshot {
	p := obs.PointsMap(m.Registry().Points())
	return obs.TraceSnapshot{
		Candidates:  uint64(p["query.candidates"]),
		Preselected: uint64(p["query.preselected"]),
		Refined:     uint64(p["query.refined"]),
		Undecided:   uint64(p["query.undecided"]),
		Iterations:  uint64(p["query.iterations"]),
		CacheHits:   uint64(p["query.cache.hits"]),
		CacheMisses: uint64(p["query.cache.misses"]),
	}
}

// counts is s without its spans.
func counts(s obs.TraceSnapshot) obs.TraceSnapshot {
	s.Prepare, s.Eval, s.WALWait, s.Queue = 0, 0, 0, 0
	return s
}

// minus is the counter delta after - before.
func minus(after, before obs.TraceSnapshot) obs.TraceSnapshot {
	return obs.TraceSnapshot{
		Candidates:  after.Candidates - before.Candidates,
		Preselected: after.Preselected - before.Preselected,
		Refined:     after.Refined - before.Refined,
		Undecided:   after.Undecided - before.Undecided,
		Iterations:  after.Iterations - before.Iterations,
		CacheHits:   after.CacheHits - before.CacheHits,
		CacheMisses: after.CacheMisses - before.CacheMisses,
	}
}

// latencies is the per-kind latency observation counts of m.
func latencies(m *Metrics) map[string]int64 {
	p := obs.PointsMap(m.Registry().Points())
	out := map[string]int64{}
	for _, kind := range kindNames {
		out[kind] = p["query."+kind+".latency.count"]
	}
	return out
}

// cancelAfter is a context whose Err reports cancellation from its
// (n+1)-th call on. The query fan-out checks Err before every
// candidate, so a query run under it is cancelled mid-evaluation.
type cancelAfter struct {
	context.Context
	n atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestQueryMetricsAndTrace: every query kind records its anatomy once,
// into a trace of its own folded into the store counters and the
// caller's trace at its end, so each call's counter deltas equal its
// trace snapshot; a completed call adds one latency sample to its own
// kind, a cancelled one adds none; and a slow untraced query's
// flight-recorder event carries the same anatomy as a traced run.
func TestQueryMetricsAndTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := smallDB(rng, 60, 5)
	e := newSnapshot(t, db, core.Options{MaxIterations: 3})
	q := randObj(rng, -1, 5, 5, 5, 1.5)

	calls := []struct {
		kind string
		run  func(ctx context.Context) error
	}{
		{"knn", func(ctx context.Context) error { _, err := e.KNN(ctx, q, 3, 0.3); return err }},
		{"batch_knn", func(ctx context.Context) error {
			_, err := e.BatchKNN(ctx, []KNNRequest{{Q: q, K: 3, Tau: 0.3}, {Q: db[7], K: 2, Tau: 0.6}})
			return err
		}},
		{"rknn", func(ctx context.Context) error { _, err := e.RKNN(ctx, q, 3, 0.3); return err }},
		{"topk", func(ctx context.Context) error { _, err := e.TopKNN(ctx, q, 3, 4); return err }},
		{"inverse_rank", func(ctx context.Context) error { _, err := e.InverseRank(ctx, db[0], q); return err }},
		{"expected_rank", func(ctx context.Context) error { _, err := e.RankByExpectedRank(ctx, q); return err }},
		{"ukranks", func(ctx context.Context) error { _, err := e.UKRanks(ctx, q, 3); return err }},
	}
	for _, c := range calls {
		before, lat := anatomy(e.obs), latencies(e.obs)
		tr := &obs.Trace{}
		if err := c.run(obs.WithTrace(bg, tr)); err != nil {
			t.Fatalf("%s: %v", c.kind, err)
		}
		snap := tr.Snapshot()
		if d := minus(anatomy(e.obs), before); d != counts(snap) {
			t.Fatalf("%s: counter deltas %+v, trace %+v", c.kind, d, snap)
		}
		if snap.Candidates == 0 || snap.Preselected+snap.Refined != snap.Candidates {
			t.Fatalf("%s: preselected %d + refined %d != candidates %d",
				c.kind, snap.Preselected, snap.Refined, snap.Candidates)
		}
		if snap.CacheHits+snap.CacheMisses == 0 {
			t.Fatalf("%s: trace saw no decomposition-cache traffic", c.kind)
		}
		if snap.Prepare <= 0 || snap.Eval <= 0 {
			t.Fatalf("%s: phase durations prepare=%v eval=%v, want both > 0", c.kind, snap.Prepare, snap.Eval)
		}
		lat[c.kind]++
		if got := latencies(e.obs); !reflect.DeepEqual(got, lat) {
			t.Fatalf("%s: latency counts %v, want %v", c.kind, got, lat)
		}
	}
	if s := (obs.TraceSnapshot{Candidates: 1}).String(); !strings.Contains(s, "candidates=1") {
		t.Fatalf("TraceSnapshot.String() = %q, want candidate anatomy", s)
	}

	// A standing query's re-evaluation counts its verdict (and its
	// private overlay's cache traffic) but no candidate and no latency.
	for i, b := range db[:8] {
		before, lat := anatomy(e.obs), latencies(e.obs)
		m, pruned := e.EvalKNNCandidate(q, b, 3, 0.3, e.KNNThreshold(q, 3), nil)
		d := minus(anatomy(e.obs), before)
		want := obs.TraceSnapshot{Preselected: 1}
		if !pruned {
			want = obs.TraceSnapshot{Refined: 1, Iterations: uint64(m.Iterations)}
			if !m.Decided {
				want.Undecided = 1
			}
		}
		want.CacheHits, want.CacheMisses = d.CacheHits, d.CacheMisses
		if d != want {
			t.Fatalf("EvalKNNCandidate %d: counter deltas %+v, want %+v", i, d, want)
		}
		if got := latencies(e.obs); !reflect.DeepEqual(got, lat) {
			t.Fatalf("EvalKNNCandidate %d: latency counts %v, want %v", i, got, lat)
		}
	}

	// Cancelled mid-evaluation: the partial work is folded in, the
	// latency is not observed.
	before, lat := anatomy(e.obs), latencies(e.obs)
	ctx := &cancelAfter{Context: bg}
	ctx.n.Store(2)
	tr := &obs.Trace{}
	if _, err := e.KNN(obs.WithTrace(ctx, tr), q, 3, 0.3); !errors.Is(err, context.Canceled) {
		t.Fatalf("KNN under a cancelled context: err %v, want context.Canceled", err)
	}
	snap := tr.Snapshot()
	if d := minus(anatomy(e.obs), before); d != counts(snap) {
		t.Fatalf("cancelled KNN: counter deltas %+v, trace %+v", d, snap)
	}
	if done := snap.Preselected + snap.Refined; done == 0 || done >= snap.Candidates {
		t.Fatalf("cancelled KNN decided %d of %d candidates, want some but not all", done, snap.Candidates)
	}
	if got := latencies(e.obs); !reflect.DeepEqual(got, lat) {
		t.Fatalf("cancelled KNN: latency counts %v, want %v", got, lat)
	}

	// Slow-query capture: an untraced query's event carries the same
	// anatomy as a traced run of the same query.
	rec := obs.NewRecorder(64)
	e.obs.SetRecorder(rec)
	e.obs.SetSlowQueryThreshold(time.Nanosecond)
	defer e.obs.SetRecorder(nil)
	lastSlow := func() obs.Event {
		evs := rec.Snapshot()
		if len(evs) == 0 || evs[len(evs)-1].Kind != obs.EvSlowQuery || !evs[len(evs)-1].HasTrace {
			t.Fatalf("no slow-query event with a trace last in %+v", evs)
		}
		return evs[len(evs)-1]
	}
	verdicts := func(s obs.TraceSnapshot) obs.TraceSnapshot {
		s = counts(s)
		s.CacheHits, s.CacheMisses = s.CacheHits+s.CacheMisses, 0
		return s
	}
	for _, c := range calls {
		if err := c.run(bg); err != nil {
			t.Fatal(err)
		}
		untraced := lastSlow()
		if untraced.Note != c.kind {
			t.Fatalf("slow-query event note %q, want %q", untraced.Note, c.kind)
		}
		tr := &obs.Trace{}
		if err := c.run(obs.WithTrace(bg, tr)); err != nil {
			t.Fatal(err)
		}
		traced := lastSlow()
		if verdicts(untraced.Trace) != verdicts(tr.Snapshot()) || verdicts(traced.Trace) != verdicts(tr.Snapshot()) {
			t.Fatalf("%s: untraced slow event %+v, traced event %+v, trace %+v",
				c.kind, untraced.Trace, traced.Trace, tr.Snapshot())
		}
	}
}

// TestQueryMetricsAllKinds: each query entry point lands in its own
// latency histogram.
func TestQueryMetricsAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := smallDB(rng, 30, 4)
	e := newSnapshot(t, db, core.Options{MaxIterations: 2})
	q := randObj(rng, -1, 4, 5, 5, 1.5)
	ctx := context.Background()

	if _, err := e.KNN(ctx, q, 2, 0.3); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RKNN(ctx, q, 2, 0.3); err != nil {
		t.Fatal(err)
	}
	if _, err := e.TopKNN(ctx, q, 2, 3); err != nil {
		t.Fatal(err)
	}
	must(e.InverseRank(bg, db[0], q))
	if _, err := e.RankByExpectedRank(ctx, q); err != nil {
		t.Fatal(err)
	}
	if _, err := e.UKRanks(ctx, q, 2); err != nil {
		t.Fatal(err)
	}

	m := obs.PointsMap(e.obs.Registry().Points())
	for _, kind := range []string{"knn", "rknn", "topk", "inverse_rank", "expected_rank", "ukranks"} {
		if got := m["query."+kind+".latency.count"]; got != 1 {
			t.Fatalf("query.%s.latency.count = %d, want 1", kind, got)
		}
	}
}

// TestNilMetricsSafe: a zero-constructed engine (no Metrics) serves
// queries without panicking — every record path tolerates nil.
func TestNilMetricsSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db := smallDB(rng, 20, 4)
	e := newSnapshot(t, db, core.Options{MaxIterations: 2})
	e.obs = nil
	q := randObj(rng, -1, 4, 5, 5, 1.5)
	if _, err := e.KNN(context.Background(), q, 2, 0.3); err != nil {
		t.Fatal(err)
	}
	if _, err := e.TopKNN(context.Background(), q, 2, 3); err != nil {
		t.Fatal(err)
	}
	var m *Metrics
	if m.Registry() != nil {
		t.Fatal("nil Metrics has a registry")
	}
}

// TestStoreMetricsShared: a store's snapshot engines all record into
// the store's one metric set, so STATS sees every query ever served.
func TestStoreMetricsShared(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := smallDB(rng, 30, 4)
	s, err := NewStore(db, core.Options{MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := randObj(rng, -1, 4, 5, 5, 1.5)
	ctx := context.Background()
	if _, err := s.Snapshot().KNN(ctx, q, 2, 0.3); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(randObj(rng, db[0].ID, 4, 5, 5, 1.5)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot().KNN(ctx, q, 2, 0.3); err != nil { // fresh snapshot engine
		t.Fatal(err)
	}
	if got := obs.PointsMap(s.Metrics().Registry().Points())["query.knn.latency.count"]; got != 2 {
		t.Fatalf("store counted %d KNN queries across snapshots, want 2", got)
	}
}

// TestKNNTraceCounts pins what the trace frame means now that the kNN
// queries take their candidates from the index: on a seeded 10³-object
// database, at tau 0, ½ and 1 and on one and three shards, KNN,
// BatchKNN and TopKNN still answer for every object but q
// (candidates = N − 1 per request), count every object outside the
// preselection ball as preselected (N − 1 − |Within(q, m_{k+1})|; the
// whole ball at tau = 0, where nothing is pruned), and refine,
// iterate and leave undecided exactly what the full-scan reference
// does.
func TestKNNTraceCounts(t *testing.T) {
	db, err := workload.Synthetic(workload.SyntheticConfig{N: 1000, Samples: 4, MaxExtent: 0.03, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{MaxIterations: 2}
	ref := fullScan{db, opts}
	q, n, k := db[321], uint64(len(db)-1), 6
	refThresh := ref.knnThreshold(q, k)
	traced := func(query func(ctx context.Context)) obs.TraceSnapshot {
		tr := &obs.Trace{}
		query(obs.WithTrace(bg, tr))
		return counts(tr.Snapshot())
	}
	for _, shards := range []int{1, 3} {
		store, err := NewShardedStore(db, ShardedOptions{Shards: shards}, opts)
		if err != nil {
			t.Fatal(err)
		}
		sn := store.Snapshot()
		inBall := uint64(len(sn.Within(q, sn.KNNThreshold(q, k))))
		if inBall == 0 || inBall > n/10 {
			t.Fatalf("%d objects in the ball of %d — the preselection is not exercised", inBall, n)
		}
		for _, tau := range []float64{0, 0.5, 1} {
			// The reference's anatomy: every object it does not
			// preselect is refined.
			want := obs.TraceSnapshot{Candidates: n, Preselected: n}
			for _, m := range ref.knn(q, k, tau) {
				if tau > 0 && knnPrunable(m.Object, q, refThresh, ref.norm()) {
					continue
				}
				want.Preselected--
				want.Refined++
				want.Iterations += uint64(m.Iterations)
				if !m.Decided {
					want.Undecided++
				}
			}
			if tau > 0 && want.Preselected != n-inBall {
				t.Fatalf("tau %g: the reference preselects %d, the ball leaves out %d", tau, want.Preselected, n-inBall)
			}
			got := traced(func(ctx context.Context) { must(sn.KNN(ctx, q, k, tau)) })
			if got.CacheHits, got.CacheMisses = 0, 0; got != want {
				t.Fatalf("%d shards, tau %g: KNN trace %+v, want %+v", shards, tau, got, want)
			}
			got = traced(func(ctx context.Context) {
				must(sn.BatchKNN(ctx, []KNNRequest{{Q: q, K: k, Tau: tau}, {Q: q, K: k, Tau: tau}}))
			})
			twice := obs.TraceSnapshot{
				Candidates: 2 * want.Candidates, Preselected: 2 * want.Preselected, Refined: 2 * want.Refined,
				Undecided: 2 * want.Undecided, Iterations: 2 * want.Iterations,
			}
			if got.CacheHits, got.CacheMisses = 0, 0; got != twice {
				t.Fatalf("%d shards, tau %g: BatchKNN trace %+v, want %+v", shards, tau, got, twice)
			}
		}
		var top []Match
		got := traced(func(ctx context.Context) { top = must(sn.TopKNN(ctx, q, k, 3)) })
		undecided := uint64(0)
		for _, m := range top {
			if !m.Decided {
				undecided++
			}
		}
		if got.Candidates != n || got.Preselected != n-inBall || got.Refined != inBall || got.Undecided != undecided {
			t.Fatalf("%d shards: TopKNN trace %+v, want %d candidates, %d preselected, %d refined, %d undecided",
				shards, got, n, n-inBall, inBall, undecided)
		}
	}
}
