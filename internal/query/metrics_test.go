package query

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"probprune/internal/core"
	"probprune/internal/obs"
)

// TestQueryMetricsAndTrace: a KNN query records its full anatomy into
// both the engine's Metrics and a per-query Trace threaded through the
// context, and the two agree on the filter economy.
func TestQueryMetricsAndTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := smallDB(rng, 60, 5)
	e := newSnapshot(t, db, core.Options{MaxIterations: 3})
	q := randObj(rng, -1, 5, 5, 5, 1.5)

	tr := &obs.Trace{}
	ctx := obs.WithTrace(context.Background(), tr)
	if _, err := e.KNN(ctx, q, 3, 0.3); err != nil {
		t.Fatal(err)
	}

	snap := tr.Snapshot()
	if snap.Candidates == 0 {
		t.Fatal("trace counted no candidates")
	}
	if snap.Preselected+snap.Refined != snap.Candidates {
		t.Fatalf("preselected %d + refined %d != candidates %d",
			snap.Preselected, snap.Refined, snap.Candidates)
	}
	if snap.CacheHits+snap.CacheMisses == 0 {
		t.Fatal("trace saw no decomposition-cache traffic")
	}
	if snap.Prepare <= 0 || snap.Eval <= 0 {
		t.Fatalf("phase durations prepare=%v eval=%v, want both > 0", snap.Prepare, snap.Eval)
	}
	if s := snap.String(); !strings.Contains(s, "candidates=") {
		t.Fatalf("TraceSnapshot.String() = %q, want candidate anatomy", s)
	}

	m := obs.PointsMap(e.obs.Registry().Points())
	if got := m["query.knn.latency.count"]; got != 1 {
		t.Fatalf("query.knn.latency.count = %d, want 1", got)
	}
	if got := m["query.candidates"]; got != int64(snap.Candidates) {
		t.Fatalf("engine candidates %d, trace %d", got, snap.Candidates)
	}
	if got := m["query.preselected"]; got != int64(snap.Preselected) {
		t.Fatalf("engine preselected %d, trace %d", got, snap.Preselected)
	}
	if got := m["query.refined"]; got != int64(snap.Refined) {
		t.Fatalf("engine refined %d, trace %d", got, snap.Refined)
	}
	if m["query.cache.hits"]+m["query.cache.misses"] == 0 {
		t.Fatal("engine saw no decomposition-cache traffic")
	}

	// Every other kind's latency histogram stays empty.
	for _, kind := range []string{"rknn", "topk", "inverse_rank", "expected_rank", "ukranks", "batch_knn"} {
		if got := m["query."+kind+".latency.count"]; got != 0 {
			t.Fatalf("query.%s.latency.count = %d after a KNN-only run", kind, got)
		}
	}

	// InverseRank: its one candidate is refined, and the run's
	// iterations, phases and cache traffic land in the caller's trace.
	tr = &obs.Trace{}
	rd, err := e.InverseRank(obs.WithTrace(context.Background(), tr), db[0], q)
	if err != nil {
		t.Fatal(err)
	}
	snap = tr.Snapshot()
	if snap.Candidates != 1 || snap.Refined != 1 || snap.Iterations != uint64(len(rd.Result.Iterations)) {
		t.Fatalf("InverseRank trace candidates=%d refined=%d iterations=%d, want 1, 1, %d",
			snap.Candidates, snap.Refined, snap.Iterations, len(rd.Result.Iterations))
	}
	if snap.CacheHits+snap.CacheMisses == 0 {
		t.Fatal("InverseRank trace saw no decomposition-cache traffic")
	}
	if snap.Prepare <= 0 || snap.Eval <= 0 {
		t.Fatalf("InverseRank phase durations prepare=%v eval=%v, want both > 0", snap.Prepare, snap.Eval)
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
