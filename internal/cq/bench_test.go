package cq_test

import (
	"context"
	"math/rand"
	"testing"

	"probprune/internal/core"
	"probprune/internal/cq"
	"probprune/internal/geom"
	"probprune/internal/query"
	"probprune/internal/uncertain"
	"probprune/internal/workload"
)

// The benchmark pair quantifying the incrementality claim: on a stable
// 1k-object database with benchSubs standing KNN queries,
// BenchmarkCQMaintain applies one mutation and lets the monitor maintain
// every subscription incrementally, while BenchmarkCQRequery applies the
// same mutation and re-runs every query from scratch. Compare wall time
// and the idca-runs/op metric.

const (
	benchSubs = 8
	benchK    = 5
	benchTau  = 0.3
)

// benchStore is a volatile store over 1000 clustered 8-sample objects,
// plus benchSubs query points drawn from rng.
func benchStore(b *testing.B, rng *rand.Rand) (*query.Store, []*uncertain.Object) {
	b.Helper()
	db, err := workload.Synthetic(workload.SyntheticConfig{N: 1000, Samples: 8, MaxExtent: 0.02, Seed: 99})
	if err != nil {
		b.Fatal(err)
	}
	s, err := query.NewStore(db, core.Options{MaxIterations: 3})
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]*uncertain.Object, benchSubs)
	for i := range qs {
		qs[i] = uncertain.PointObject(-(i + 1), geom.Point{rng.Float64(), rng.Float64()})
	}
	return s, qs
}

// mutate replaces a random object with a fresh 4-sample one at a random
// place.
func mutate(b *testing.B, s *query.Store, rng *rand.Rand) {
	b.Helper()
	id := rng.Intn(s.Len()) // Synthetic IDs are 0..N-1 and none is deleted
	cx, cy := rng.Float64(), rng.Float64()
	pts := make([]geom.Point, 4)
	for i := range pts {
		pts[i] = geom.Point{cx + rng.Float64()*0.02, cy + rng.Float64()*0.02}
	}
	o, err := uncertain.NewObject(id, pts)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Update(o); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCQMaintain reports the IDCA evaluations maintenance spent per
// mutation as idca-runs/op.
func BenchmarkCQMaintain(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	s, qs := benchStore(b, rng)
	m := cq.NewMonitor(s, cq.Options{Buffer: 1 << 12, Policy: cq.DropOldest})
	defer m.Close()
	for _, q := range qs {
		if _, err := m.SubscribeKNN(q, benchK, benchTau); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	runs0 := m.Stats().Runs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mutate(b, s, rng)
		if err := m.Sync(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(m.Stats().Runs-runs0)/float64(b.N), "idca-runs/op")
}

// BenchmarkCQRequery: idca-runs/op counts the candidates that survived
// preselection (one IDCA run each); the counting pass runs off the
// clock.
func BenchmarkCQRequery(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	s, qs := benchStore(b, rng)
	var runs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mutate(b, s, rng)
		for _, q := range qs {
			s.KNN(q, benchK, benchTau)
		}
		b.StopTimer()
		e := s.Snapshot().Engine()
		for _, q := range qs {
			thresh := e.KNNThreshold(q, benchK)
			for _, o := range e.Database() {
				if o != q && !e.KNNPrunable(q, o, thresh) {
					runs++
				}
			}
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(runs)/float64(b.N), "idca-runs/op")
}
