// Package benchscen holds the repository's key benchmark scenario
// bodies in ONE place, consumed both by the `go test -bench` wrappers
// (internal/cq) and by cmd/bench, which writes the committed
// machine-readable report (BENCH_PR3.json). Keeping a single copy
// guarantees the published numbers and the in-tree benchmarks measure
// literally the same code — a parameter tweak cannot silently diverge.
//
// Scenarios use the public root API only, on a synthetic database of
// configurable size (1000 objects for the committed report).
package benchscen

import (
	"context"
	"math/rand"
	"testing"

	"probprune"
)

// Shared scenario parameters: the standing-query fleet size and the
// kNN predicate of the continuous-query pair.
const (
	Subs = 8
	K    = 5
	Tau  = 0.3
)

// MustDB builds the benchmark database: n clustered uncertain objects,
// 8 samples each, fixed seed.
func MustDB(n int) probprune.Database {
	db, err := probprune.Synthetic(probprune.SyntheticConfig{N: n, Samples: 8, MaxExtent: 0.02, Seed: 99})
	if err != nil {
		panic(err)
	}
	return db
}

func mustStore(b *testing.B, db probprune.Database) *probprune.Store {
	b.Helper()
	s, err := probprune.NewStore(db, probprune.Options{MaxIterations: 3})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func queryPoints(rng *rand.Rand) []*probprune.Object {
	qs := make([]*probprune.Object, Subs)
	for i := range qs {
		qs[i] = probprune.PointObject(-(i + 1), probprune.Point{rng.Float64(), rng.Float64()})
	}
	return qs
}

func randObject(b *testing.B, rng *rand.Rand, id int) *probprune.Object {
	b.Helper()
	cx, cy := rng.Float64(), rng.Float64()
	pts := make([]probprune.Point, 4)
	for i := range pts {
		pts[i] = probprune.Point{cx + rng.Float64()*0.02, cy + rng.Float64()*0.02}
	}
	o, err := probprune.NewObject(id, pts)
	if err != nil {
		b.Fatal(err)
	}
	return o
}

// EngineKNN: one-shot threshold kNN on a frozen engine.
func EngineKNN(b *testing.B, db probprune.Database) {
	e := probprune.NewEngine(db, probprune.Options{MaxIterations: 3})
	q := probprune.PointObject(-1, probprune.Point{0.5, 0.5})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.KNN(q, K, Tau)
	}
}

// StoreWarmKNN: repeated kNN on a live store with a warm persistent
// decomposition cache.
func StoreWarmKNN(b *testing.B, db probprune.Database) {
	s := mustStore(b, db)
	q := probprune.PointObject(-1, probprune.Point{0.5, 0.5})
	s.KNN(q, K, Tau) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.KNN(q, K, Tau)
	}
}

// StoreBatchKNN16: a 16-request batch pooled on one snapshot.
func StoreBatchKNN16(b *testing.B, db probprune.Database) {
	s := mustStore(b, db)
	rng := rand.New(rand.NewSource(3))
	reqs := make([]probprune.KNNRequest, 16)
	for i := range reqs {
		reqs[i] = probprune.KNNRequest{
			Q:   probprune.PointObject(-(i + 1), probprune.Point{rng.Float64(), rng.Float64()}),
			K:   K,
			Tau: Tau,
		}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.BatchKNN(ctx, reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// ServingBatchKNN returns the serving scenario at a given shard count:
// a Store in serving mode (a watcher is attached, so every commit
// publishes a snapshot for the change stream) sustains an interleave of
// WritesPerBatch object updates and one 16-request BatchKNN per op. The
// refinement work is identical at every shard count — scatter-gather
// merging is exact — but each commit's copy-on-write detach clones only
// the mutated shard's R-tree: O(n/N) instead of O(n). Comparing shard
// counts 1 and 8 therefore measures the sharding win on the live
// serving path.
//
// The scenario shards spatially (unit-square stripes) and models a
// fleet-style workload: updates drift objects locally (small jitter
// around their current position) and every op ends with an online
// Rebalance re-homing stripe-crossers — both on the clock. Spatial
// sharding keeps each shard's R-tree nodes tight, so per-shard filter
// walks decide subtrees (often the whole shard) wholesale, exactly like
// the monolithic tree; hash sharding would spread every shard over the
// full extent and tax the scatter phase.
func ServingBatchKNN(shards int) func(b *testing.B, db probprune.Database) {
	return func(b *testing.B, db probprune.Database) {
		s, err := probprune.NewShardedStore(db,
			probprune.ShardedOptions{Shards: shards, Partition: probprune.StripeShards(0, 0, 1)},
			probprune.Options{MaxIterations: 3})
		if err != nil {
			b.Fatal(err)
		}
		_, stop := s.Watch(func(probprune.Change) {}) // serving mode
		defer stop()
		rng := rand.New(rand.NewSource(3))
		reqs := make([]probprune.KNNRequest, 16)
		for i := range reqs {
			reqs[i] = probprune.KNNRequest{
				Q:   probprune.PointObject(-(i + 1), probprune.Point{rng.Float64(), rng.Float64()}),
				K:   K,
				Tau: Tau,
			}
		}
		ctx := context.Background()
		if _, err := s.BatchKNN(ctx, reqs); err != nil { // warm the caches
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for w := 0; w < WritesPerBatch; w++ {
				victim, _ := s.Get(db[rng.Intn(len(db))].ID)
				if err := s.Update(driftObject(b, rng, victim)); err != nil {
					b.Fatal(err)
				}
			}
			s.Rebalance()
			if _, err := s.BatchKNN(ctx, reqs); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// driftObject moves an object a small step from its current position,
// reflecting at the unit-square borders — the fleet-tracking mutation
// pattern (objects travel inside the city, they do not teleport or
// leave), which keeps the spatial distribution stationary over
// arbitrarily long benchmark runs.
func driftObject(b *testing.B, rng *rand.Rand, o *probprune.Object) *probprune.Object {
	b.Helper()
	reflect := func(c float64) float64 {
		if c < 0 {
			return -c
		}
		if c > 1 {
			return 2 - c
		}
		return c
	}
	cx := reflect((o.MBR.Min[0]+o.MBR.Max[0])/2 + (rng.Float64()-0.5)*0.06)
	cy := reflect((o.MBR.Min[1]+o.MBR.Max[1])/2 + (rng.Float64()-0.5)*0.06)
	pts := make([]probprune.Point, 4)
	for i := range pts {
		pts[i] = probprune.Point{cx + rng.Float64()*0.02, cy + rng.Float64()*0.02}
	}
	n, err := probprune.NewObject(o.ID, pts)
	if err != nil {
		b.Fatal(err)
	}
	return n
}

// WritesPerBatch is the write half of the serving interleave.
const WritesPerBatch = 32

// StoreBuild returns the ingest scenario: full Store construction
// (router bookkeeping plus one concurrent STR bulk load per shard) at a
// given shard count.
func StoreBuild(shards int) func(b *testing.B, db probprune.Database) {
	return func(b *testing.B, db probprune.Database) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := probprune.NewShardedStore(db, probprune.ShardedOptions{Shards: shards}, probprune.Options{MaxIterations: 3}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// WALIngest: journaled update throughput on a durable store — the
// write-ahead-log cost of the serving path. Every commit frames,
// CRC-stamps and writes one record before the copy-on-write publish
// (SyncOS policy: no fsync on the clock); compare with StoreWarmKNN's
// in-memory sibling store to read the durability tax.
func WALIngest(b *testing.B, db probprune.Database) {
	s, err := probprune.BootstrapStore(db,
		probprune.PersistOptions{Dir: b.TempDir()},
		probprune.Options{MaxIterations: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim, _ := s.Get(db[rng.Intn(len(db))].ID)
		if err := s.Update(driftObject(b, rng, victim)); err != nil {
			b.Fatal(err)
		}
	}
}

// recoveryJournal writes the shared recovery fixture: an empty
// bootstrap followed by one journaled insert per object (plus a warm
// query so the decomposition cache has something to checkpoint), then
// optionally a checkpoint absorbing the log.
func recoveryJournal(b *testing.B, db probprune.Database, checkpoint bool) probprune.PersistOptions {
	b.Helper()
	popts := probprune.PersistOptions{Dir: b.TempDir()}
	opts := probprune.Options{MaxIterations: 3}
	s, err := probprune.BootstrapStore(nil, popts, opts)
	if err != nil {
		b.Fatal(err)
	}
	for _, o := range db {
		if err := s.Insert(o); err != nil {
			b.Fatal(err)
		}
	}
	s.KNN(probprune.PointObject(-1, probprune.Point{0.5, 0.5}), K, Tau)
	if checkpoint {
		if err := s.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	return popts
}

// RecoveryCold: reopening a store whose whole database lives in the
// log — checkpoint-free recovery decodes and replays one record per
// object and rebuilds the index from scratch.
func RecoveryCold(b *testing.B, db probprune.Database) {
	popts := recoveryJournal(b, db, false)
	opts := probprune.Options{MaxIterations: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := probprune.OpenStore(popts, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}

// RecoveryCheckpoint: reopening the same database from a checkpoint
// with an empty log tail — the state (including the materialized
// decomposition cache) loads in one pass, nothing replays. The ratio
// to RecoveryCold is cmd/bench's recovery_checkpoint_speedup.
func RecoveryCheckpoint(b *testing.B, db probprune.Database) {
	popts := recoveryJournal(b, db, true)
	opts := probprune.Options{MaxIterations: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := probprune.OpenStore(popts, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}

// IndexBulkLoad: STR bulk construction of the R-tree.
func IndexBulkLoad(b *testing.B, db probprune.Database) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probprune.NewIndex(db)
	}
}

// CQMaintain: one mutation against a store with Subs standing KNN
// subscriptions, maintained incrementally by a Monitor. Reports the
// IDCA evaluations maintenance spent per mutation as idca-runs/op.
func CQMaintain(b *testing.B, db probprune.Database) {
	s := mustStore(b, db)
	m := probprune.NewMonitor(s, probprune.MonitorOptions{Buffer: 1 << 12, Policy: probprune.DropOldest})
	defer m.Close()
	rng := rand.New(rand.NewSource(7))
	for _, q := range queryPoints(rng) {
		if _, err := m.SubscribeKNN(q, K, Tau); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	runs0 := m.Stats().Runs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim := db[rng.Intn(len(db))].ID
		if err := s.Update(randObject(b, rng, victim)); err != nil {
			b.Fatal(err)
		}
		if err := m.Sync(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(m.Stats().Runs-runs0)/float64(b.N), "idca-runs/op")
}

// CQRequery: the naive way to keep the same standing queries current —
// re-run every query after every mutation. The idca-runs/op metric
// counts the candidates that survived preselection (one IDCA run each);
// the counting pass itself runs off the clock.
func CQRequery(b *testing.B, db probprune.Database) {
	s := mustStore(b, db)
	rng := rand.New(rand.NewSource(7))
	qs := queryPoints(rng)
	var runs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim := db[rng.Intn(len(db))].ID
		if err := s.Update(randObject(b, rng, victim)); err != nil {
			b.Fatal(err)
		}
		for _, q := range qs {
			s.KNN(q, K, Tau)
		}
		// Accounting only — keep it out of the timed section.
		b.StopTimer()
		e := s.Snapshot().Engine()
		for _, q := range qs {
			thresh := e.KNNThreshold(q, K)
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
