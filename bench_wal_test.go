// Benchmarks for the durability layer: journaled update throughput,
// recovery cost cold (whole database replayed from the log) versus from
// a checkpoint plus empty tail, SyncAlways ingest with and without group
// commit, and commit latency while background checkpoints run. All run
// on benchDB with MaxIterations 3.
package probprune_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"probprune"
	"probprune/internal/obs"
)

var benchOpts = probprune.Options{MaxIterations: 3}

// benchDB is the durability and sharded benchmarks' database: 1000
// clustered 8-sample objects, fixed seed.
func benchDB(b *testing.B) probprune.Database {
	b.Helper()
	db, err := probprune.Synthetic(probprune.SyntheticConfig{N: 1000, Samples: 8, MaxExtent: 0.02, Seed: 99})
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// driftObject moves an object a small step from its current position,
// reflecting at the unit-square borders — the fleet-tracking mutation
// pattern (objects travel inside the city, they do not teleport or
// leave), which keeps the spatial distribution stationary over
// arbitrarily long benchmark runs.
func driftObject(b *testing.B, rng *rand.Rand, o *probprune.Object) *probprune.Object {
	b.Helper()
	reflect := func(c float64) float64 { return min(max(c, -c), 2-c) } // mirror into [0, 1]
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

// driftRandom drifts a random object of db's ID set on s.
func driftRandom(b *testing.B, s *probprune.Store, db probprune.Database, rng *rand.Rand) error {
	victim, _ := s.Get(db[rng.Intn(len(db))].ID)
	return s.Update(driftObject(b, rng, victim))
}

// bootstrap creates a durable one-shard store over db in a fresh
// directory, closed with the benchmark.
func bootstrap(b *testing.B, db probprune.Database, popts probprune.PersistOptions) *probprune.Store {
	b.Helper()
	popts.Dir = b.TempDir()
	s, err := probprune.BootstrapStore(db, popts, benchOpts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

// BenchmarkWALIngest: every commit frames, CRC-stamps and writes one
// record before the copy-on-write publish (SyncOS policy: no fsync on
// the clock).
func BenchmarkWALIngest(b *testing.B) {
	db := benchDB(b)
	s := bootstrap(b, db, probprune.PersistOptions{})
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := driftRandom(b, s, db, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRecovery times reopening a store journaled as an empty bootstrap
// plus one insert per object, after knns KNNs ran on it, optionally
// absorbed by a checkpoint. It reports the size of the checkpoint file
// (ckpt-bytes; without a checkpoint, the empty bootstrap one) and the
// first KNN after each reopen
// (first-knn-ns, off the reopen timer), which decomposes what it
// touches from the samples.
func benchRecovery(b *testing.B, knns int, checkpoint bool) {
	popts := probprune.PersistOptions{Dir: b.TempDir()}
	s, err := probprune.BootstrapStore(nil, popts, benchOpts)
	if err != nil {
		b.Fatal(err)
	}
	for _, o := range benchDB(b) {
		if err := s.Insert(o); err != nil {
			b.Fatal(err)
		}
	}
	q := probprune.PointObject(-1, probprune.Point{0.5, 0.5})
	rng := rand.New(rand.NewSource(8))
	s.KNN(q, 5, 0.3)
	for i := 1; i < knns; i++ {
		s.KNN(probprune.PointObject(-1, probprune.Point{rng.Float64(), rng.Float64()}), 5, 0.3)
	}
	if checkpoint {
		if err := s.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	var ckptBytes int64
	cks, _ := filepath.Glob(filepath.Join(popts.Dir, "*.ckpt"))
	for _, path := range cks {
		if fi, err := os.Stat(path); err == nil {
			ckptBytes += fi.Size()
		}
	}
	var firstKNN time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := probprune.OpenStore(popts, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		start := time.Now()
		s.KNN(q, 5, 0.3)
		firstKNN += time.Since(start)
		s.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(ckptBytes), "ckpt-bytes")
	b.ReportMetric(float64(firstKNN.Nanoseconds())/float64(b.N), "first-knn-ns")
}

// BenchmarkRecoveryCold: checkpoint-free recovery decodes and replays
// one record per object and rebuilds the index from scratch.
func BenchmarkRecoveryCold(b *testing.B) { benchRecovery(b, 1, false) }

// BenchmarkRecoveryCheckpoint: the objects load in one pass from a
// checkpoint taken after one KNN, nothing replays.
func BenchmarkRecoveryCheckpoint(b *testing.B) { benchRecovery(b, 1, true) }

// BenchmarkRecoveryCheckpointWarm: as BenchmarkRecoveryCheckpoint, but
// 200 KNNs ran before the checkpoint. A checkpoint holds objects only,
// so its size, its reopen time and the first KNN after it match the
// one-KNN variant.
func BenchmarkRecoveryCheckpointWarm(b *testing.B) { benchRecovery(b, 200, true) }

// BenchmarkDurableIngestSerial: SyncAlways updates from one committer,
// so every commit pays a full fsync — the baseline of
// BenchmarkDurableIngestGroupCommit.
func BenchmarkDurableIngestSerial(b *testing.B) {
	db := benchDB(b)
	s := bootstrap(b, db, probprune.PersistOptions{Sync: probprune.SyncAlways})
	rng := rand.New(rand.NewSource(5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := driftRandom(b, s, db, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDurableIngestGroupCommit: the same update stream from 8
// committers per GOMAXPROCS. One leader fsync acknowledges every append
// that landed before it, so a commit pays ~1/batch of an fsync.
// Committers block in the durability wait, not on a P, so the batch
// forms at GOMAXPROCS=1 too.
func BenchmarkDurableIngestGroupCommit(b *testing.B) {
	db := benchDB(b)
	s := bootstrap(b, db, probprune.PersistOptions{Sync: probprune.SyncAlways})
	var seed atomic.Int64
	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(500 + seed.Add(1)))
		for pb.Next() {
			if err := driftRandom(b, s, db, rng); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkCheckpointUnderLoad: journaled updates with a checkpoint
// every 64 commits. A commit pays only the snapshot pin; encoding and
// installing run in the background, and pins submitted while an install
// is busy coalesce. A synchronous checkpoint would stall more than 1% of
// commits for a full database encode, which p99-commit-ns would show.
func BenchmarkCheckpointUnderLoad(b *testing.B) {
	db := benchDB(b)
	s := bootstrap(b, db, probprune.PersistOptions{CheckpointEvery: 64})
	rng := rand.New(rand.NewSource(6))
	lat := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim, _ := s.Get(db[rng.Intn(len(db))].ID)
		o := driftObject(b, rng, victim)
		start := time.Now()
		err := s.Update(o)
		lat = append(lat, time.Since(start))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)*99/100]), "p99-commit-ns")
	b.ReportMetric(float64(lat[len(lat)-1]), "max-commit-ns")
	b.ReportMetric(float64(obs.PointsMap(s.Metrics().Registry().Points())["store.checkpoint.coalesced"])/float64(b.N), "ckpt-coalesced/op")
}
