//go:build !race

// Hard allocation ceilings for the hot query paths, enforced in plain
// test runs and in CI (the race detector instruments allocations, so
// the ceilings only hold — and only run — without -race). The numbers
// bound the regression budget for the flat-node R-tree + per-query
// arena work: a kNN query at db=1000 used to cost ~7,800 allocations;
// the ceilings pin it below 1,000 cold and 900 warm, with measured
// steady state several times lower still.

package probprune_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"probprune"
	"probprune/internal/obs"
	"probprune/internal/server"
	"probprune/internal/uncertain"
	"probprune/internal/workload"
)

// The kNN predicate of every query ceiling.
const (
	allocK   = 5
	allocTau = 0.3
)

// allocDB is the database every query ceiling measures: 1000 clustered
// 8-sample objects, fixed seed.
func allocDB(t *testing.T) probprune.Database {
	t.Helper()
	db, err := probprune.Synthetic(probprune.SyntheticConfig{N: 1000, Samples: 8, MaxExtent: 0.02, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestEngineKNNAllocCeiling: a threshold kNN query on a frozen engine
// (persistent pinned decomposition cache, pooled run arenas) stays
// under 1,000 allocations.
func TestEngineKNNAllocCeiling(t *testing.T) {
	db := allocDB(t)
	e := newEngine(t, db, probprune.Options{MaxIterations: 3})
	q := probprune.PointObject(-1, probprune.Point{0.5, 0.5})
	e.KNN(q, allocK, allocTau) // warm pools and decomposition cache
	allocs := testing.AllocsPerRun(5, func() {
		e.KNN(q, allocK, allocTau)
	})
	if allocs > 1000 {
		t.Fatalf("EngineKNN allocated %.0f times per query, ceiling 1000", allocs)
	}
	t.Logf("EngineKNN: %.0f allocs per query (ceiling 1000)", allocs)
}

// TestStoreWarmKNNAllocCeiling: the same query served warm from a live
// Store snapshot stays under 900 allocations.
func TestStoreWarmKNNAllocCeiling(t *testing.T) {
	db := allocDB(t)
	s, err := probprune.NewStore(db, probprune.Options{MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := probprune.PointObject(-1, probprune.Point{0.5, 0.5})
	s.KNN(q, allocK, allocTau) // warm the persistent cache
	allocs := testing.AllocsPerRun(5, func() {
		s.KNN(q, allocK, allocTau)
	})
	if allocs > 900 {
		t.Fatalf("StoreWarmKNN allocated %.0f times per query, ceiling 900", allocs)
	}
	t.Logf("StoreWarmKNN: %.0f allocs per query (ceiling 900)", allocs)
}

// TestStoreWarmKNNAllocCeilingRecorderArmed: the PR 10 observability
// work must not erode the audited hot path. The same warm-store query
// with the flight recorder installed and a slow-query threshold armed
// (the production shape of `udbserver -events -slow-query`) holds the
// same 900-allocation ceiling: the trace-off path records nothing and
// allocates nothing extra.
func TestStoreWarmKNNAllocCeilingRecorderArmed(t *testing.T) {
	db := allocDB(t)
	s, err := probprune.NewStore(db, probprune.Options{MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.SetRecorder(obs.NewRecorder(1024))
	s.SetSlowQueryThreshold(time.Hour) // armed, never fires here
	q := probprune.PointObject(-1, probprune.Point{0.5, 0.5})
	s.KNN(q, allocK, allocTau) // warm the persistent cache
	allocs := testing.AllocsPerRun(5, func() {
		s.KNN(q, allocK, allocTau)
	})
	if allocs > 900 {
		t.Fatalf("StoreWarmKNN with recorder armed allocated %.0f times per query, ceiling 900", allocs)
	}
	t.Logf("StoreWarmKNN recorder armed: %.0f allocs per query (ceiling 900)", allocs)
}

// TestShardedWarmKNNAllocCeiling: the warm query on a 4-shard store —
// the scatter-gather plane over per-shard indexes — has a budget of its
// own, so the multi-shard path cannot grow unnoticed behind the
// one-shard ceilings above.
func TestShardedWarmKNNAllocCeiling(t *testing.T) {
	db := allocDB(t)
	s, err := probprune.NewShardedStore(db, probprune.ShardedOptions{Shards: 4}, probprune.Options{MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := probprune.PointObject(-1, probprune.Point{0.5, 0.5})
	s.KNN(q, allocK, allocTau) // warm the persistent cache
	allocs := testing.AllocsPerRun(5, func() {
		s.KNN(q, allocK, allocTau)
	})
	if allocs > 400 {
		t.Fatalf("4-shard StoreWarmKNN allocated %.0f times per query, ceiling 400", allocs)
	}
	t.Logf("4-shard StoreWarmKNN: %.0f allocs per query (ceiling 400)", allocs)
}

// watchedStore builds the write path of a served store: a volatile
// one-shard Store of n 8-sample objects (extent 0.004) with a Watch hook
// attached, as udbserver attaches its continuous-query monitor at
// start, so every commit publishes a snapshot and the next one detaches
// the shard from it. It returns the store and a ring of seeded drift
// updates: each moves a random object a small step, 8 fresh samples in
// a box of the same extent, reflecting at the unit-square borders.
func watchedStore(tb testing.TB, n int) (*probprune.Store, []*probprune.Object) {
	tb.Helper()
	const extent = 0.004
	db, err := probprune.Synthetic(probprune.SyntheticConfig{N: n, Samples: 8, MaxExtent: extent, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := probprune.NewStore(db, probprune.Options{MaxIterations: 3})
	if err != nil {
		tb.Fatal(err)
	}
	// The publish and the detach it forces are the cost; what the hook
	// does with the change is not.
	s.Watch(func(probprune.Change) {})

	reflect := func(c float64) float64 { return min(max(c, -c), 2-c) } // mirror into [0, 1]
	rng := rand.New(rand.NewSource(5))
	cur := append(probprune.Database(nil), db...) // Synthetic IDs are indexes
	updates := make([]*probprune.Object, 1024)
	for i := range updates {
		o := cur[rng.Intn(n)]
		cx := reflect((o.MBR.Min[0]+o.MBR.Max[0])/2 + (rng.Float64()-0.5)*0.01)
		cy := reflect((o.MBR.Min[1]+o.MBR.Max[1])/2 + (rng.Float64()-0.5)*0.01)
		pts := make([]probprune.Point, 8)
		for j := range pts {
			pts[j] = probprune.Point{cx + (rng.Float64()-0.5)*extent, cy + (rng.Float64()-0.5)*extent}
		}
		if updates[i], err = probprune.NewObject(o.ID, pts); err != nil {
			tb.Fatal(err)
		}
		cur[o.ID] = updates[i]
	}
	return s, updates
}

// watchedBenchSizes are the store sizes of the watched-commit
// benchmarks: a commit copies pages, not the database, so its cost
// should barely move between them.
var watchedBenchSizes = []int{10000, 100000}

// TestStoreWatchedUpdateAllocCeiling: a watched Update copies only the
// R-tree pages and the object-slab chunk the commit writes, plus the
// two page tables, so it allocates at most 48 KB at 10^4 objects; a
// clone of the whole slab alone would be 80 KB.
func TestStoreWatchedUpdateAllocCeiling(t *testing.T) {
	s, updates := watchedStore(t, 10000)
	for _, o := range updates[:128] { // warm the tree's mutation scratch
		if err := s.Update(o); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, o := range updates {
		if err := s.Update(o); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(updates))
	if perOp > 48e3 {
		t.Fatalf("watched Update allocated %.0f B per op, ceiling 48000", perOp)
	}
	t.Logf("watched Update: %.0f B per op (ceiling 48000)", perOp)
}

// BenchmarkStoreWatchedUpdate: the commit cost TestStoreWatchedUpdateAllocCeiling
// bounds, in time and bytes per Update, at 10^4 and 10^5 objects.
func BenchmarkStoreWatchedUpdate(b *testing.B) {
	for _, n := range watchedBenchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s, updates := watchedStore(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Update(updates[i%len(updates)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// watchedDeletes returns count distinct seeded IDs of watchedStore's
// objects to delete.
func watchedDeletes(n, count int) []int {
	return rand.New(rand.NewSource(6)).Perm(n)[:count]
}

// TestStoreWatchedDeleteAllocCeiling: a watched Delete moves the slab's
// last object into the freed slot, so it copies at most two slab chunks
// and the R-tree pages it writes — at most 48 KB at 10^4 objects, the
// ceiling of an Update. Shifting the slab tail instead copied every
// chunk after the deleted slot.
func TestStoreWatchedDeleteAllocCeiling(t *testing.T) {
	const n = 10000
	s, updates := watchedStore(t, n)
	for _, o := range updates[:128] { // warm the tree's mutation scratch
		if err := s.Update(o); err != nil {
			t.Fatal(err)
		}
	}
	ids := watchedDeletes(n, 512)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, id := range ids {
		if ok, err := s.Delete(id); !ok || err != nil {
			t.Fatalf("delete of %d: %v, %v", id, ok, err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(ids))
	if perOp > 48e3 {
		t.Fatalf("watched Delete allocated %.0f B per op, ceiling 48000", perOp)
	}
	t.Logf("watched Delete: %.0f B per op (ceiling 48000)", perOp)
}

// BenchmarkStoreWatchedDelete: the commit cost TestStoreWatchedDeleteAllocCeiling
// bounds, in time and bytes per Delete, at 10^4 and 10^5 objects. Each
// deleted object is inserted back with the timer stopped, so the store
// keeps its size.
func BenchmarkStoreWatchedDelete(b *testing.B) {
	for _, n := range watchedBenchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s, _ := watchedStore(b, n)
			ids := watchedDeletes(n, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := ids[i%n]
				o, _ := s.Get(id)
				if ok, err := s.Delete(id); !ok || err != nil {
					b.Fatalf("delete of %d: %v, %v", id, ok, err)
				}
				b.StopTimer()
				if err := s.Insert(o); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// TestCheckpointAllocCeiling: a checkpoint is encoded into one buffer
// presized from its objects' encoded size and framed in place, so
// writing one allocates at most twice the file it writes — at 10^4
// 64-sample objects, where growing the buffer from nil and copying the
// payload into a frame allocated ~7x.
func TestCheckpointAllocCeiling(t *testing.T) {
	db, err := probprune.Synthetic(probprune.SyntheticConfig{N: 10000, Samples: 64, MaxExtent: 0.004, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := probprune.BootstrapStore(db, probprune.PersistOptions{Dir: dir}, probprune.Options{MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(files) != 1 {
		t.Fatalf("checkpoint files %v (%v), want one", files, err)
	}
	fi, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if ratio := float64(alloc) / float64(fi.Size()); ratio > 2 {
		t.Fatalf("a checkpoint write allocated %d B for a %d B file (%.2fx), ceiling 2x", alloc, fi.Size(), ratio)
	}
	t.Logf("checkpoint write: %d B allocated for a %d B file", alloc, fi.Size())
}

// TestSubscribeSessionAllocCeiling: a served subscription holds what
// its session ring holds, not a buffer sized for the worst case. 256
// SUBSCRIBE KNN sessions with small initial result sets, opened over
// one raw connection, grow the live heap by at most 16 KB each; a
// 4096-event channel per session would be 256 KiB.
func TestSubscribeSessionAllocCeiling(t *testing.T) {
	const sessions = 256
	db, err := probprune.Synthetic(probprune.SyntheticConfig{N: 2000, Samples: 8, MaxExtent: 0.004, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := probprune.NewStore(db, probprune.Options{MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(s, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	go io.Copy(io.Discard, nc) // replies and pushes: read, never kept

	rng := rand.New(rand.NewSource(2))
	w := server.NewWriter(nc)
	subscribe := func(n int) {
		for i := 0; i < n; i++ {
			q := probprune.PointObject(-1, probprune.Point{rng.Float64(), rng.Float64()})
			args := []string{"SUBSCRIBE", "KNN", "3", "0.5", string(server.EncodeObject(q))}
			f := server.Frame{Type: server.TArray}
			for _, a := range args {
				f.Array = append(f.Array, server.Frame{Type: server.TBulk, Bulk: []byte(a)})
			}
			if err := w.WriteFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	settle := func(want int64) uint64 {
		deadline := time.Now().Add(30 * time.Second)
		for {
			st := srv.StatsMap()
			if st["server.sessions"] == want && st["server.push.backlog"] == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("sessions never settled: %d of %d open, backlog %d",
					st["server.sessions"], want, st["server.push.backlog"])
			}
			time.Sleep(5 * time.Millisecond)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	subscribe(8) // warm the connection, the monitor and the pools
	before := settle(8)
	subscribe(sessions)
	after := settle(8 + sessions)
	perSession := (float64(after) - float64(before)) / sessions
	if perSession > 16<<10 {
		t.Fatalf("a served subscription holds %.0f B of heap, ceiling 16384", perSession)
	}
	t.Logf("served subscription: %.0f B of heap per session (ceiling 16384; %d events retained)",
		perSession, srv.StatsMap()["server.push.retained"])
}

// TestStoreBatchKNNAllocCeiling: a 16-request BatchKNN pools the
// candidates of all requests without a closure per candidate, so it
// costs at most 1.5x the allocations of the same 16 queries issued one
// by one.
func TestStoreBatchKNNAllocCeiling(t *testing.T) {
	db := allocDB(t)
	s, err := probprune.NewStore(db, probprune.Options{MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	reqs := make([]probprune.KNNRequest, 16)
	for i := range reqs {
		q := probprune.PointObject(-(i + 1), probprune.Point{rng.Float64(), rng.Float64()})
		reqs[i] = probprune.KNNRequest{Q: q, K: allocK, Tau: allocTau}
	}
	ctx := context.Background()
	sequential := func() {
		for _, r := range reqs {
			if _, err := s.KNNCtx(ctx, r.Q, r.K, r.Tau); err != nil {
				t.Fatal(err)
			}
		}
	}
	batch := func() {
		if _, err := s.BatchKNN(ctx, reqs); err != nil {
			t.Fatal(err)
		}
	}
	sequential() // warm the persistent cache
	seq := testing.AllocsPerRun(5, sequential)
	got := testing.AllocsPerRun(5, batch)
	if got > 1.5*seq {
		t.Fatalf("16-request BatchKNN allocated %.0f times, ceiling 1.5 x %.0f sequential", got, seq)
	}
	t.Logf("16-request BatchKNN: %.0f allocs (16 sequential KNNs: %.0f, ceiling %.0f)", got, seq, 1.5*seq)
}

// TestObjectDecodeAllocCeiling: decoding an object costs a constant
// number of allocations whatever its sample count — the samples land
// in one flat array, not one allocation each — on the wire
// (server.DecodeObject) and from a .udb file (workload.Load of a
// one-object file), and reading a sample allocates nothing.
func TestObjectDecodeAllocCeiling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	box := probprune.UniformBox{Rect: probprune.Rect{Min: probprune.Point{0, 0}, Max: probprune.Point{0.01, 0.01}}}
	var wire, file [2]float64
	for i, n := range []int{64, 1000} {
		o, err := probprune.Realize(1, box, n, rng)
		if err != nil {
			t.Fatal(err)
		}
		payload := server.EncodeObject(o)
		wire[i] = testing.AllocsPerRun(20, func() {
			if _, err := server.DecodeObject(payload); err != nil {
				t.Fatal(err)
			}
		})
		var buf bytes.Buffer
		if err := workload.Save(&buf, probprune.Database{o}); err != nil {
			t.Fatal(err)
		}
		// gzip's own allocations depend on how the bytes compress
		// (Huffman tables for a compressible object, none for a stored
		// block), so count what Load spends beyond gunzipping them.
		gunzip := testing.AllocsPerRun(20, func() {
			zr, err := gzip.NewReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, zr); err != nil {
				t.Fatal(err)
			}
		})
		file[i] = testing.AllocsPerRun(20, func() {
			if _, err := workload.Load(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
		}) - gunzip
		if allocs := testing.AllocsPerRun(100, func() { _ = o.Sample(n - 1) }); allocs != 0 {
			t.Fatalf("Object.Sample allocated %.0f times", allocs)
		}
	}
	t.Logf("server.DecodeObject: %v allocs at 64 and 1000 samples; workload.Load beyond gunzip: %v", wire, file)
	if wire[0] != wire[1] || wire[1] > 6 {
		t.Fatalf("server.DecodeObject: %v allocs at 64 and 1000 samples, want equal and at most 6", wire)
	}
	if file[0] != file[1] || file[1] > 8 {
		t.Fatalf("workload.Load beyond gunzip: %v allocs at 64 and 1000 samples, want equal and at most 8", file)
	}
}

// TestDecompAllocCeiling: materializing levels 0–4 of an object's
// kd-tree decomposition costs a small constant number of allocations
// per level whatever the sample count — a split sorts a range of the
// object's one sample permutation in place, and each level is packed
// into one partition array and one coordinate array — and re-reading a
// materialized level allocates nothing.
func TestDecompAllocCeiling(t *testing.T) {
	const levels = 4
	rng := rand.New(rand.NewSource(8))
	box := probprune.UniformBox{Rect: probprune.Rect{Min: probprune.Point{0, 0}, Max: probprune.Point{0.01, 0.01}}}
	var build [2]float64
	for i, n := range []int{64, 1000} {
		o, err := probprune.Realize(1, box, n, rng)
		if err != nil {
			t.Fatal(err)
		}
		build[i] = testing.AllocsPerRun(20, func() {
			tr := uncertain.NewDecompTree(o, 0)
			for l := 0; l <= levels; l++ {
				tr.LevelWithChildren(l)
			}
		})
		tr := uncertain.NewDecompTree(o, 0)
		tr.LevelWithChildren(levels)
		reread := testing.AllocsPerRun(20, func() {
			for l := 0; l <= levels; l++ {
				tr.LevelWithChildren(l)
			}
		})
		if reread != 0 {
			t.Fatalf("re-reading levels 0–%d of a %d-sample object allocated %.0f times", levels, n, reread)
		}
	}
	t.Logf("levels 0–%d: %v allocs at 64 and 1000 samples", levels, build)
	if ceiling := float64(8 + 6*levels); build[0] != build[1] || build[1] > ceiling {
		t.Fatalf("levels 0–%d: %v allocs at 64 and 1000 samples, want equal and at most %.0f", levels, build, ceiling)
	}
}
