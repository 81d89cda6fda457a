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
	"io"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"probprune"
	"probprune/internal/obs"
	"probprune/internal/server"
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
// one-shard Store of 10^4 8-sample objects (extent 0.004) with a Watch
// hook attached, as udbserver attaches its continuous-query monitor at
// start, so every commit publishes a snapshot and the next one detaches
// the shard from it. It returns the store and a ring of seeded drift
// updates: each moves a random object a small step, 8 fresh samples in
// a box of the same extent, reflecting at the unit-square borders.
func watchedStore(tb testing.TB) (*probprune.Store, []*probprune.Object) {
	tb.Helper()
	const (
		n      = 10000
		extent = 0.004
	)
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

// TestStoreWatchedUpdateAllocCeiling: a watched Update copies only the
// R-tree pages and the object-list chunk the commit writes, plus the
// two page tables, so it allocates at most 48 KB at 10^4 objects; a
// clone of the whole list alone would be 80 KB.
func TestStoreWatchedUpdateAllocCeiling(t *testing.T) {
	s, updates := watchedStore(t)
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
// bounds, in time and bytes per Update.
func BenchmarkStoreWatchedUpdate(b *testing.B) {
	s, updates := watchedStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Update(updates[i%len(updates)]); err != nil {
			b.Fatal(err)
		}
	}
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
