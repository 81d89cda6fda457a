// BenchmarkPaperScale runs the paper's own data shape (Section VII-A:
// 10^4 objects × 1000 samples): build the synthetic database, serve
// store KNNs at 4 and 8 refinement levels, round-trip the .udb file,
// and write a checkpoint and reopen the store from it. Besides ns/op it
// reports the live heap (live_MiB) and the heap objects per database
// object (heapobjs/obj) the data holds. Skipped under -short; run it
// alone:
//
//	go test -run=XXX -bench=PaperScale -benchtime=1x .
package probprune_test

import (
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"probprune"
)

const (
	paperN       = 10000
	paperSamples = 1000
)

// liveHeap returns the heap bytes and heap objects live after a full
// collection.
func liveHeap() (bytes, objects uint64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.HeapObjects
}

// reportLive reports the live heap above base, in MiB, and the heap
// objects above baseObjs per database object.
func reportLive(b *testing.B, base, baseObjs uint64) {
	bytes, objs := liveHeap()
	b.ReportMetric(float64(bytes-min(bytes, base))/(1<<20), "live_MiB")
	b.ReportMetric(float64(objs-min(objs, baseObjs))/paperN, "heapobjs/obj")
}

func BenchmarkPaperScale(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale data (10^4 × 1000 samples) is too large for -short")
	}
	base, baseObjs := liveHeap()
	cfg := probprune.SyntheticConfig{N: paperN, Samples: paperSamples, Seed: 1}
	var db probprune.Database
	build := func(b *testing.B) {
		var err error
		if db, err = probprune.Synthetic(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db = nil
			build(b)
		}
		b.StopTimer()
		reportLive(b, base, baseObjs)
	})
	if db == nil {
		build(b)
	}

	for _, levels := range []int{4, 8} {
		b.Run("knn/levels="+strconv.Itoa(levels), func(b *testing.B) {
			s, err := probprune.NewStore(db, probprune.Options{MaxIterations: levels})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := probprune.Point{rng.Float64(), rng.Float64()}
				box := probprune.UniformBox{Rect: probprune.Rect{
					Min: probprune.Point{c[0] - 0.002, c[1] - 0.002},
					Max: probprune.Point{c[0] + 0.002, c[1] + 0.002},
				}}
				q, err := probprune.Realize(-1, box, 64, rng)
				if err != nil {
					b.Fatal(err)
				}
				s.KNN(q, 10, 0.5)
			}
			b.StopTimer()
			reportLive(b, base, baseObjs)
			runtime.KeepAlive(s)
		})
	}

	path := filepath.Join(b.TempDir(), "paper.udb")
	b.Run("udb-save", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := probprune.SaveFile(path, db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("udb-load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			got, err := probprune.LoadFile(path)
			if err != nil {
				b.Fatal(err)
			}
			if len(got) != len(db) {
				b.Fatalf("loaded %d objects, want %d", len(got), len(db))
			}
		}
	})

	popts := probprune.PersistOptions{Dir: b.TempDir()}
	s, err := probprune.BootstrapStore(db, popts, probprune.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("checkpoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := s.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
	})
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.Run("reopen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := probprune.OpenStore(popts, probprune.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if n := s.Len(); n != len(db) {
				b.Fatalf("reopened %d objects, want %d", n, len(db))
			}
			b.StopTimer()
			s.Close()
			b.StartTimer()
		}
	})
}
