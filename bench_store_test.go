// Benchmarks for the live store: BenchmarkStoreWarmKNN measures
// repeated kNN queries against a stable Store — the persistent
// decomposition cache makes later queries skip every influence-object
// kd-split — next to the cold path that builds a fresh store per
// query. BenchmarkBulkLoad compares the STR bulk build of the R-tree
// against incremental insertion.
package probprune_test

import (
	"testing"

	"probprune"
)

func BenchmarkStoreWarmKNN(b *testing.B) {
	// Sample-heavy objects make the kd-splits the cache elides a
	// visible fraction of the query (the UGF refinement work is
	// untouched by caching and dominates at low sample counts).
	db, err := probprune.Synthetic(probprune.SyntheticConfig{N: 300, Samples: 512, MaxExtent: 0.15, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	q := probprune.PointObject(-1, probprune.Point{0.5, 0.5})
	opts := probprune.Options{Parallelism: 1}

	b.Run("store-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			must(newSnapshot(b, db, opts).KNN(bg, q, 10, 0.5))
		}
	})
	b.Run("store-warm", func(b *testing.B) {
		store, err := probprune.NewStore(db, opts)
		if err != nil {
			b.Fatal(err)
		}
		store.KNN(q, 10, 0.5) // warm the persistent cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			store.KNN(q, 10, 0.5)
		}
	})
}

func BenchmarkBulkLoad(b *testing.B) {
	db, err := probprune.Synthetic(probprune.SyntheticConfig{N: 10000, Samples: 4, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("str-bulk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			probprune.NewIndex(db)
		}
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tree := probprune.NewIndex(nil)
			for _, o := range db {
				tree.Insert(o.MBR, o)
			}
		}
	})
}
