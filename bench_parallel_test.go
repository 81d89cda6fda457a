// Benchmarks for the parallel query executor and the shared
// decomposition cache: BenchmarkKNNParallel measures the end-to-end threshold
// kNN query at 1, 4 and GOMAXPROCS workers on the synthetic N=1000
// workload, and BenchmarkRefDecomp isolates the shared-vs-per-candidate
// decomposition saving at the core layer. Together with bench_test.go
// they make the executor speedup visible in the bench trajectory.
// BenchmarkInverseRank is the one-run query whose full-PDF generating
// functions run on one goroutine, the baseline for pair-level
// parallelism.
package probprune_test

import (
	"fmt"
	"runtime"
	"testing"

	"probprune"
)

func knnBenchWorkload(b *testing.B) (probprune.Database, *probprune.Object) {
	b.Helper()
	// MaxExtent 0.15 leaves a few dozen candidates alive after
	// preselection — enough per-candidate IDCA work for worker scaling
	// to dominate the fixed per-query cost.
	db, err := probprune.Synthetic(probprune.SyntheticConfig{N: 1000, Samples: 64, MaxExtent: 0.15, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	return db, probprune.PointObject(-1, probprune.Point{0.5, 0.5})
}

func BenchmarkKNNParallel(b *testing.B) {
	db, q := knnBenchWorkload(b)
	workers := []int{1, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 4 {
		workers = append(workers, g)
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			eng := newSnapshot(b, db, probprune.Options{MaxIterations: 3, Parallelism: w})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				must(eng.KNN(bg, q, 5, 0.5))
			}
		})
	}
}

func BenchmarkRKNNParallel(b *testing.B) {
	db, q := knnBenchWorkload(b)
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			eng := newSnapshot(b, db, probprune.Options{MaxIterations: 3, Parallelism: w})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				must(eng.RKNN(bg, q, 5, 0.5))
			}
		})
	}
}

// BenchmarkRefDecomp compares many IDCA runs against one reference with
// per-run private decompositions (the pre-executor behavior) and with a
// query-wide DecompCache sharing every decomposition — reference and
// influence objects alike — across runs, the saving the query executor
// banks for every multi-candidate query.
func BenchmarkRefDecomp(b *testing.B) {
	db, err := probprune.Synthetic(probprune.SyntheticConfig{N: 1000, Samples: 64, MaxExtent: 0.05, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	q := db[0]
	cands := db[1:101]
	opts := probprune.Options{MaxIterations: 3, KMax: 5}
	b.Run("per-candidate-decomp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, c := range cands {
				probprune.Run(db, c, q, opts)
			}
		}
	})
	b.Run("shared-decomp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			shared := opts
			shared.SharedDecomps = probprune.NewDecompCache(0)
			for _, c := range cands {
				probprune.Run(db, c, q, shared)
			}
		}
	})
}

// BenchmarkInverseRank is one full domination-count PDF (KMax 0): the
// inverse ranking of one object among 2,000 of 32 samples, refined
// four levels on one goroutine. Its cost is the generating functions
// over the whole influence set at every partition pair, which makes it
// the reading for the UGF's full-expansion cost.
func BenchmarkInverseRank(b *testing.B) {
	db, err := probprune.Synthetic(probprune.SyntheticConfig{N: 2000, Samples: 32, MaxExtent: 0.05, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	sn := newSnapshot(b, db, probprune.Options{MaxIterations: 4, Parallelism: 1})
	r := probprune.PointObject(-1, probprune.Point{0.5, 0.5})
	must(sn.InverseRank(bg, db[0], r)) // warm the decomposition cache
	b.ResetTimer()
	var rd *probprune.RankDistribution
	for i := 0; i < b.N; i++ {
		rd = must(sn.InverseRank(bg, db[0], r))
	}
	b.ReportMetric(float64(len(rd.Ranks)), "ranks")
}
