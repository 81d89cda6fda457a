package probprune_test

import (
	"math/rand"
	"testing"

	"probprune"
)

// BenchmarkKNNServing is the in-process twin of the two KNN workloads of
// the serving benchmark (benchmark/: knn-scan and knn-refine): the same
// database (the synthetic family udbgen writes, seed 1, 10⁴ objects of
// extent at most 0.004), query shape, k, τ and iteration budget,
// answered the way the server answers a KNN command — a store snapshot's
// KNN on all cores — without the wire. One op is one query, cycling
// through 64 seeded query objects after one warm-up pass over them.
//
//	go test -run=XXX -bench=KNNServing -benchtime=200x .
func BenchmarkKNNServing(b *testing.B) {
	for _, c := range []struct {
		name                  string
		samples, querySamples int
		k, iterations         int
	}{
		{name: "scan", samples: 8, querySamples: 1, k: 5, iterations: 3},
		{name: "refine", samples: 64, querySamples: 64, k: 10, iterations: 4},
	} {
		b.Run(c.name, func(b *testing.B) {
			const extent, tau = 0.004, 0.5
			db, err := probprune.Synthetic(probprune.SyntheticConfig{N: 10000, Samples: c.samples, MaxExtent: extent, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			store, err := probprune.NewStore(db, probprune.Options{MaxIterations: c.iterations})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			queries := make([]*probprune.Object, 64)
			for i := range queries {
				cx, cy := rng.Float64(), rng.Float64()
				pts := make([]probprune.Point, c.querySamples)
				for s := range pts {
					pts[s] = probprune.Point{cx, cy}
					if c.querySamples > 1 {
						pts[s] = probprune.Point{cx + (rng.Float64()-0.5)*extent, cy + (rng.Float64()-0.5)*extent}
					}
				}
				if queries[i], err = probprune.NewObject(-1, pts); err != nil {
					b.Fatal(err)
				}
			}
			for _, q := range queries {
				must(store.Snapshot().KNN(bg, q, c.k, tau))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				must(store.Snapshot().KNN(bg, queries[i%len(queries)], c.k, tau))
			}
		})
	}
}
