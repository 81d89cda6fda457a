// Benchmarks for the sharded serving path: the write-interleaved
// BatchKNN serving mix at 1 vs 8 shards — identical query work, but the
// per-commit copy-on-write detach copies only the mutated shard — and
// the sharded store build.
package probprune_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"probprune"
)

// BenchmarkShardedBatchKNN: a Store in serving mode (a watcher is
// attached, so every commit publishes a snapshot) sustains 32 drift
// updates, an online Rebalance and one 16-request BatchKNN per op. The
// store shards spatially (unit-square stripes), which keeps each shard's
// R-tree nodes tight, so per-shard filter walks decide subtrees (often
// the whole shard) wholesale, like the one-shard tree; hash sharding
// would spread every shard over the full extent.
func BenchmarkShardedBatchKNN(b *testing.B) {
	db := benchDB(b)
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s, err := probprune.NewShardedStore(db,
				probprune.ShardedOptions{Shards: shards, Partition: probprune.StripeShards(0, 0, 1)}, benchOpts)
			if err != nil {
				b.Fatal(err)
			}
			_, stop := s.Watch(func(probprune.Change) {})
			defer stop()
			rng := rand.New(rand.NewSource(3))
			reqs := make([]probprune.KNNRequest, 16)
			for i := range reqs {
				q := probprune.PointObject(-(i + 1), probprune.Point{rng.Float64(), rng.Float64()})
				reqs[i] = probprune.KNNRequest{Q: q, K: 5, Tau: 0.3}
			}
			ctx := context.Background()
			if _, err := s.Snapshot().BatchKNN(ctx, reqs); err != nil { // warm the caches
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for w := 0; w < 32; w++ {
					if err := driftRandom(b, s, db, rng); err != nil {
						b.Fatal(err)
					}
				}
				s.Rebalance()
				if _, err := s.Snapshot().BatchKNN(ctx, reqs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedBuild: full Store construction — router bookkeeping
// plus one concurrent STR bulk load per shard.
func BenchmarkShardedBuild(b *testing.B) {
	db := benchDB(b)
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := probprune.NewShardedStore(db, probprune.ShardedOptions{Shards: shards}, benchOpts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
