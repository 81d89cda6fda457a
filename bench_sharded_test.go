// Benchmarks for the sharded serving path, wrapping the shared
// internal/benchscen scenario bodies (cmd/bench writes the same
// measurements to the committed BENCH_PR4.json): the write-interleaved
// BatchKNN serving mix at 1 vs 8 shards — identical query work, but the
// per-commit copy-on-write detach clones O(n/N) instead of O(n) — and
// the sharded store build.
package probprune_test

import (
	"testing"

	"probprune/internal/benchscen"
)

func BenchmarkShardedBatchKNN(b *testing.B) {
	db := benchscen.MustDB(1000)
	b.Run("shards=1", func(b *testing.B) { benchscen.ServingBatchKNN(1)(b, db) })
	b.Run("shards=8", func(b *testing.B) { benchscen.ServingBatchKNN(8)(b, db) })
}

func BenchmarkShardedBuild(b *testing.B) {
	db := benchscen.MustDB(1000)
	b.Run("shards=1", func(b *testing.B) { benchscen.StoreBuild(1)(b, db) })
	b.Run("shards=8", func(b *testing.B) { benchscen.StoreBuild(8)(b, db) })
}
