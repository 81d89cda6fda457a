package query

import (
	"math"
	"reflect"
	"testing"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/uncertain"
	"probprune/internal/workload"
)

// hugeKs are k and m values no buffer may be sized by: each must answer
// exactly as |DB| + 1 (k) or |DB| (m) does.
var hugeKs = []int{math.MaxInt, 1 << 40}

// TestHugeKAnswersAsDBPlusOne: every query that takes a k (or TopKNN's
// m) answers a k beyond the database exactly as k = |DB| + 1 (m = |DB|),
// on one shard and on three.
func TestHugeKAnswersAsDBPlusOne(t *testing.T) {
	db, err := workload.Synthetic(workload.SyntheticConfig{N: 50, Samples: 4, MaxExtent: 0.1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	q := uncertain.PointObject(-1, geom.Point{0.5, 0.5})
	n := len(db)
	for _, shards := range []int{1, 3} {
		store, err := NewShardedStore(db, ShardedOptions{Shards: shards}, core.Options{MaxIterations: 2})
		if err != nil {
			t.Fatal(err)
		}
		sn := store.Snapshot()
		same := func(what string, k int, got, want any) {
			t.Helper()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d shards: %s with k = %d differs from k = |DB| + 1", shards, what, k)
			}
		}
		for _, k := range hugeKs {
			same("KNN", k, must(sn.KNN(bg, q, k, 0.5)), must(sn.KNN(bg, q, n+1, 0.5)))
			same("RKNN", k, must(sn.RKNN(bg, q, k, 0.5)), must(sn.RKNN(bg, q, n+1, 0.5)))
			same("BatchKNN", k,
				must(sn.BatchKNN(bg, []KNNRequest{{Q: q, K: k, Tau: 0.5}, {Q: db[3], K: k, Tau: 0.2}})),
				must(sn.BatchKNN(bg, []KNNRequest{{Q: q, K: n + 1, Tau: 0.5}, {Q: db[3], K: n + 1, Tau: 0.2}})))
			same("TopKNN k", k, must(sn.TopKNN(bg, q, k, 3)), must(sn.TopKNN(bg, q, n+1, 3)))
			same("TopKNN m", k, must(sn.TopKNN(bg, q, 2, k)), must(sn.TopKNN(bg, q, 2, n)))
			same("TopKNN k and m", k, must(sn.TopKNN(bg, q, k, k)), must(sn.TopKNN(bg, q, n+1, n)))
			same("UKRanks", k, must(sn.UKRanks(bg, q, k)), must(sn.UKRanks(bg, q, n+1)))
			same("KNNThreshold", k, sn.KNNThreshold(q, k), sn.KNNThreshold(q, n+1))
		}
	}
}
