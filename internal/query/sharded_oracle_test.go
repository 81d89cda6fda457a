package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"probprune/internal/mc"
	"probprune/internal/uncertain"
)

// This file is the cross-shard equivalence suite: on the same seeded
// random databases the query-layer oracle uses, every verdict and every
// probability bound a multi-shard Store reports — KNN, RkNN, TopKNN,
// InverseRank — must be bit-identical (exact float equality, not a
// tolerance) to the unsharded Store and to a fresh Engine, at every
// shard count and under both partitioners, and the bounds must contain
// the exact internal/mc value. This is the acceptance criterion of the
// sharding design: scatter-gather with canonical bound merging is not
// an approximation of the monolithic engine, it IS the monolithic
// engine, differently traversed.

var shardCounts = []int{1, 2, 4, 8}

// shardedCase builds the backends under comparison over one oracle
// database: a fresh Engine, an unsharded Store, and one multi-shard Store
// per shard count (hash partitioning; odd seeds use spatial stripes to
// cover skewed shard sizes, including empty shards).
type shardedCase struct {
	oc      *oracleCase
	store   *Store
	sharded map[int]*Store
}

func newShardedCase(t *testing.T, seed int64, parallelism int) *shardedCase {
	t.Helper()
	oc := newOracleCase(t, seed, parallelism)
	store, err := NewStore(oc.db, oc.eng.opts)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	sc := &shardedCase{oc: oc, store: store, sharded: map[int]*Store{}}
	var part ShardFunc
	if seed%2 == 1 {
		// Stripes over a band narrower than the data: border shards get
		// the overflow, interior shards can end up empty.
		part = StripeShards(0, 0.25, 0.75)
	}
	for _, n := range shardCounts {
		ss, err := NewShardedStore(oc.db, ShardedOptions{Shards: n, Partition: part}, oc.eng.opts)
		if err != nil {
			t.Fatalf("seed %d shards %d: %v", seed, n, err)
		}
		sc.sharded[n] = ss
	}
	return sc
}

// requireSameMatches asserts exact equality of two match slices,
// including object identity, bounds, verdicts and iteration counts.
func requireSameMatches(t *testing.T, seed int64, label string, want, got []Match) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		for i := range want {
			if i < len(got) && !reflect.DeepEqual(want[i], got[i]) {
				t.Fatalf("seed %d: %s diverges at match %d: want %+v, got %+v (replay with this seed)",
					seed, label, i, want[i], got[i])
			}
		}
		t.Fatalf("seed %d: %s diverges: %d vs %d matches", seed, label, len(want), len(got))
	}
}

// TestShardedEquivalenceKNN: KNN verdicts and bounds bit-identical
// across Engine, Store and every shard count, and contained by the
// exact oracle.
func TestShardedEquivalenceKNN(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := newShardedCase(t, seed, 1+int(seed%3))
			k := 2 + int(seed%3)
			tau := []float64{0.3, 0.5, 0.8}[seed%3]
			want := sc.oc.eng.KNN(sc.oc.q, k, tau)
			requireSameMatches(t, seed, "Store KNN", want, sc.store.KNN(sc.oc.q, k, tau))
			for _, n := range shardCounts {
				got := sc.sharded[n].KNN(sc.oc.q, k, tau)
				requireSameMatches(t, seed, fmt.Sprintf("ShardedStore(%d) KNN", n), want, got)
				for _, m := range got {
					exact := sc.oc.exactCDF(m.Object, sc.oc.q, k)
					checkContains(t, seed, fmt.Sprintf("sharded(%d) KNN object %d", n, m.Object.ID),
						m.Prob.LB, m.Prob.UB, exact)
				}
			}
		})
	}
}

// TestShardedEquivalenceRKNN: RkNN verdicts and bounds bit-identical
// and oracle-contained.
func TestShardedEquivalenceRKNN(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := newShardedCase(t, seed, 1)
			k := 1 + int(seed%3)
			const tau = 0.4
			want := sc.oc.eng.RKNN(sc.oc.q, k, tau)
			requireSameMatches(t, seed, "Store RKNN", want, sc.store.RKNN(sc.oc.q, k, tau))
			for _, n := range shardCounts {
				got := sc.sharded[n].RKNN(sc.oc.q, k, tau)
				requireSameMatches(t, seed, fmt.Sprintf("ShardedStore(%d) RKNN", n), want, got)
				for _, m := range got {
					exact := sc.oc.exactCDF(sc.oc.q, m.Object, k)
					checkContains(t, seed, fmt.Sprintf("sharded(%d) RKNN object %d", n, m.Object.ID),
						m.Prob.LB, m.Prob.UB, exact)
				}
			}
		})
	}
}

// TestShardedEquivalenceTopKNN: the round-stepped top-m selection —
// the query most sensitive to evaluation order — is bit-identical too
// (oracle containment of the monolithic result is covered by
// TestOracleTopKNN; bit-equality transfers it to the sharded one).
func TestShardedEquivalenceTopKNN(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := newShardedCase(t, seed, 1+int(seed%2))
			k, m := 3, 3
			want := sc.oc.eng.TopKNN(sc.oc.q, k, m)
			requireSameMatches(t, seed, "Store TopKNN", want, sc.store.TopKNN(sc.oc.q, k, m))
			for _, n := range shardCounts {
				requireSameMatches(t, seed, fmt.Sprintf("ShardedStore(%d) TopKNN", n),
					want, sc.sharded[n].TopKNN(sc.oc.q, k, m))
			}
		})
	}
}

// TestShardedEquivalenceInverseRank: the full rank distribution of
// InverseRank — window offset and every interval — is bit-identical
// across backends and oracle-contained.
func TestShardedEquivalenceInverseRank(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := newShardedCase(t, seed, 1)
			for trial := 0; trial < 2; trial++ {
				b := sc.oc.db[(int(seed)+trial*5)%len(sc.oc.db)]
				want := sc.oc.eng.InverseRank(b, sc.oc.q)
				check := func(label string, got *RankDistribution) {
					t.Helper()
					if got.Object != want.Object || got.MinRank != want.MinRank ||
						!reflect.DeepEqual(got.Ranks, want.Ranks) {
						t.Fatalf("seed %d: %s InverseRank(%d) diverges: want MinRank %d ranks %v, got MinRank %d ranks %v",
							seed, label, b.ID, want.MinRank, want.Ranks, got.MinRank, got.Ranks)
					}
				}
				check("Store", sc.store.InverseRank(b, sc.oc.q))
				// Containment against the exact count PDF; bit-equality
				// transfers it to every backend.
				cands := make([]*uncertain.Object, 0, len(sc.oc.db))
				for _, o := range sc.oc.db {
					if o != b && o != sc.oc.q {
						cands = append(cands, o)
					}
				}
				pdf := mc.DomCountPDF(sc.oc.norm, cands, b, sc.oc.q, 0)
				for _, n := range shardCounts {
					got := sc.sharded[n].InverseRank(b, sc.oc.q)
					check(fmt.Sprintf("ShardedStore(%d)", n), got)
					for j, iv := range got.Ranks {
						rank := got.MinRank + j
						exact := 0.0
						if rank-1 < len(pdf) {
							exact = pdf[rank-1]
						}
						checkContains(t, seed, fmt.Sprintf("sharded(%d) InverseRank object %d rank %d", n, b.ID, rank),
							iv.LB, iv.UB, exact)
					}
				}
			}
		})
	}
}

// TestShardedEquivalenceAfterMutations replays an identical mutation
// trace against a one-shard Store and multi-shard Stores —
// including rebalancing moves on the sharded side, which must be
// result-invariant — and requires bit-identical KNN and RkNN results at
// every step.
func TestShardedEquivalenceAfterMutations(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := newShardedCase(t, seed, 2)
			rng := rand.New(rand.NewSource(seed * 31))
			nextID := 10_000
			k := 2 + int(seed%2)
			for step := 0; step < 10; step++ {
				switch rng.Intn(3) {
				case 0:
					o := randObject(t, rng, nextID)
					nextID++
					if err := sc.store.Insert(o); err != nil {
						t.Fatal(err)
					}
					for _, ss := range sc.sharded {
						if err := ss.Insert(o); err != nil {
							t.Fatal(err)
						}
					}
				case 1:
					db := sc.store.Snapshot().DB()
					o := randObject(t, rng, db[rng.Intn(len(db))].ID)
					if err := sc.store.Update(o); err != nil {
						t.Fatal(err)
					}
					for _, ss := range sc.sharded {
						if err := ss.Update(o); err != nil {
							t.Fatal(err)
						}
					}
				default:
					db := sc.store.Snapshot().DB()
					if len(db) < 6 {
						continue
					}
					id := db[rng.Intn(len(db))].ID
					if ok, err := sc.store.Delete(id); err != nil || !ok {
						t.Fatalf("store delete of %d failed", id)
					}
					for n, ss := range sc.sharded {
						if ok, err := ss.Delete(id); err != nil || !ok {
							t.Fatalf("sharded(%d) delete of %d failed", n, id)
						}
					}
				}
				// Interleave result-invariant migrations on the sharded side
				// only: half the steps move a random object, every fifth
				// step rebalances outright.
				for n, ss := range sc.sharded {
					if rng.Intn(2) == 0 {
						db := ss.Snapshot().DB()
						if len(db) > 0 {
							if err := ss.Move(db[rng.Intn(len(db))].ID, rng.Intn(n)); err != nil {
								t.Fatal(err)
							}
						}
					}
					if step%5 == 4 {
						ss.Rebalance()
					}
				}
				want := sc.store.KNN(sc.oc.q, k, 0.4)
				wantR := sc.store.RKNN(sc.oc.q, k, 0.4)
				for _, n := range shardCounts {
					requireSameMatches(t, seed, fmt.Sprintf("step %d ShardedStore(%d) KNN", step, n),
						want, sc.sharded[n].KNN(sc.oc.q, k, 0.4))
					requireSameMatches(t, seed, fmt.Sprintf("step %d ShardedStore(%d) RKNN", step, n),
						wantR, sc.sharded[n].RKNN(sc.oc.q, k, 0.4))
				}
			}
		})
	}
}
