package query

import (
	"math/rand"
	"reflect"
	"testing"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/uncertain"
	"probprune/internal/workload"
)

// Native fuzzers for the shard router and the online rebalancer: a
// byte-string program drives an identical mutation trace against a
// multi-shard Store and a one-shard model Store, with migrations
// interleaved on the sharded side only. After every operation the
// sharded store must hold exactly the model's objects — none lost,
// none duplicated, both in ascending ID order — and periodically every
// query verdict must be bit-identical to the model. The checked-in
// corpus entries below double as deterministic regression tests on
// every plain `go test` run; `go test -fuzz` explores beyond them.

// fuzzObject derives a deterministic object from the trace rng.
func fuzzObject(t *testing.T, rng *rand.Rand, id int) *uncertain.Object {
	t.Helper()
	pts := make([]geom.Point, 3)
	cx, cy := rng.Float64(), rng.Float64()
	for i := range pts {
		pts[i] = geom.Point{cx + rng.Float64()*0.1, cy + rng.Float64()*0.1}
	}
	o, err := uncertain.NewObject(id, pts)
	if err != nil {
		t.Fatal(err)
	}
	if rng.Intn(4) == 0 {
		if err := o.SetExistence(0.2 + 0.7*rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

// requireShardConsistency asserts the structural invariants: the
// sharded store and the model agree object-for-object in ascending ID
// order, every object lives on exactly one shard, and the shard-local
// snapshots partition the database.
func requireShardConsistency(t *testing.T, op int, store *Store, sharded *Store) {
	t.Helper()
	if sharded.Len() != store.Len() {
		t.Fatalf("op %d: sharded holds %d objects, model %d", op, sharded.Len(), store.Len())
	}
	want := store.Snapshot().Database()
	snap := sharded.Snapshot()
	got := snap.Database()
	if len(got) != len(want) {
		t.Fatalf("op %d: snapshot lengths diverge: %d vs %d", op, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d: snapshots diverge at %d: object %d vs %d", op, i, got[i].ID, want[i].ID)
		}
	}
	seen := make(map[int]int, len(want))
	total := 0
	for si := 0; si < snap.NumShards(); si++ {
		for _, o := range snap.cuts()[si].Database() {
			if prev, dup := seen[o.ID]; dup {
				t.Fatalf("op %d: object %d duplicated across shards %d and %d", op, o.ID, prev, si)
			}
			seen[o.ID] = si
			total++
			if home, ok := sharded.ShardOf(o.ID); !ok || home != si {
				t.Fatalf("op %d: object %d resides on shard %d but ShardOf reports (%d, %v)", op, o.ID, si, home, ok)
			}
		}
	}
	if total != len(want) {
		t.Fatalf("op %d: shards hold %d objects in total, want %d (lost objects)", op, total, len(want))
	}
	sizes := sharded.ShardSizes()
	sum := 0
	for _, n := range sizes {
		sum += n
	}
	if sum != len(want) {
		t.Fatalf("op %d: ShardSizes sums to %d, want %d", op, sum, len(want))
	}
}

// requireSameVerdicts asserts bit-identical query results between the
// sharded store and the model.
func requireSameVerdicts(t *testing.T, op int, store *Store, sharded *Store, q *uncertain.Object) {
	t.Helper()
	if want, got := store.KNN(q, 2, 0.4), sharded.KNN(q, 2, 0.4); !reflect.DeepEqual(want, got) {
		t.Fatalf("op %d: KNN verdicts diverge from the model", op)
	}
	if want, got := must(store.Snapshot().RKNN(bg, q, 2, 0.4)), must(sharded.Snapshot().RKNN(bg, q, 2, 0.4)); !reflect.DeepEqual(want, got) {
		t.Fatalf("op %d: RKNN verdicts diverge from the model", op)
	}
}

// runShardFuzz interprets one fuzz program. withMoves additionally
// decodes migration opcodes (the rebalancer surface).
func runShardFuzz(t *testing.T, seed int64, nsh uint8, ops []byte, withMoves bool) {
	const maxOps = 48
	if len(ops) > maxOps {
		ops = ops[:maxOps]
	}
	shards := 1 + int(nsh%8)
	db, err := workload.Synthetic(workload.SyntheticConfig{N: 12, Samples: 3, MaxExtent: 0.1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{MaxIterations: 2}
	store, err := NewStore(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	var part ShardFunc
	if withMoves {
		// A spatial partitioner makes Rebalance meaningful: updates
		// drift centers across stripe borders.
		part = StripeShards(0, 0, 1)
	}
	sharded, err := NewShardedStore(db, ShardedOptions{Shards: shards, Partition: part}, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
	q := fuzzObject(t, rng, -1)
	nextID := 1000
	for i, b := range ops {
		kinds := 4
		if withMoves {
			kinds = 6
		}
		switch int(b) % kinds {
		case 0, 1:
			o := fuzzObject(t, rng, nextID)
			nextID++
			if err := store.Insert(o); err != nil {
				t.Fatal(err)
			}
			if err := sharded.Insert(o); err != nil {
				t.Fatal(err)
			}
		case 2:
			cur := store.Snapshot().Database()
			if len(cur) == 0 {
				continue
			}
			o := fuzzObject(t, rng, cur[rng.Intn(len(cur))].ID)
			if err := store.Update(o); err != nil {
				t.Fatal(err)
			}
			if err := sharded.Update(o); err != nil {
				t.Fatal(err)
			}
		case 3:
			cur := store.Snapshot().Database()
			if len(cur) < 5 {
				continue
			}
			id := cur[rng.Intn(len(cur))].ID
			for _, s := range []*Store{store, sharded} {
				if ok, err := s.Delete(id); err != nil || !ok {
					t.Fatalf("op %d: delete of %d: ok=%v err=%v", i, id, ok, err)
				}
			}
		case 4:
			cur := sharded.Snapshot().Database()
			if len(cur) == 0 {
				continue
			}
			if err := sharded.Move(cur[rng.Intn(len(cur))].ID, rng.Intn(shards)); err != nil {
				t.Fatal(err)
			}
		case 5:
			sharded.Rebalance()
		}
		requireShardConsistency(t, i, store, sharded)
		if i%6 == 5 {
			requireSameVerdicts(t, i, store, sharded, q)
		}
	}
	requireShardConsistency(t, len(ops), store, sharded)
	requireSameVerdicts(t, len(ops), store, sharded, q)
}

// FuzzShardRouter fuzzes the hash router under pure mutation traces:
// whatever the interleaving, the sharded store must track the model
// exactly.
func FuzzShardRouter(f *testing.F) {
	f.Add(int64(1), uint8(4), []byte{0, 2, 3, 0, 1, 2, 3, 2, 0, 3, 1, 2})
	f.Add(int64(2), uint8(1), []byte{0, 0, 0, 3, 3, 3, 3, 3, 2, 2})
	f.Add(int64(3), uint8(7), []byte{2, 2, 2, 2, 2, 2, 0, 3, 2, 0, 3, 2})
	f.Add(int64(4), uint8(8), []byte{1, 3, 1, 3, 1, 3, 1, 3, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, seed int64, nsh uint8, ops []byte) {
		runShardFuzz(t, seed, nsh, ops, false)
	})
}

// FuzzShardRebalance fuzzes the online rebalancer: migration opcodes
// (Move, Rebalance) interleave with mutations and queries under a
// spatial partitioner. Migrations must never lose or duplicate an
// object, and must never change any verdict.
func FuzzShardRebalance(f *testing.F) {
	f.Add(int64(1), uint8(4), []byte{0, 4, 2, 5, 3, 4, 0, 5, 2, 4, 3, 5})
	f.Add(int64(2), uint8(2), []byte{4, 4, 4, 5, 5, 5, 2, 2, 4, 5})
	f.Add(int64(3), uint8(6), []byte{2, 4, 2, 4, 2, 4, 5, 0, 3, 4, 5, 2})
	f.Add(int64(5), uint8(3), []byte{5, 0, 4, 1, 5, 2, 4, 3, 5, 0, 4, 2})
	f.Fuzz(func(t *testing.T, seed int64, nsh uint8, ops []byte) {
		runShardFuzz(t, seed, nsh, ops, true)
	})
}

// TestStripeShardsClampsFar: a center outside [lo, hi] lands in the
// border stripe on its side, however far out it is. A center beyond
// the int64 range used to convert to MinInt64 and land in stripe 0.
func TestStripeShardsClampsFar(t *testing.T) {
	part := StripeShards(0, 0, 1)
	for _, tc := range []struct {
		x    float64
		want int
	}{
		{-1e300, 0}, {-1e19, 0}, {-2, 0}, {-0.01, 0},
		{0, 0}, {0.2, 0}, {0.25, 1}, {0.6, 2}, {0.99, 3}, {1, 3},
		{1.01, 3}, {2, 3}, {1e10, 3}, {1e19, 3}, {1e300, 3},
	} {
		o := uncertain.PointObject(1, geom.Point{tc.x, 0.5})
		if got := part(o, 4); got != tc.want {
			t.Errorf("x = %g: shard %d, want %d", tc.x, got, tc.want)
		}
	}
}
