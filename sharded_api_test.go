package probprune_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"probprune"
)

// A multi-shard Store partitions the database across independent shards
// and answers every query by scatter-gather with canonical bound merging —
// bit-identical to an unsharded Store over the same state.
func ExampleNewShardedStore() {
	db := probprune.Database{
		probprune.PointObject(1, probprune.Point{1, 0}),
		probprune.PointObject(2, probprune.Point{2, 0}),
		probprune.PointObject(3, probprune.Point{3, 0}),
		probprune.PointObject(4, probprune.Point{8, 8}),
	}
	sharded, _ := probprune.NewShardedStore(db, probprune.ShardedOptions{Shards: 2}, probprune.Options{})
	store, _ := probprune.NewStore(db, probprune.Options{})

	q := probprune.PointObject(-1, probprune.Point{0, 0})
	for _, m := range sharded.KNN(q, 2, 0.5) {
		if m.IsResult {
			fmt.Println("result:", m.Object.ID)
		}
	}
	fmt.Println("bit-identical to Store:", reflect.DeepEqual(sharded.KNN(q, 2, 0.5), store.KNN(q, 2, 0.5)))
	// Output:
	// result: 1
	// result: 2
	// bit-identical to Store: true
}

// Rebalance re-homes objects whose spatial stripe drifted under
// updates, online and without changing any query result.
func ExampleStore_Rebalance() {
	db := probprune.Database{
		probprune.PointObject(1, probprune.Point{1, 0}),
		probprune.PointObject(2, probprune.Point{2, 0}),
		probprune.PointObject(3, probprune.Point{8, 0}),
		probprune.PointObject(4, probprune.Point{9, 0}),
	}
	s, _ := probprune.NewShardedStore(db,
		probprune.ShardedOptions{Shards: 2, Partition: probprune.StripeShards(0, 0, 10)},
		probprune.Options{})
	fmt.Println("sizes:", s.ShardSizes())

	// Updates drift two objects into the first stripe; their home shard
	// stays put until a rebalance migrates them.
	s.Update(probprune.PointObject(3, probprune.Point{1.5, 0}))
	s.Update(probprune.PointObject(4, probprune.Point{2.5, 0}))
	fmt.Println("sizes after drift:", s.ShardSizes())
	fmt.Println("moved:", s.Rebalance())
	fmt.Println("sizes after rebalance:", s.ShardSizes())
	// Output:
	// sizes: [2 2]
	// sizes after drift: [2 2]
	// moved: 2
	// sizes after rebalance: [4 0]
}

// TestShardedStoreFacade drives the sharded serving path end to end
// through the public surface: live ingest, scatter-gather queries,
// batches, the merged Watch stream with its version vector, and a
// Monitor with a standing subscription over the sharded source.
func TestShardedStoreFacade(t *testing.T) {
	db, err := probprune.Synthetic(probprune.SyntheticConfig{N: 60, Samples: 8, MaxExtent: 0.03, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	opts := probprune.Options{MaxIterations: 3}
	sharded, err := probprune.NewShardedStore(db, probprune.ShardedOptions{Shards: 3}, opts)
	if err != nil {
		t.Fatal(err)
	}
	store, err := probprune.NewStore(db, opts)
	if err != nil {
		t.Fatal(err)
	}

	var changes []probprune.Change
	snap, stop := sharded.Watch(func(ch probprune.Change) { changes = append(changes, ch) })
	defer stop()
	if snap.Version() != sharded.Version() {
		t.Fatalf("watch snapshot at version %d, store at %d", snap.Version(), sharded.Version())
	}

	monitor := probprune.NewMonitor(sharded, probprune.MonitorOptions{Buffer: 4096})
	defer monitor.Close()
	q := probprune.PointObject(-1, probprune.Point{0.5, 0.5})
	sub, err := monitor.SubscribeKNN(q, 3, 0.3)
	if err != nil {
		t.Fatal(err)
	}

	// Mirror a small mutation burst into both backends.
	for i := 0; i < 5; i++ {
		o := probprune.PointObject(1000+i, probprune.Point{0.45 + float64(i)*0.02, 0.5})
		if err := sharded.Insert(o); err != nil {
			t.Fatal(err)
		}
		if err := store.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []*probprune.Store{sharded, store} {
		if ok, err := s.Delete(db[0].ID); err != nil || !ok {
			t.Fatalf("delete: ok=%v err=%v", ok, err)
		}
	}
	if len(changes) != 6 {
		t.Fatalf("watch delivered %d changes, want 6", len(changes))
	}
	for i, ch := range changes {
		if got := ch.Snap.VersionVector(); len(got) != 3 {
			t.Fatalf("change %d version vector has %d entries", i, len(got))
		}
	}

	// Scatter-gather results stay bit-identical to the unsharded store.
	if want, got := store.KNN(q, 3, 0.3), sharded.KNN(q, 3, 0.3); !reflect.DeepEqual(want, got) {
		t.Fatal("sharded KNN diverges from Store after mutations")
	}
	reqs := []probprune.KNNRequest{{Q: q, K: 3, Tau: 0.3}, {Q: db[5], K: 2, Tau: 0.5}}
	want, err := store.BatchKNN(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.BatchKNN(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("sharded BatchKNN diverges from Store")
	}

	// The monitor consumed the merged stream through the current version
	// and exposes the per-shard cursor.
	if err := monitor.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if vv := monitor.VersionVector(); len(vv) != 3 {
		t.Fatalf("monitor version vector has %d entries, want 3", len(vv))
	}
	drained := 0
	for {
		select {
		case <-sub.Events():
			drained++
			continue
		default:
		}
		break
	}
	if drained == 0 {
		t.Fatal("standing subscription over the sharded source delivered no events")
	}
}
