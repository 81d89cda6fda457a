package probprune_test

import (
	"context"
	"reflect"
	"testing"

	"probprune"
)

// TestStoreFacade drives the live store end to end through the public
// surface: ingest, snapshot-isolated queries, batch execution and the
// bit-identical guarantee against a fresh store.
func TestStoreFacade(t *testing.T) {
	db, err := probprune.Synthetic(probprune.SyntheticConfig{
		N: 60, Samples: 8, MaxExtent: 0.05, Seed: 71,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := probprune.Options{MaxIterations: 4}
	store, err := probprune.NewStore(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	q := probprune.PointObject(-1, probprune.Point{0.5, 0.5})

	// Live ingest: replace one object, remove one, add one.
	moved, err := probprune.NewObject(0, []probprune.Point{{0.5, 0.5}, {0.51, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Update(moved); err != nil {
		t.Fatal(err)
	}
	if ok, err := store.Delete(1); err != nil || !ok {
		t.Fatal("delete of object 1 failed")
	}
	added, err := probprune.NewObject(1000, []probprune.Point{{0.49, 0.5}, {0.5, 0.49}})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Insert(added); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 60 {
		t.Fatalf("Len = %d, want 60", store.Len())
	}

	// Snapshot queries must be bit-identical to a fresh store's over the
	// same state.
	snap := store.Snapshot()
	fresh := newSnapshot(t, snap.Database(), opts)
	got := store.KNN(q, 5, 0.5)
	want := must(fresh.KNN(bg, q, 5, 0.5))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("store KNN differs from a fresh store on the same state")
	}
	if len(got) != 60 {
		t.Fatalf("KNN returned %d matches, want 60", len(got))
	}
	resHit := false
	for _, m := range got {
		if m.IsResult && m.Object.ID == 0 {
			resHit = true
		}
	}
	if !resHit {
		t.Fatal("updated object 0 (moved onto q) not a kNN result")
	}

	// Batch execution on one snapshot.
	reqs := []probprune.KNNRequest{
		{Q: q, K: 5, Tau: 0.5},
		{Q: probprune.PointObject(-2, probprune.Point{0.2, 0.8}), K: 3, Tau: 0.3},
	}
	batch, err := store.Snapshot().BatchKNN(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 {
		t.Fatalf("batch returned %d results", len(batch))
	}
	if !reflect.DeepEqual(batch[0], want) {
		t.Fatal("batch result differs from single-query result")
	}

	// Another query kind on the same snapshot.
	if topk := must(snap.TopKNN(bg, q, 5, 3)); len(topk) != 3 {
		t.Fatalf("TopKNN returned %d matches", len(topk))
	}

	// A held snapshot survives later mutations untouched.
	if ok, err := store.Delete(1000); err != nil || !ok {
		t.Fatal("delete of object 1000 failed")
	}
	if snap.Len() != 60 || store.Len() != 59 {
		t.Fatalf("snapshot/store lengths: %d/%d", snap.Len(), store.Len())
	}
	again, err := snap.KNN(context.Background(), q, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatal("held snapshot changed answers after a mutation")
	}
}
