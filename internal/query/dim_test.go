package query

import (
	"context"
	"testing"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/uncertain"
)

// TestStoreRefusesOtherDimension: the first stored object fixes a
// store's dimension. Mutations carrying another dimension are refused
// with nothing applied, and every query entry refuses a query object of
// another dimension instead of evaluating distances across dimensions.
func TestStoreRefusesOtherDimension(t *testing.T) {
	ctx := context.Background()
	flat, err := uncertain.NewObject(9000, []geom.Point{{0.5, 0.5, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 4} {
		db := storeTestDB(t, 40, int64(n))
		mixed := append(uncertain.Database{flat}, db...)
		if _, err := NewShardedStore(mixed, ShardedOptions{Shards: n}, core.Options{}); err == nil {
			t.Fatalf("shards=%d: a store over mixed dimensions was built", n)
		}
		s, err := NewShardedStore(db, ShardedOptions{Shards: n}, core.Options{MaxIterations: 2})
		if err != nil {
			t.Fatal(err)
		}
		v := s.Version()
		if err := s.Insert(flat); err == nil {
			t.Fatalf("shards=%d: Insert of a 3-D object into a 2-D store succeeded", n)
		}
		upd, _ := uncertain.NewFlatObject(db[3].ID, flat.Dim(), flat.Coords, nil)
		if err := s.Update(upd); err == nil {
			t.Fatalf("shards=%d: Update to a 3-D object succeeded", n)
		}
		if s.Version() != v || s.Len() != len(db) {
			t.Fatalf("shards=%d: refused mutations changed the store: version %d -> %d, len %d", n, v, s.Version(), s.Len())
		}
		if o, _ := s.Get(db[3].ID); o != db[3] {
			t.Fatalf("shards=%d: refused Update replaced the object", n)
		}
		snap := s.Snapshot()
		queries := map[string]func() error{
			"KNN":  func() error { _, err := snap.KNN(ctx, flat, 3, 0.5); return err },
			"RKNN": func() error { _, err := snap.RKNN(ctx, flat, 3, 0.5); return err },
			"TopKNN": func() error {
				_, err := snap.TopKNN(ctx, flat, 3, 2)
				return err
			},
			"BatchKNN": func() error {
				_, err := snap.BatchKNN(ctx, []KNNRequest{{Q: db[0], K: 2, Tau: 0.5}, {Q: flat, K: 2, Tau: 0.5}})
				return err
			},
			"InverseRank(b)":     func() error { _, err := snap.InverseRank(ctx, flat, db[0]); return err },
			"InverseRank(r)":     func() error { _, err := snap.InverseRank(ctx, db[0], flat); return err },
			"RankByExpectedRank": func() error { _, err := snap.RankByExpectedRank(ctx, flat); return err },
			"UKRanks":            func() error { _, err := snap.UKRanks(ctx, flat, 2); return err },
			"GlobalTopK":         func() error { _, err := snap.GlobalTopK(ctx, flat, 2); return err },
			"CheckDim":           func() error { return snap.CheckDim(flat) },
		}
		for name, run := range queries {
			if run() == nil {
				t.Errorf("shards=%d: %s accepted a 3-D query object over a 2-D store", n, name)
			}
		}
		if _, err := snap.InverseRank(ctx, db[0], db[1]); err != nil {
			t.Errorf("shards=%d: InverseRank refused a valid pair: %v", n, err)
		}
	}

	// An empty store takes its dimension from its first object.
	s, err := NewStore(nil, core.Options{MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot().CheckDim(flat); err != nil {
		t.Fatalf("an empty store refused a query object: %v", err)
	}
	if err := s.Insert(flat); err != nil {
		t.Fatalf("first Insert into an empty store: %v", err)
	}
	if err := s.Insert(storeTestDB(t, 1, 9)[0]); err == nil {
		t.Fatal("a 2-D Insert after a 3-D first object succeeded")
	}
}
