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
		e := s.Snapshot().Engine()
		queries := map[string]func() error{
			"KNNCtx":  func() error { _, err := s.KNNCtx(ctx, flat, 3, 0.5); return err },
			"RKNNCtx": func() error { _, err := s.RKNNCtx(ctx, flat, 3, 0.5); return err },
			"TopKNNCtx": func() error {
				_, err := s.TopKNNCtx(ctx, flat, 3, 2)
				return err
			},
			"BatchKNN": func() error {
				_, err := s.BatchKNN(ctx, []KNNRequest{{Q: db[0], K: 2, Tau: 0.5}, {Q: flat, K: 2, Tau: 0.5}})
				return err
			},
			"InverseRankCtx(b)":     func() error { _, err := s.InverseRankCtx(ctx, flat, db[0]); return err },
			"InverseRankCtx(r)":     func() error { _, err := s.InverseRankCtx(ctx, db[0], flat); return err },
			"RankByExpectedRankCtx": func() error { _, err := s.RankByExpectedRankCtx(ctx, flat); return err },
			"UKRanksCtx":            func() error { _, err := s.UKRanksCtx(ctx, flat, 2); return err },
			"CheckDim":              func() error { return e.CheckDim(flat) },
		}
		for name, run := range queries {
			if run() == nil {
				t.Errorf("shards=%d: %s accepted a 3-D query object over a 2-D store", n, name)
			}
		}
		if s.InverseRank(flat, db[0]) != nil {
			t.Errorf("shards=%d: InverseRank answered a 3-D object", n)
		}
		if _, err := s.InverseRankCtx(ctx, db[0], db[1]); err != nil {
			t.Errorf("shards=%d: InverseRankCtx refused a valid pair: %v", n, err)
		}
	}

	// An empty store takes its dimension from its first object.
	s, err := NewStore(nil, core.Options{MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot().Engine().CheckDim(flat); err != nil {
		t.Fatalf("an empty store refused a query object: %v", err)
	}
	if err := s.Insert(flat); err != nil {
		t.Fatalf("first Insert into an empty store: %v", err)
	}
	if err := s.Insert(storeTestDB(t, 1, 9)[0]); err == nil {
		t.Fatal("a 2-D Insert after a 3-D first object succeeded")
	}
}
