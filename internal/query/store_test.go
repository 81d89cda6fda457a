package query

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/uncertain"
	"probprune/internal/workload"
)

func storeTestDB(t *testing.T, n int, seed int64) uncertain.Database {
	t.Helper()
	db, err := workload.Synthetic(workload.SyntheticConfig{N: n, Samples: 6, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func randObject(t *testing.T, rng *rand.Rand, id int) *uncertain.Object {
	t.Helper()
	pts := make([]geom.Point, 5)
	cx, cy := rng.Float64(), rng.Float64()
	for i := range pts {
		pts[i] = geom.Point{cx + rng.Float64()*0.05, cy + rng.Float64()*0.05}
	}
	o, err := uncertain.NewObject(id, pts)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// mutateStore applies a deterministic burst of Insert/Update/Delete.
func mutateStore(t *testing.T, s *Store, rng *rand.Rand, nextID *int, steps int) {
	t.Helper()
	for i := 0; i < steps; i++ {
		switch rng.Intn(3) {
		case 0:
			if err := s.Insert(randObject(t, rng, *nextID)); err != nil {
				t.Fatal(err)
			}
			*nextID++
		case 1:
			if s.Len() > 0 {
				snap := s.Snapshot().Database()
				o := snap[rng.Intn(len(snap))]
				if err := s.Update(randObject(t, rng, o.ID)); err != nil {
					t.Fatal(err)
				}
			}
		default:
			if s.Len() > 4 {
				snap := s.Snapshot().Database()
				if ok, err := s.Delete(snap[rng.Intn(len(snap))].ID); err != nil || !ok {
					t.Fatal("delete of existing ID failed")
				}
			}
		}
	}
}

// TestStoreEquivalence is the acceptance test of the Store: after an
// arbitrary mutation history, every query on a Store snapshot must be
// bit-identical to the same query on a fresh store built from the same
// state — at any Parallelism, with and without the persistent cache
// warm.
func TestStoreEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	db := storeTestDB(t, 40, 41)
	for _, par := range []int{1, 4} {
		par := par
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			opts := core.Options{MaxIterations: 4, Parallelism: par}
			s, err := NewStore(db, opts)
			if err != nil {
				t.Fatal(err)
			}
			nextID := 10000
			mutateStore(t, s, rng, &nextID, 30)

			q := randObject(t, rng, -1)
			snap := s.Snapshot()
			fresh := newSnapshot(t, snap.Database(), opts)

			// Run every query twice on the store: the second pass reuses
			// decompositions the first pass pinned — results must not move.
			for pass := 0; pass < 2; pass++ {
				if got, want := s.KNN(q, 3, 0.5), must(fresh.KNN(bg, q, 3, 0.5)); !reflect.DeepEqual(got, want) {
					t.Fatalf("pass %d: KNN store != fresh engine\n got %+v\nwant %+v", pass, got, want)
				}
				if got, want := must(s.Snapshot().RKNN(bg, q, 2, 0.3)), must(fresh.RKNN(bg, q, 2, 0.3)); !reflect.DeepEqual(got, want) {
					t.Fatalf("pass %d: RKNN store != fresh engine", pass)
				}
				if got, want := must(s.Snapshot().TopKNN(bg, q, 3, 4)), must(fresh.TopKNN(bg, q, 3, 4)); !reflect.DeepEqual(got, want) {
					t.Fatalf("pass %d: TopKNN store != fresh engine", pass)
				}
				if got, want := must(s.Snapshot().RankByExpectedRank(bg, q)), must(fresh.RankByExpectedRank(bg, q)); !reflect.DeepEqual(got, want) {
					t.Fatalf("pass %d: RankByExpectedRank store != fresh engine", pass)
				}
				if got, want := must(s.Snapshot().UKRanks(bg, q, 3)), must(fresh.UKRanks(bg, q, 3)); !reflect.DeepEqual(got, want) {
					t.Fatalf("pass %d: UKRanks store != fresh engine", pass)
				}
				b := snap.Database()[0]
				gotIR, wantIR := must(s.Snapshot().InverseRank(bg, b, q)), must(fresh.InverseRank(bg, b, q))
				if gotIR.MinRank != wantIR.MinRank || !reflect.DeepEqual(gotIR.Ranks, wantIR.Ranks) {
					t.Fatalf("pass %d: InverseRank store != fresh engine", pass)
				}
			}
		})
	}
}

// TestStoreEquivalenceAcrossMutations re-checks the bit-identical
// guarantee at several points of a mutation history, so the
// incrementally maintained index is compared against bulk-loaded trees
// of many different shapes.
func TestStoreEquivalenceAcrossMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	opts := core.Options{MaxIterations: 3}
	s, err := NewStore(storeTestDB(t, 25, 97), opts)
	if err != nil {
		t.Fatal(err)
	}
	nextID := 10000
	q := randObject(t, rng, -1)
	for round := 0; round < 6; round++ {
		mutateStore(t, s, rng, &nextID, 8)
		snap := s.Snapshot()
		fresh := newSnapshot(t, snap.Database(), opts)
		if got, want := s.KNN(q, 2, 0.4), must(fresh.KNN(bg, q, 2, 0.4)); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: KNN store != fresh engine", round)
		}
	}
}

// TestStoreSnapshotStability verifies snapshot isolation in the
// sequential case: a snapshot taken before mutations keeps answering
// from the old state.
func TestStoreSnapshotStability(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	opts := core.Options{MaxIterations: 3}
	s, err := NewStore(storeTestDB(t, 20, 5), opts)
	if err != nil {
		t.Fatal(err)
	}
	q := randObject(t, rng, -1)
	snap := s.Snapshot()
	before, err := snap.KNN(context.Background(), q, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	v := snap.Version()

	nextID := 10000
	mutateStore(t, s, rng, &nextID, 20)
	if s.Version() == v {
		t.Fatal("mutations did not advance the store version")
	}

	after, err := snap.KNN(context.Background(), q, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("snapshot answers changed after store mutations")
	}
	if snap.Len() == s.Len() && s.Version() != v {
		// Lengths can coincide by chance; the real check is above.
		t.Log("snapshot and store happen to have equal lengths")
	}
}

// TestBatchKNN checks that a batch returns, per request, exactly what
// the one-at-a-time path returns on the same snapshot.
func TestBatchKNN(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	opts := core.Options{MaxIterations: 3, Parallelism: 3}
	s, err := NewStore(storeTestDB(t, 30, 13), opts)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []KNNRequest{
		{Q: randObject(t, rng, -1), K: 3, Tau: 0.5},
		{Q: randObject(t, rng, -2), K: 1, Tau: 0.8},
		{Q: randObject(t, rng, -3), K: 5, Tau: 0.2},
		{Q: randObject(t, rng, -4), K: 0, Tau: 0.5}, // degenerate: k < 1
	}
	got, err := s.Snapshot().BatchKNN(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("batch returned %d results for %d requests", len(got), len(reqs))
	}
	snap := s.Snapshot()
	for i, r := range reqs {
		want, err := snap.KNN(context.Background(), r.Q, r.K, r.Tau)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("request %d: batch result differs from KNN", i)
		}
	}
	// Cancellation must propagate.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Snapshot().BatchKNN(ctx, reqs); err == nil {
		t.Fatal("cancelled batch returned no error")
	}
}

// TestStoreAPIErrors covers the mutation error paths.
func TestStoreAPIErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s, err := NewStore(nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := randObject(t, rng, 1)
	if err := s.Insert(o); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(randObject(t, rng, 1)); err == nil {
		t.Fatal("duplicate insert succeeded")
	}
	if err := s.Update(randObject(t, rng, 2)); err == nil {
		t.Fatal("update of unknown ID succeeded")
	}
	if err := s.Insert(nil); err == nil {
		t.Fatal("nil insert succeeded")
	}
	if ok, err := s.Delete(99); ok || err != nil {
		t.Fatalf("delete of unknown ID: ok=%v err=%v", ok, err)
	}
	if got, ok := s.Get(1); !ok || got != o {
		t.Fatal("Get(1) did not return the stored object")
	}
	if ok, err := s.Delete(1); err != nil || !ok {
		t.Fatal("delete of stored ID failed")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", s.Len())
	}
	if _, err := NewStore(uncertain.Database{o, randObject(t, rng, 1)}, core.Options{}); err == nil {
		t.Fatal("NewStore accepted duplicate IDs")
	}
	if _, err := NewStore(nil, core.Options{SharedDecomps: core.NewDecompCache(0)}); err == nil {
		t.Fatal("NewStore accepted a caller-supplied SharedDecomps cache")
	}
}
