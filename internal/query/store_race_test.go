package query

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"probprune/internal/core"
	"probprune/internal/uncertain"
)

// TestStoreConcurrentMutationAndQuery hammers a Store with concurrent
// Insert/Update/Delete while queries run, asserting snapshot isolation:
// under -race this also proves the copy-on-write discipline keeps
// readers off mutating state.
//
// Invariants the readers check on every result:
//   - the core objects (IDs 0..coreN-1) are only ever Updated, so every
//     query must see each core ID exactly once — an Update can never be
//     observed half-applied (old gone and new absent, or both present);
//   - transient objects (IDs >= 1000) are Inserted then Deleted, so
//     each transient ID appears at most once;
//   - a BatchKNN's requests share one snapshot, so every sub-result
//     must see the identical ID set.
func TestStoreConcurrentMutationAndQuery(t *testing.T) {
	const (
		coreN    = 16
		mutators = 3
		readers  = 3
		rounds   = 25
	)
	seedRng := rand.New(rand.NewSource(77))
	db := storeTestDB(t, coreN, 77)
	s, err := NewStore(db, core.Options{MaxIterations: 2, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := randObject(t, seedRng, -1)

	checkIDs := func(matches []Match, where string) {
		t.Helper()
		seen := make(map[int]int)
		for _, m := range matches {
			seen[m.Object.ID]++
		}
		for id := 0; id < coreN; id++ {
			if seen[id] != 1 {
				t.Errorf("%s: core ID %d appears %d times (half-applied update observed)", where, id, seen[id])
			}
		}
		for id, n := range seen {
			if id >= 1000 && n > 1 {
				t.Errorf("%s: transient ID %d appears %d times", where, id, n)
			}
		}
	}
	idSet := func(matches []Match) map[int]bool {
		set := make(map[int]bool, len(matches))
		for _, m := range matches {
			set[m.Object.ID] = true
		}
		return set
	}

	var wg sync.WaitGroup
	for w := 0; w < mutators; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < rounds; i++ {
				// Update a core object (atomic replace).
				id := rng.Intn(coreN)
				if err := s.Update(randObject(t, rng, id)); err != nil {
					t.Errorf("mutator %d: update: %v", w, err)
				}
				// Insert then delete a transient object.
				tid := 1000 + w*10000 + i
				if err := s.Insert(randObject(t, rng, tid)); err != nil {
					t.Errorf("mutator %d: insert: %v", w, err)
				}
				if ok, err := s.Delete(tid); err != nil || !ok {
					t.Errorf("mutator %d: transient %d vanished", w, tid)
				}
			}
		}(w)
	}
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			var lastVersion uint64
			for i := 0; i < rounds; i++ {
				snap := s.Snapshot()
				if v := snap.Version(); v < lastVersion {
					t.Errorf("reader %d: snapshot version went backwards: %d < %d", w, v, lastVersion)
				} else {
					lastVersion = v
				}
				matches, err := s.Snapshot().KNN(ctx, q, 3, 0.5)
				if err != nil {
					t.Errorf("reader %d: KNN: %v", w, err)
					return
				}
				checkIDs(matches, "KNN")

				batch, err := s.Snapshot().BatchKNN(ctx, []KNNRequest{
					{Q: q, K: 3, Tau: 0.5},
					{Q: q, K: 3, Tau: 0.5},
				})
				if err != nil {
					t.Errorf("reader %d: BatchKNN: %v", w, err)
					return
				}
				checkIDs(batch[0], "BatchKNN[0]")
				checkIDs(batch[1], "BatchKNN[1]")
				a, b := idSet(batch[0]), idSet(batch[1])
				if len(a) != len(b) {
					t.Errorf("reader %d: batch requests saw different snapshots", w)
				}
				for id := range a {
					if !b[id] {
						t.Errorf("reader %d: batch requests saw different ID sets (ID %d)", w, id)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// After the dust settles the store must be internally consistent.
	if s.Len() != coreN {
		t.Fatalf("Len = %d, want %d (all transients deleted)", s.Len(), coreN)
	}
	snap := s.Snapshot()
	fresh := newSnapshot(t, snap.Database(), core.Options{MaxIterations: 2})
	got := s.KNN(q, 3, 0.5)
	want := must(fresh.KNN(bg, q, 3, 0.5))
	if len(got) != len(want) {
		t.Fatalf("final state: store and fresh engine disagree on candidate count")
	}
	for i := range got {
		if got[i].Object != want[i].Object || got[i].Prob != want[i].Prob {
			t.Fatalf("final state: store result %d differs from fresh engine", i)
		}
	}
}

// TestStoreSnapshotSharing checks the copy-on-write bookkeeping:
// consecutive queries share one snapshot, a mutation detaches, and the
// persistent cache tracks database residency.
func TestStoreSnapshotSharing(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s, err := NewStore(storeTestDB(t, 10, 21), core.Options{MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := s.Snapshot(), s.Snapshot()
	if s1 != s2 {
		t.Fatal("back-to-back snapshots are distinct")
	}
	if err := s.Insert(randObject(t, rng, 500)); err != nil {
		t.Fatal(err)
	}
	s3 := s.Snapshot()
	if s3 == s1 {
		t.Fatal("snapshot not refreshed after mutation")
	}
	if s1.Len() != 10 || s3.Len() != 11 {
		t.Fatalf("snapshot lengths: %d, %d", s1.Len(), s3.Len())
	}
	var _ uncertain.Database = s1.Database()
}
