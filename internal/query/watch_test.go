package query

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"probprune/internal/core"
	"probprune/internal/uncertain"
)

func testOpts() core.Options { return core.Options{MaxIterations: 3} }

// TestWatchDeliversGaplessChangeStream checks the Watch contract: the
// callback sees exactly the changes after the returned snapshot's
// version, in order, each carrying the snapshot of its own version.
func TestWatchDeliversGaplessChangeStream(t *testing.T) {
	db := storeTestDB(t, 20, 1)
	s, err := NewStore(db, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	nextID := len(db)
	// Mutate before watching: these changes must not be delivered.
	mutateStore(t, s, rng, &nextID, 5)

	var got []Change
	snap, stop := s.Watch(func(ch Change) { got = append(got, ch) })
	if snap.Version() != s.Version() {
		t.Fatalf("watch snapshot at version %d, store at %d", snap.Version(), s.Version())
	}
	base := snap.Version()

	mutateStore(t, s, rng, &nextID, 12)
	if len(got) != 12 {
		t.Fatalf("got %d changes, want 12", len(got))
	}
	for i, ch := range got {
		if ch.Version != base+uint64(i)+1 {
			t.Fatalf("change %d has version %d, want %d", i, ch.Version, base+uint64(i)+1)
		}
		if ch.Snap == nil || ch.Snap.Version() != ch.Version {
			t.Fatalf("change %d snapshot version mismatch", i)
		}
		switch ch.Kind {
		case ChangeInsert:
			if ch.Old != nil || ch.New == nil {
				t.Fatalf("insert change %d carries old=%v new=%v", i, ch.Old, ch.New)
			}
		case ChangeDelete:
			if ch.Old == nil || ch.New != nil {
				t.Fatalf("delete change %d carries old=%v new=%v", i, ch.Old, ch.New)
			}
		case ChangeUpdate:
			if ch.Old == nil || ch.New == nil || ch.Old.ID != ch.New.ID {
				t.Fatalf("update change %d malformed", i)
			}
		default:
			t.Fatalf("change %d has unknown kind %v", i, ch.Kind)
		}
		// The change snapshot must reflect the mutation.
		if ch.New != nil {
			if o, ok := findByID(ch.Snap.Database(), ch.New.ID); !ok || o != ch.New {
				t.Fatalf("change %d: new object not in its snapshot", i)
			}
		}
		if ch.Kind == ChangeDelete {
			if _, ok := findByID(ch.Snap.Database(), ch.Old.ID); ok {
				t.Fatalf("change %d: deleted object still in its snapshot", i)
			}
		}
	}

	// After stop, no further deliveries.
	stop()
	n := len(got)
	mutateStore(t, s, rng, &nextID, 4)
	if len(got) != n {
		t.Fatalf("callback invoked after stop: %d changes, want %d", len(got), n)
	}
}

func findByID(db uncertain.Database, id int) (*uncertain.Object, bool) {
	for _, o := range db {
		if o.ID == id {
			return o, true
		}
	}
	return nil, false
}

// TestBatchCtx: a batch of queries on one snapshot shares one context.
// A live context answers on the snapshot; once it is cancelled, every
// query kind returns context.Canceled.
func TestBatchCtx(t *testing.T) {
	db := storeTestDB(t, 30, 2)
	s, err := NewStore(db, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	q := db[0]
	snap := s.Snapshot()
	ctx, cancel := context.WithCancel(context.Background())
	matches, err := snap.KNN(ctx, q, 3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != len(db)-1 {
		t.Fatalf("got %d matches, want %d", len(matches), len(db)-1)
	}

	cancel()
	queries := map[string]func() error{
		"KNN":  func() error { _, err := snap.KNN(ctx, q, 3, 0.4); return err },
		"RKNN": func() error { _, err := snap.RKNN(ctx, q, 3, 0.4); return err },
		"TopKNN": func() error {
			_, err := snap.TopKNN(ctx, q, 3, 2)
			return err
		},
		"BatchKNN": func() error {
			_, err := snap.BatchKNN(ctx, []KNNRequest{{Q: q, K: 3, Tau: 0.4}})
			return err
		},
		"InverseRank":        func() error { _, err := snap.InverseRank(ctx, db[1], q); return err },
		"RankByExpectedRank": func() error { _, err := snap.RankByExpectedRank(ctx, q); return err },
		"UKRanks":            func() error { _, err := snap.UKRanks(ctx, q, 2); return err },
	}
	for name, run := range queries {
		if err := run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s on a cancelled context returned %v, want context.Canceled", name, err)
		}
	}
}
