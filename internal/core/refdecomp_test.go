package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"probprune/internal/uncertain"
)

// TestSharedReferenceBitIdentical: a run against a shared reference
// decomposition — the reference pinned in a cache, every run reading it
// through its own overlay — must return exactly the bounds of a run
// that decomposes its own private copy: the shared structure caches
// work, it does not change it.
func TestSharedReferenceBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(900))
	db, _, reference := smallWorld(rng, 14, 16)
	shared := NewDecompCache(0)
	shared.Add(reference)
	for _, target := range db {
		private := Run(db, target, reference, Options{MaxIterations: 5})
		got := Run(db, target, reference, Options{MaxIterations: 5, SharedDecomps: shared.Overlay()})
		if !reflect.DeepEqual(private.Bounds, got.Bounds) || !reflect.DeepEqual(private.CDF, got.CDF) {
			t.Fatalf("target %d: shared-reference bounds differ from private-decomposition bounds", target.ID)
		}
	}
}

// TestSharedTargetBitIdentical mirrors the reference test for the
// target side (the RKNN access pattern: one target, many references).
func TestSharedTargetBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(901))
	db, target, _ := smallWorld(rng, 14, 16)
	shared := NewDecompCache(0)
	shared.Add(target)
	for _, reference := range db[1:] {
		private := Run(db, target, reference, Options{MaxIterations: 5})
		got := Run(db, target, reference, Options{MaxIterations: 5, SharedDecomps: shared.Overlay()})
		if !reflect.DeepEqual(private.Bounds, got.Bounds) || !reflect.DeepEqual(private.CDF, got.CDF) {
			t.Fatalf("reference %d: shared-target bounds differ from private-decomposition bounds", reference.ID)
		}
	}
}

// TestRefDecompMatchesDecompTree: the cached levels are the levels of a
// plain DecompTree.
func TestRefDecompMatchesDecompTree(t *testing.T) {
	rng := rand.New(rand.NewSource(903))
	obj := randObj(rng, 1, 64, 5, 5, 2)
	shared := newRefDecomp(obj, 0)
	plain := uncertain.NewDecompTree(obj, 0)
	// Request out of order to exercise the lazy extension.
	for _, level := range []int{3, 0, 5, 2, 5, 8} {
		got := shared.PartitionsAtLevel(level)
		want := plain.PartitionsAtLevel(level)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("level %d: shared partitions differ from DecompTree", level)
		}
	}
}

// TestDecompCacheBitIdentical: runs sharing a query-wide decomposition
// cache (operands AND influence objects) must reproduce the private
// runs exactly.
func TestDecompCacheBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(905))
	db, _, reference := smallWorld(rng, 14, 16)
	cache := NewDecompCache(0)
	for _, target := range db {
		private := Run(db, target, reference, Options{MaxIterations: 5})
		cached := Run(db, target, reference, Options{MaxIterations: 5, SharedDecomps: cache})
		if !reflect.DeepEqual(private.Bounds, cached.Bounds) || !reflect.DeepEqual(private.CDF, cached.CDF) {
			t.Fatalf("target %d: cached-decomposition bounds differ from private bounds", target.ID)
		}
	}
	if cache.Len() == 0 {
		t.Fatal("cache never populated")
	}
}

// TestDecompCacheConcurrent drives runs sharing one cache from many
// goroutines (the engine's actual access pattern); meaningful under
// -race.
func TestDecompCacheConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(906))
	db, _, reference := smallWorld(rng, 16, 16)
	cache := NewDecompCache(0)
	want := make([]*Result, len(db))
	for i, target := range db {
		want[i] = Run(db, target, reference, Options{MaxIterations: 4})
	}
	var wg sync.WaitGroup
	got := make([]*Result, len(db))
	for i, target := range db {
		wg.Add(1)
		go func(i int, target *uncertain.Object) {
			defer wg.Done()
			got[i] = Run(db, target, reference, Options{MaxIterations: 4, SharedDecomps: cache})
		}(i, target)
	}
	wg.Wait()
	for i := range db {
		if !reflect.DeepEqual(want[i].Bounds, got[i].Bounds) {
			t.Fatalf("target %d: concurrent cached run differs from sequential private run", db[i].ID)
		}
	}
}

// TestRefDecompConcurrentRuns drives many runs against one shared
// reference decomposition from concurrent goroutines; run with -race
// this is the safety test for one RefDecomp read by many sessions.
func TestRefDecompConcurrentRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(904))
	db, _, reference := smallWorld(rng, 16, 16)
	shared := NewDecompCache(0)
	shared.Add(reference)
	want := make([]*Result, len(db))
	for i, target := range db {
		want[i] = Run(db, target, reference, Options{MaxIterations: 4})
	}
	var wg sync.WaitGroup
	got := make([]*Result, len(db))
	for i, target := range db {
		wg.Add(1)
		go func(i int, target *uncertain.Object) {
			defer wg.Done()
			got[i] = Run(db, target, reference, Options{MaxIterations: 4, SharedDecomps: shared.Overlay()})
		}(i, target)
	}
	wg.Wait()
	for i := range db {
		if !reflect.DeepEqual(want[i].Bounds, got[i].Bounds) {
			t.Fatalf("target %d: concurrent shared run differs from sequential private run", db[i].ID)
		}
	}
}

// TestDecompCacheOverlay checks the overlay semantics Store relies on:
// pinned parent entries are shared, unknown objects stay in the
// overlay, and invalidation evicts per object while runs stay
// bit-identical.
func TestDecompCacheOverlay(t *testing.T) {
	rng := rand.New(rand.NewSource(907))
	db, target, reference := smallWorld(rng, 12, 16)

	base := NewDecompCache(0)
	for _, o := range db {
		base.Add(o)
	}
	if base.Len() != len(db) {
		t.Fatalf("base holds %d entries, want %d", base.Len(), len(db))
	}
	if base.Add(db[0]); base.Len() != len(db) {
		t.Fatal("re-adding a pinned object added an entry")
	}

	over := base.Overlay()
	if d := over.Get(db[3]); d != base.Get(db[3]) {
		t.Fatal("overlay did not share the pinned parent entry")
	}
	// The reference is not pinned: it must land in the overlay only.
	_ = over.Get(reference)
	if over.Len() != 1 {
		t.Fatalf("overlay holds %d entries, want 1 (the reference)", over.Len())
	}
	if base.Len() != len(db) {
		t.Fatalf("overlay miss leaked into the base cache (%d entries)", base.Len())
	}
	// Chained overlays read through to the root.
	if d := over.Overlay().Get(db[5]); d != base.Get(db[5]) {
		t.Fatal("second-level overlay did not reach the root entry")
	}

	// Runs through an overlay are bit-identical to private runs.
	private := Run(db, target, reference, Options{MaxIterations: 4})
	overlaid := Run(db, target, reference, Options{MaxIterations: 4, SharedDecomps: base.Overlay()})
	if !reflect.DeepEqual(private.Bounds, overlaid.Bounds) {
		t.Fatal("overlay run differs from private run")
	}

	// Invalidation: per-object, idempotent.
	if !base.Invalidate(db[3]) {
		t.Fatal("invalidate of pinned object reported no entry")
	}
	if base.Invalidate(db[3]) {
		t.Fatal("second invalidate reported an entry")
	}
	if base.Len() != len(db)-1 {
		t.Fatalf("base holds %d entries after invalidate, want %d", base.Len(), len(db)-1)
	}
	// A fresh entry after invalidation is a new decomposition of the
	// same (immutable) object: results stay bit-identical.
	reRun := Run(db, target, reference, Options{MaxIterations: 4, SharedDecomps: base.Overlay()})
	if !reflect.DeepEqual(private.Bounds, reRun.Bounds) {
		t.Fatal("run after invalidation differs")
	}
}
