//go:build !race

// The race detector instruments allocations, so the hard alloc
// ceilings below only hold (and only run) without -race.

package rtree

import (
	"fmt"
	"math/rand"
	"testing"

	"probprune/internal/geom"
)

// TestNearbyWithZeroAlloc: a warm NearbyWith traversal is allocation
// free — the queue lives in the reused buffer, heap items are plain
// values, and the rectangles handed out are views into the tree's
// pages.
func TestNearbyWithZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := New[int]()
	for i := 0; i < 500; i++ {
		tr.Insert(randRect(rng, 2), i)
	}
	probe := geom.Rect{Min: geom.Point{50, 50}, Max: geom.Point{50, 50}}
	dist := MinDist[int](geom.L2, probe)
	var buf NearbyBuf
	count := 0
	drain := func() {
		tr.NearbyWith(&buf, dist, func(_ geom.Rect, _ int, _ float64) bool {
			count++
			return count%97 != 0 // mix full drains with early exits
		})
	}
	drain() // warm the buffer to steady-state capacity
	if allocs := testing.AllocsPerRun(20, drain); allocs != 0 {
		t.Fatalf("warm NearbyWith allocated %.1f times per run, want 0", allocs)
	}
}

// TestWalkZeroAlloc: Walk (the filter step's traversal primitive) is
// allocation free — the root MBR is cached and every rectangle passed
// to the callbacks is a view.
func TestWalkZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr := New[int]()
	for i := 0; i < 500; i++ {
		tr.Insert(randRect(rng, 2), i)
	}
	sum := 0
	walk := func() {
		tr.Walk(
			func(mbr geom.Rect, count int) WalkAction {
				if count%11 == 0 {
					return TakeSubtree
				}
				return Descend
			},
			func(_ geom.Rect, v int) { sum += v },
		)
	}
	if allocs := testing.AllocsPerRun(20, walk); allocs != 0 {
		t.Fatalf("Walk allocated %.1f times per run, want 0 (sum %d)", allocs, sum)
	}
}

// TestInsertAllocsBounded: steady-state inserts into a grown tree cost
// a bounded handful of allocations (a new page every 8 nodes and
// page-table growth are amortized; split scratch is retained on the
// tree).
func TestInsertAllocsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := New[int]()
	for i := 0; i < 4000; i++ {
		tr.Insert(randRect(rng, 2), i)
	}
	i := 4000
	allocs := testing.AllocsPerRun(200, func() {
		tr.Insert(randRect(rng, 2), i)
		i++
	})
	// Amortized pages, page table and free list; per-entry allocation
	// (the pointer tree's entry boxes) would blow far past this.
	if allocs > 2 {
		t.Fatalf("steady-state Insert allocated %.1f times per run, want <= 2", allocs)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

var sinkClone *Tree[int]

// TestCloneAllocsConstant: Clone is a constant number of allocations
// (the page table and two ownership tags among them), independent of
// tree size — the property the store's copy-on-write detach relies on.
func TestCloneAllocsConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tr := New[int]()
	for i := 0; i < 3000; i++ {
		tr.Insert(randRect(rng, 2), i)
	}
	allocs := testing.AllocsPerRun(10, func() { sinkClone = tr.Clone() })
	if allocs > 8 {
		t.Fatalf("Clone allocated %.1f times per run, want <= 8 (got %s)", allocs, fmt.Sprint(sinkClone.Len()))
	}
}
