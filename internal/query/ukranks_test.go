package query

import (
	"math/rand"
	"testing"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/mc"
	"probprune/internal/uncertain"
)

// exactRankProb computes the exact P(Rank(b) = rank) over db \ {b, r}.
func exactRankProb(db uncertain.Database, b, r *uncertain.Object, rank int) float64 {
	var cands []*uncertain.Object
	for _, o := range db {
		if o != b && o != r {
			cands = append(cands, o)
		}
	}
	pdf := mc.DomCountPDF(geom.L2, cands, b, r, 0)
	if rank-1 < 0 || rank-1 >= len(pdf) {
		return 0
	}
	return pdf[rank-1]
}

// TestUKRanksOnCertainData: with certain points the rank-i winner is
// the i-th closest object, with probability exactly 1.
func TestUKRanksOnCertainData(t *testing.T) {
	db := uncertain.Database{
		uncertain.PointObject(0, geom.Point{3, 0}),
		uncertain.PointObject(1, geom.Point{1, 0}),
		uncertain.PointObject(2, geom.Point{2, 0}),
	}
	q := uncertain.PointObject(99, geom.Point{0, 0})
	eng := newSnapshot(t, db, core.Options{MaxIterations: 4})
	winners := must(eng.UKRanks(bg, q, 3))
	wantIDs := []int{1, 2, 0}
	if len(winners) != 3 {
		t.Fatalf("got %d winners", len(winners))
	}
	for i, w := range winners {
		if w.Object.ID != wantIDs[i] {
			t.Errorf("rank %d: winner %d, want %d", w.Rank, w.Object.ID, wantIDs[i])
		}
		if !w.Decided || w.Prob.LB < 1-1e-9 {
			t.Errorf("rank %d: prob %+v decided=%v, want certain win", w.Rank, w.Prob, w.Decided)
		}
	}
}

// TestUKRanksBoundsContainExact: every reported winner probability must
// bracket the exact value, and a Decided winner must actually be the
// exact argmax.
func TestUKRanksBoundsContainExact(t *testing.T) {
	rng := rand.New(rand.NewSource(800))
	db := smallDB(rng, 10, 12)
	q := randObj(rng, 500, 12, 5, 5, 2)
	eng := newSnapshot(t, db, core.Options{MaxIterations: 8})
	for _, w := range must(eng.UKRanks(bg, q, 4)) {
		exact := exactRankProb(db, w.Object, q, w.Rank)
		if !w.Prob.Contains(exact, 1e-9) {
			t.Fatalf("rank %d winner %d: exact %g outside [%g, %g]",
				w.Rank, w.Object.ID, exact, w.Prob.LB, w.Prob.UB)
		}
		if !w.Decided {
			continue
		}
		for _, o := range db {
			if o == w.Object {
				continue
			}
			if p := exactRankProb(db, o, q, w.Rank); p > exact+1e-9 {
				t.Fatalf("rank %d: decided winner %d (P=%g) beaten by %d (P=%g)",
					w.Rank, w.Object.ID, exact, o.ID, p)
			}
		}
	}
}

// TestGlobalTopKDistinct: the convenience wrapper deduplicates winners.
func TestGlobalTopKDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(801))
	db := smallDB(rng, 8, 8)
	q := randObj(rng, 500, 8, 5, 5, 2)
	eng := newSnapshot(t, db, core.Options{MaxIterations: 6})
	out := must(eng.GlobalTopK(bg, q, 5))
	seen := map[int]bool{}
	for _, o := range out {
		if seen[o.ID] {
			t.Fatalf("object %d repeated", o.ID)
		}
		seen[o.ID] = true
	}
}

// TestUKRanksInvalidK returns nil for k < 1.
func TestUKRanksInvalidK(t *testing.T) {
	rng := rand.New(rand.NewSource(802))
	db := smallDB(rng, 4, 4)
	q := randObj(rng, 500, 4, 5, 5, 1)
	eng := newSnapshot(t, db, core.Options{MaxIterations: 2})
	if must(eng.UKRanks(bg, q, 0)) != nil {
		t.Error("k=0 returned winners")
	}
}
