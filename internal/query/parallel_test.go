package query

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"probprune/internal/core"
	"probprune/internal/geom"
)

// The executor's central promise: results are identical to the
// sequential path regardless of worker count. These tests pin that down
// with reflect.DeepEqual — bounds must be bit-identical, not merely
// close — across every query type and several seeds. Run with -race
// they are also the safety test for concurrent candidate runs against
// one shared reference decomposition.

func enginePair(t *testing.T, seed int64, n, samples, workers int) (*Snapshot, *Snapshot, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	db := smallDB(rng, n, samples)
	seq := newSnapshot(t, db, core.Options{MaxIterations: 5, Parallelism: 1})
	par := newSnapshot(t, db, core.Options{MaxIterations: 5, Parallelism: workers})
	return seq, par, rng
}

func TestParallelKNNMatchesSequential(t *testing.T) {
	for _, seed := range []int64{400, 401, 402} {
		seq, par, rng := enginePair(t, seed, 30, 12, 4)
		q := randObj(rng, 500, 12, 5, 5, 2)
		a := must(seq.KNN(bg, q, 3, 0.5))
		b := must(par.KNN(bg, q, 3, 0.5))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: parallel KNN differs from sequential", seed)
		}
	}
}

func TestParallelRKNNMatchesSequential(t *testing.T) {
	for _, seed := range []int64{410, 411, 412} {
		seq, par, rng := enginePair(t, seed, 25, 12, 4)
		q := randObj(rng, 500, 12, 5, 5, 2)
		a := must(seq.RKNN(bg, q, 2, 0.5))
		b := must(par.RKNN(bg, q, 2, 0.5))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: parallel RKNN differs from sequential", seed)
		}
	}
}

func TestParallelRankingMatchesSequential(t *testing.T) {
	for _, seed := range []int64{420, 421} {
		seq, par, rng := enginePair(t, seed, 20, 12, 4)
		q := randObj(rng, 500, 12, 5, 5, 2)
		a := must(seq.RankByExpectedRank(bg, q))
		b := must(par.RankByExpectedRank(bg, q))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: parallel ranking differs from sequential", seed)
		}
	}
}

func TestParallelTopKNNMatchesSequential(t *testing.T) {
	for _, seed := range []int64{430, 431} {
		seq, par, rng := enginePair(t, seed, 25, 12, 4)
		q := randObj(rng, 500, 12, 5, 5, 2)
		a := must(seq.TopKNN(bg, q, 3, 5))
		b := must(par.TopKNN(bg, q, 3, 5))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: parallel TopKNN differs from sequential", seed)
		}
	}
}

func TestParallelUKRanksMatchesSequential(t *testing.T) {
	seq, par, rng := enginePair(t, 440, 20, 12, 4)
	q := randObj(rng, 500, 12, 5, 5, 2)
	a := must(seq.UKRanks(bg, q, 4))
	b := must(par.UKRanks(bg, q, 4))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("parallel UKRanks differs from sequential")
	}
}

// TestInverseRankDeterministicAndSound: the one single-run query
// consumes Parallelism at the pair level (like core.Run), so it is
// deterministic for a fixed value, and its bounds at any worker count
// must contain the bounds' sequential values up to float reassociation.
func TestInverseRankDeterministicAndSound(t *testing.T) {
	seq, par, rng := enginePair(t, 450, 15, 12, 4)
	q := randObj(rng, 500, 12, 5, 5, 2)
	a := must(seq.InverseRank(bg, seq.Database()[0], q))
	b := must(par.InverseRank(bg, par.Database()[0], q))
	b2 := must(par.InverseRank(bg, par.Database()[0], q))
	if !reflect.DeepEqual(b.Ranks, b2.Ranks) {
		t.Fatal("InverseRank not deterministic for a fixed Parallelism")
	}
	if a.MinRank != b.MinRank || len(a.Ranks) != len(b.Ranks) {
		t.Fatal("InverseRank structure differs across Parallelism settings")
	}
	for i := range a.Ranks {
		if !almostEqual(a.Ranks[i].LB, b.Ranks[i].LB, 1e-12) || !almostEqual(a.Ranks[i].UB, b.Ranks[i].UB, 1e-12) {
			t.Fatalf("rank %d bounds diverge beyond reassociation tolerance", i)
		}
	}
}

// TestDefaultParallelismMatchesExplicitSequential: the zero value
// (GOMAXPROCS workers) must agree with one worker too.
func TestDefaultParallelismMatchesExplicitSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(460))
	db := smallDB(rng, 20, 12)
	q := randObj(rng, 500, 12, 5, 5, 2)
	def := newSnapshot(t, db, core.Options{MaxIterations: 5})
	one := newSnapshot(t, db, core.Options{MaxIterations: 5, Parallelism: 1})
	if !reflect.DeepEqual(must(def.KNN(bg, q, 3, 0.5)), must(one.KNN(bg, q, 3, 0.5))) {
		t.Fatal("default-parallelism KNN differs from single-worker KNN")
	}
}

// TestCtxCancellation: a cancelled context aborts the query with its
// error.
func TestCtxCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(470))
	db := smallDB(rng, 20, 12)
	q := randObj(rng, 500, 12, 5, 5, 2)
	eng := newSnapshot(t, db, core.Options{MaxIterations: 5, Parallelism: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if m, err := eng.KNN(ctx, q, 3, 0.5); err != context.Canceled || m != nil {
		t.Fatalf("KNN after cancel: matches=%v err=%v", m, err)
	}
	if m, err := eng.RKNN(ctx, q, 3, 0.5); err != context.Canceled || m != nil {
		t.Fatalf("RKNN after cancel: matches=%v err=%v", m, err)
	}
	if r, err := eng.RankByExpectedRank(ctx, q); err != context.Canceled || r != nil {
		t.Fatalf("RankByExpectedRank after cancel: ranked=%v err=%v", r, err)
	}
	if m, err := eng.TopKNN(ctx, q, 3, 5); err != context.Canceled || m != nil {
		t.Fatalf("TopKNN after cancel: matches=%v err=%v", m, err)
	}
	if w, err := eng.UKRanks(ctx, q, 3); err != context.Canceled || w != nil {
		t.Fatalf("UKRanks after cancel: winners=%v err=%v", w, err)
	}
}

// TestRKNNPreselectionNeverPrunesAPossibleResult mirrors the kNN
// preselection soundness test: every candidate the reverse-kNN filter
// discards must have exact probability zero.
func TestRKNNPreselectionNeverPrunesAPossibleResult(t *testing.T) {
	rng := rand.New(rand.NewSource(480))
	db := smallDB(rng, 40, 8)
	q := randObj(rng, 500, 8, 5, 5, 2)
	eng := newSnapshot(t, db, core.Options{MaxIterations: 6})
	const k = 3
	pruned := 0
	for _, b := range db {
		if !eng.rknnPrunable(q, b, k, geom.L2) {
			continue
		}
		pruned++
		// Exact P(DomCount(q, B) < k) with B as the reference.
		if exact := exactTail(db, q, b, k); exact != 0 {
			t.Fatalf("object %d pruned but P(RkNN) = %g", b.ID, exact)
		}
	}
	if pruned == 0 {
		t.Skip("instance produced no prunable objects")
	}
}

// TestRKNNWithoutIndexMatchesIndexed: the engine's streaming
// preselection and the full-scan reference's linear count must agree
// on the full query result.
func TestRKNNWithoutIndexMatchesIndexed(t *testing.T) {
	rng := rand.New(rand.NewSource(481))
	db := smallDB(rng, 30, 12)
	q := randObj(rng, 500, 12, 5, 5, 2)
	opts := core.Options{MaxIterations: 5}
	requireMatchesAgree(t, must(newSnapshot(t, db, opts).RKNN(bg, q, 2, 0.5)), fullScan{db, opts}.rknn(q, 2, 0.5))
}

// TestKNNLinearFallbackPrunes: the engine's prune threshold equals the
// full-scan reference's linear one, and the candidates beyond it are
// preselected away without IDCA runs.
func TestKNNLinearFallbackPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(482))
	db := smallDB(rng, 60, 8)
	q := randObj(rng, 500, 8, 5, 5, 2)
	opts := core.Options{MaxIterations: 5}
	eng := newSnapshot(t, db, opts)
	thresh := eng.knnThreshold(q, 3, geom.L2)
	if thresh == 0 || thresh != (fullScan{db, opts}).knnThreshold(q, 3) {
		t.Fatalf("unexpected threshold %g", thresh)
	}
	prunedIterations := 0
	for _, m := range must(eng.KNN(bg, q, 3, 0.5)) {
		if knnPrunable(m.Object, q, thresh, geom.L2) {
			if m.Iterations != 0 || m.IsResult || !m.Decided {
				t.Fatalf("prunable object %d was not preselected: %+v", m.Object.ID, m)
			}
			prunedIterations++
		}
	}
	if prunedIterations == 0 {
		t.Skip("instance produced no prunable objects")
	}
}
