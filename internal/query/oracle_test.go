package query

import (
	"fmt"
	"math/rand"
	"testing"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/mc"
	"probprune/internal/uncertain"
	"probprune/internal/workload"
)

// This file is the ground-truth oracle of the query layer: on seeded
// random databases, every probability interval the engine reports and
// every threshold verdict it decides is checked against internal/mc,
// which computes the domination count PDF EXACTLY on the discrete
// sample model (Lian & Chen's algorithm — the paper's comparison
// partner). The margin below absorbs only floating-point accumulation
// differences, not sampling error; a violation means a bound is wrong
// under possible-world semantics, the paper's central claim.
//
// Every failure message carries the database seed for replay.

const oracleEps = 1e-9

// oracleCase is one seeded random database plus a query object.
type oracleCase struct {
	seed int64
	norm geom.Norm
	db   uncertain.Database
	q    *uncertain.Object
	eng  *Engine
}

func newOracleCase(t *testing.T, seed int64, parallelism int) *oracleCase {
	t.Helper()
	norm := geom.L2
	if seed%2 == 1 {
		norm = geom.L1
	}
	db, err := workload.Synthetic(workload.SyntheticConfig{
		N:         10 + int(seed%7),
		Samples:   4,
		MaxExtent: 0.2, // large regions => overlapping, undecided candidates
		Seed:      seed,
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	rng := rand.New(rand.NewSource(seed * 1337))
	// A quarter of the seeds add existential uncertainty: a third of the
	// objects exist only with probability < 1, exercising the
	// existence-aware filter and preselection paths against the oracle
	// (mc scales domination probabilities by existence exactly).
	if seed%4 == 0 {
		for i, o := range db {
			if i%3 == 0 {
				if err := o.SetExistence(0.2 + 0.7*rng.Float64()); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		}
	}
	pts := make([]geom.Point, 4)
	cx, cy := rng.Float64(), rng.Float64()
	for i := range pts {
		pts[i] = geom.Point{cx + rng.Float64()*0.3, cy + rng.Float64()*0.3}
	}
	q, err := uncertain.NewObject(-1, pts)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	// A third of the seeds stop after one refinement iteration: the
	// wide, frequently undecided intervals of a truncated run must
	// contain the exact value just like converged ones.
	eng := newEngine(t, db, core.Options{Norm: norm, MaxIterations: 1 + 2*int(seed%3), Parallelism: parallelism})
	return &oracleCase{seed: seed, norm: norm, db: db, q: q, eng: eng}
}

// exactCDF returns the exact P(DomCount(target, ref) < k) over the
// database candidates (target and ref excluded).
func (oc *oracleCase) exactCDF(target, ref *uncertain.Object, k int) float64 {
	cands := make([]*uncertain.Object, 0, len(oc.db))
	for _, o := range oc.db {
		if o != target && o != ref {
			cands = append(cands, o)
		}
	}
	pdf := mc.DomCountPDF(oc.norm, cands, target, ref, 0)
	p := 0.0
	for i := 0; i < k && i < len(pdf); i++ {
		p += pdf[i]
	}
	return p
}

func checkContains(t *testing.T, seed int64, what string, lb, ub, exact float64) {
	t.Helper()
	if lb > exact+oracleEps || exact > ub+oracleEps {
		t.Errorf("seed %d: %s: exact %.12f outside bounds [%.12f, %.12f] (replay with this seed)",
			seed, what, exact, lb, ub)
	}
}

// TestOracleKNN checks every KNN probability interval and threshold
// verdict against the exact oracle on >= 20 seeded databases.
func TestOracleKNN(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			oc := newOracleCase(t, seed, 1+int(seed%3))
			k := 2 + int(seed%3)
			tau := []float64{0.3, 0.5, 0.8}[seed%3]
			for _, m := range oc.eng.KNN(oc.q, k, tau) {
				exact := oc.exactCDF(m.Object, oc.q, k)
				checkContains(t, seed, fmt.Sprintf("KNN(k=%d) object %d", k, m.Object.ID),
					m.Prob.LB, m.Prob.UB, exact)
				if m.Decided {
					if m.IsResult && exact < tau-oracleEps {
						t.Errorf("seed %d: KNN verdict IsResult for object %d but exact %.12f < tau %.2f",
							seed, m.Object.ID, exact, tau)
					}
					if !m.IsResult && exact >= tau+oracleEps {
						t.Errorf("seed %d: KNN verdict !IsResult for object %d but exact %.12f >= tau %.2f",
							seed, m.Object.ID, exact, tau)
					}
				}
			}
		})
	}
}

// TestOracleRKNN checks every RKNN interval and verdict against the
// exact oracle.
func TestOracleRKNN(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			oc := newOracleCase(t, seed, 1)
			k := 1 + int(seed%3)
			tau := 0.4
			for _, m := range oc.eng.RKNN(oc.q, k, tau) {
				// RKNN evaluates q as the target against candidate B as
				// the reference.
				exact := oc.exactCDF(oc.q, m.Object, k)
				checkContains(t, seed, fmt.Sprintf("RKNN(k=%d) object %d", k, m.Object.ID),
					m.Prob.LB, m.Prob.UB, exact)
				if m.Decided {
					if m.IsResult && exact < tau-oracleEps {
						t.Errorf("seed %d: RKNN verdict IsResult for object %d but exact %.12f < tau",
							seed, m.Object.ID, exact)
					}
					if !m.IsResult && exact >= tau+oracleEps {
						t.Errorf("seed %d: RKNN verdict !IsResult for object %d but exact %.12f >= tau",
							seed, m.Object.ID, exact)
					}
				}
			}
		})
	}
}

// TestOracleTopKNN checks that top-m selections carry correct bounds
// and, when decided, really are top-m by the exact probabilities.
func TestOracleTopKNN(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			oc := newOracleCase(t, seed, 1)
			k, m := 3, 3
			selected := oc.eng.TopKNN(oc.q, k, m)
			// Exact probability of every database object.
			exact := make(map[int]float64, len(oc.db))
			for _, o := range oc.db {
				exact[o.ID] = oc.exactCDF(o, oc.q, k)
			}
			// The m-th largest exact probability is the selection bar.
			bar := 0.0
			{
				vals := make([]float64, 0, len(exact))
				for _, p := range exact {
					vals = append(vals, p)
				}
				for i := 0; i < m && len(vals) > 0; i++ {
					best := 0
					for j := range vals {
						if vals[j] > vals[best] {
							best = j
						}
					}
					bar = vals[best]
					vals = append(vals[:best], vals[best+1:]...)
				}
			}
			for _, sel := range selected {
				checkContains(t, seed, fmt.Sprintf("TopKNN object %d", sel.Object.ID),
					sel.Prob.LB, sel.Prob.UB, exact[sel.Object.ID])
				if sel.Decided && exact[sel.Object.ID] < bar-oracleEps {
					t.Errorf("seed %d: TopKNN selected object %d (exact %.12f) below the top-%d bar %.12f",
						seed, sel.Object.ID, exact[sel.Object.ID], m, bar)
				}
			}
		})
	}
}

// TestOracleInverseRank checks every rank-probability interval of the
// probabilistic inverse ranking against the exact count PDF.
func TestOracleInverseRank(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			oc := newOracleCase(t, seed, 1)
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 3; trial++ {
				b := oc.db[rng.Intn(len(oc.db))]
				rd := oc.eng.InverseRank(b, oc.q)
				cands := make([]*uncertain.Object, 0, len(oc.db))
				for _, o := range oc.db {
					if o != b && o != oc.q {
						cands = append(cands, o)
					}
				}
				pdf := mc.DomCountPDF(oc.norm, cands, b, oc.q, 0)
				// Check every tracked rank; P(Rank = i) = P(DomCount = i-1).
				for j, iv := range rd.Ranks {
					rank := rd.MinRank + j
					exact := 0.0
					if rank-1 < len(pdf) {
						exact = pdf[rank-1]
					}
					checkContains(t, seed, fmt.Sprintf("InverseRank object %d rank %d", b.ID, rank),
						iv.LB, iv.UB, exact)
				}
				// Ranks outside the tracked window are impossible.
				for _, rank := range []int{rd.MinRank - 1, rd.MinRank + len(rd.Ranks)} {
					if rank >= 1 && rank-1 < len(pdf) && pdf[rank-1] > oracleEps {
						t.Errorf("seed %d: InverseRank object %d: rank %d has exact mass %.12f but is outside the bound window",
							seed, b.ID, rank, pdf[rank-1])
					}
				}
			}
		})
	}
}
