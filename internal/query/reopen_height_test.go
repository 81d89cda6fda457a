package query

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/mc"
	"probprune/internal/uncertain"
	"probprune/internal/workload"
)

// TestReopenAtOtherMaxHeight: a checkpoint persists neither
// decompositions nor the height limit they were built at, so a store
// reopened under a different MaxHeight after queries ran must build its
// trees at the new height. Its answers must equal a fresh store's at
// the new height, bit for bit, and every bound must bracket the exact
// kNN probability.
func TestReopenAtOtherMaxHeight(t *testing.T) {
	const k, tau = 10, 0.3
	db, err := workload.Synthetic(workload.SyntheticConfig{N: 300, Samples: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	queries := workload.Queries(db, 5, 10, geom.L2, 7)
	exact := make([]map[int]float64, len(queries)) // per query: ID -> P(ID is a kNN)
	for qi, q := range queries {
		exact[qi] = exactKNNProbs(db, q.Reference, k)
	}
	for _, hs := range [][2]int{{1, 0}, {0, 1}} {
		written, reopenedAt := hs[0], hs[1]
		t.Run(fmt.Sprintf("written=%d/reopened=%d", written, reopenedAt), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "db")
			s, err := BootstrapStore(db, PersistOptions{Dir: dir}, core.Options{MaxIterations: 5, MaxHeight: written})
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				s.KNN(q.Reference, k, tau)
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			opts := core.Options{MaxIterations: 5, MaxHeight: reopenedAt}
			reopened, err := OpenStore(PersistOptions{Dir: dir}, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			fresh, err := NewStore(db, opts)
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range queries {
				// Each store queries by its own copy of the reference
				// object, which the kNN candidates then exclude.
				rq, _ := reopened.Get(q.Reference.ID)
				fq, _ := fresh.Get(q.Reference.ID)
				got := reopened.KNN(rq, k, tau)
				if err := matchesEqual(got, fresh.KNN(fq, k, tau)); err != nil {
					t.Fatalf("query %d: reopened store differs from a fresh one: %v", qi, err)
				}
				for _, m := range got {
					p := exact[qi][m.Object.ID]
					if m.Prob.LB > p+oracleEps || p > m.Prob.UB+oracleEps {
						t.Errorf("query %d object %d: exact %.12f outside [%.12f, %.12f]", qi, m.Object.ID, p, m.Prob.LB, m.Prob.UB)
					}
					if m.Decided && m.IsResult != (p >= tau) {
						t.Errorf("query %d object %d: verdict IsResult=%v, exact %.12f", qi, m.Object.ID, m.IsResult, p)
					}
				}
			}
		})
	}
}

// exactKNNProbs returns P(DomCount(b, q) < k) for every database
// object b but q, over the database with b and q excluded. Per b,
// candidates that dominate it in no sample world are dropped and those
// that dominate it in every one shift the count, both exact on the
// sample model, so mc.DomCountPDF runs over the rest only.
func exactKNNProbs(db uncertain.Database, q *uncertain.Object, k int) map[int]float64 {
	// dist[o][ir] is the least and greatest distance from object o's
	// samples to q's sample ir.
	dist := make([][][2]float64, len(db))
	for i, o := range db {
		dist[i] = make([][2]float64, q.NumSamples())
		for ir := range dist[i] {
			lo, hi := math.Inf(1), 0.0
			for j := range o.NumSamples() {
				d := geom.L2.Dist(o.Sample(j), q.Sample(ir))
				lo, hi = min(lo, d), max(hi, d)
			}
			dist[i][ir] = [2]float64{lo, hi}
		}
	}
	out := make(map[int]float64, len(db))
	for bi, b := range db {
		if b.ID == q.ID {
			continue
		}
		var cands []*uncertain.Object
		shift := 0
		for ai, a := range db {
			if a == b || a.ID == q.ID {
				continue
			}
			never, always := true, a.ExistenceProb() == 1
			for ir, ad := range dist[ai] {
				bd := dist[bi][ir]
				never = never && ad[0] >= bd[1]
				always = always && ad[1] < bd[0]
			}
			switch {
			case always:
				shift++
			case !never:
				cands = append(cands, a)
			}
		}
		if shift >= k {
			out[b.ID] = 0
			continue
		}
		p := 0.0
		for _, x := range mc.DomCountPDF(geom.L2, cands, b, q, k-shift) {
			p += x
		}
		out[b.ID] = p
	}
	return out
}
