package core_test

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/gf"
	"probprune/internal/query"
	"probprune/internal/uncertain"
)

// This file is the exact oracle: every possible world of a tiny
// database is enumerated and every probability is a rational, so the
// paper's guarantee — bounds correct under possible-world semantics —
// is checked with no tolerance. Samples sit on a grid and every weight
// is a multiple of 1/16 (a world's probability is an exact integer over
// 16^n). Distances are compared exactly, in rational arithmetic on the
// stored coordinates, and bounds are read with big.Rat.SetFloat64,
// which is exact. Two grids:
//   - integer: a 5×5 grid of small integers, exact in binary, so equal
//     distances are common and ties must be decided;
//   - decimal: k/10 in [0, 0.5]², not exact in binary, so ties in the
//     reals become near-ties of the stored doubles that only an exact
//     domination test gets right.

// grid is one data class of the oracle: how a coordinate is drawn.
type grid struct {
	name  string
	coord func(*rand.Rand) float64
}

var grids = []grid{
	{"integer", func(rng *rand.Rand) float64 { return float64(rng.Intn(5)) }},
	{"decimal", func(rng *rand.Rand) float64 { return float64(rng.Intn(6)) / 10 }},
}

// gridDB builds n objects of 1, 2 or 4 samples on g, with uniform
// weights or random multiples of 1/16 summing to 1.
func gridDB(rng *rand.Rand, g grid, n int) uncertain.Database {
	db := make(uncertain.Database, n)
	for i := range db {
		db[i] = gridObject(rng, g, i+1)
	}
	return db
}

func gridObject(rng *rand.Rand, g grid, id int) *uncertain.Object {
	m := []int{1, 2, 4}[rng.Intn(3)]
	coords := make([]float64, 2*m)
	for j := range coords {
		coords[j] = g.coord(rng)
	}
	var weights []float64
	if rng.Intn(2) == 0 {
		// Cut the sixteenths 1..16 at m−1 distinct points.
		cuts := append(rng.Perm(15)[:m-1], 15)
		sort.Ints(cuts)
		prev := -1
		for _, c := range cuts {
			weights = append(weights, float64(c-prev)/16)
			prev = c
		}
	}
	o, err := uncertain.NewFlatObject(id, 2, coords, weights)
	if err != nil {
		panic(err)
	}
	return o
}

// exactPDFs enumerates every possible world of objs — object i at one
// of its samples, with probability the product of their weights — and
// returns, for each (target, reference) index pair, P(DomCount = k) for
// k = 0..dbLen: the mass of the worlds in which exactly k of the
// database objects objs[:dbLen] other than the two lie strictly closer
// to the reference than the target does. Objects past dbLen are query
// objects.
func exactPDFs(t *testing.T, objs []*uncertain.Object, dbLen int, pairs [][2]int) [][]*big.Rat {
	t.Helper()
	mass := make([][]int64, len(pairs))
	for p := range mass {
		mass[p] = make([]int64, dbLen+1)
	}
	first, rank := distRanks(objs)
	pos := make([]int, len(objs)) // the world's sample of each object, numbered as in rank
	var world func(i int, w int64)
	world = func(i int, w int64) {
		if i == len(objs) {
			for p, br := range pairs {
				r := rank[pos[br[1]]]
				d := r[pos[br[0]]]
				k := 0
				for a := range dbLen {
					if a != br[0] && a != br[1] && r[pos[a]] < d {
						k++
					}
				}
				mass[p][k] += w
			}
			return
		}
		for s := range objs[i].NumSamples() {
			w16 := objs[i].Weight(s) * 16
			if w16 != float64(int64(w16)) {
				t.Fatalf("object %d: weight %g is no multiple of 1/16", objs[i].ID, objs[i].Weight(s))
			}
			pos[i] = first[i] + s
			world(i+1, w*int64(w16))
		}
	}
	world(0, 1)
	den := new(big.Int).Lsh(big.NewInt(1), uint(4*len(objs)))
	out := make([][]*big.Rat, len(pairs))
	for p, m := range mass {
		for _, n := range m {
			out[p] = append(out[p], new(big.Rat).SetFrac(big.NewInt(n), den))
		}
	}
	return out
}

// distRanks numbers every sample of objs (object i's sample s is
// first[i]+s) and ranks the exact squared distance between any two:
// rank[u][v] < rank[w][v] exactly when sample u is strictly closer to v
// than w is, on the stored coordinates.
func distRanks(objs []*uncertain.Object) (first []int, rank [][]int) {
	var pts []geom.Point
	for _, o := range objs {
		first = append(first, len(pts))
		for s := range o.NumSamples() {
			pts = append(pts, o.Sample(s))
		}
	}
	d2 := make([]*big.Rat, len(pts)*len(pts))
	order := make([]int, len(d2))
	for u, pu := range pts {
		for v, pv := range pts {
			sum := new(big.Rat)
			for i := range pu {
				x := new(big.Rat).SetFloat64(pu[i])
				x.Sub(x, new(big.Rat).SetFloat64(pv[i]))
				sum.Add(sum, x.Mul(x, x))
			}
			d2[u*len(pts)+v] = sum
			order[u*len(pts)+v] = u*len(pts) + v
		}
	}
	sort.Slice(order, func(i, j int) bool { return d2[order[i]].Cmp(d2[order[j]]) < 0 })
	rank = make([][]int, len(pts))
	for v := range rank {
		rank[v] = make([]int, len(pts))
	}
	r := 0
	for i, e := range order {
		if i > 0 && d2[e].Cmp(d2[order[i-1]]) != 0 {
			r++
		}
		rank[e%len(pts)][e/len(pts)] = r // indexed [reference][sample]
	}
	return first, rank
}

// cdf returns P(DomCount < k) from an exact PDF.
func cdf(pdf []*big.Rat, k int) *big.Rat {
	sum := new(big.Rat)
	for j := 0; j < k && j < len(pdf); j++ {
		sum.Add(sum, pdf[j])
	}
	return sum
}

// brackets reports whether iv contains p exactly.
func brackets(iv gf.Interval, p *big.Rat) bool {
	lb, ub := new(big.Rat).SetFloat64(iv.LB), new(big.Rat).SetFloat64(iv.UB)
	return lb != nil && ub != nil && lb.Cmp(p) <= 0 && p.Cmp(ub) <= 0
}

// TestExactOracleSessionBounds: after the filter and after every
// Session.Step, at KMax 0 to 3 and one or four goroutines, every entry
// of Bounds and CDF — and the absolute-count accessors at every count —
// contains the exact probability.
func TestExactOracleSessionBounds(t *testing.T) {
	for _, g := range grids {
		t.Run(g.name, func(t *testing.T) { exactSessionBounds(t, g) })
	}
}

// exactSessionBounds runs each session until Step reports that nothing
// can change, with no loop cap: at the leaves every sample triple is
// decided (ties included), so the uncertainty must have reached 0.
func exactSessionBounds(t *testing.T, g grid) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := gridDB(rng, g, 5+rng.Intn(3))
		// Two pairs among the objects, and the first object against a
		// query object outside the database.
		q := gridObject(rng, g, -1)
		objs := append(append([]*uncertain.Object(nil), db...), q)
		pairs := [][2]int{{0, 1}, {2, 0}, {0, len(db)}}
		exact := exactPDFs(t, objs, len(db), pairs)
		for p, br := range pairs {
			target, ref := objs[br[0]], objs[br[1]]
			for kMax := 0; kMax <= 3; kMax++ {
				for _, par := range []int{1, 4} {
					s := core.NewSession(db, target, ref, core.Options{KMax: kMax, Parallelism: par})
					for level := 0; ; level++ {
						checkExact(t, s.Result(), exact[p], func() string {
							return fmt.Sprintf("seed %d pair %v kMax %d par %d level %d", seed, br, kMax, par, level)
						})
						if !s.Step() {
							break
						}
					}
					if u := s.Result().Uncertainty(); u != 0 {
						t.Fatalf("seed %d pair %v kMax %d par %d: session ended at level %d with uncertainty %g",
							seed, br, kMax, par, s.Level(), u)
					}
				}
			}
		}
	}
}

func checkExact(t *testing.T, res *core.Result, pdf []*big.Rat, where func() string) {
	t.Helper()
	off := res.CountOffset()
	for i, iv := range res.Bounds {
		if p := pdf[off+i]; !brackets(iv, p) {
			t.Fatalf("%s: Bounds[%d] = %+v excludes P(DomCount = %d) = %s", where(), i, iv, off+i, p.RatString())
		}
	}
	for i, iv := range res.CDF {
		if p := cdf(pdf, off+i); !brackets(iv, p) {
			t.Fatalf("%s: CDF[%d] = %+v excludes P(DomCount < %d) = %s", where(), i, iv, off+i, p.RatString())
		}
	}
	for k := 0; k <= len(pdf); k++ {
		if k < len(pdf) && !brackets(res.Bound(k), pdf[k]) {
			t.Fatalf("%s: Bound(%d) = %+v excludes %s", where(), k, res.Bound(k), pdf[k].RatString())
		}
		if p := cdf(pdf, k); !brackets(res.CDFBound(k), p) {
			t.Fatalf("%s: CDFBound(%d) = %+v excludes %s", where(), k, res.CDFBound(k), p.RatString())
		}
	}
}

// TestExactOracleKNNVerdicts: on one and four shards, every KNN match
// brackets the exact P(B ∈ kNN(q)) = P(DomCount(B, q) < k), and every
// decided verdict equals exact ≥ τ, for k 1 to 3 and τ ∈ {⅛, ¼, ½, ¾}.
func TestExactOracleKNNVerdicts(t *testing.T) {
	for _, g := range grids {
		t.Run(g.name, func(t *testing.T) { exactKNNVerdicts(t, g) })
	}
}

func exactKNNVerdicts(t *testing.T, g grid) {
	ctx := context.Background()
	decided := 0
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := gridDB(rng, g, 5+rng.Intn(3))
		objs := db
		qi := rng.Intn(len(db) + 1) // a database object, or a query object
		if qi == len(db) {
			objs = append(append(uncertain.Database(nil), db...), gridObject(rng, g, -1))
		}
		q := objs[qi]
		var pairs [][2]int
		for b := range db {
			if b != qi {
				pairs = append(pairs, [2]int{b, qi})
			}
		}
		exact := exactPDFs(t, objs, len(db), pairs)
		byID := make(map[int][]*big.Rat)
		for p, br := range pairs {
			byID[objs[br[0]].ID] = exact[p]
		}
		opts := core.Options{MaxIterations: 1 + rng.Intn(5)}
		for _, shards := range []int{1, 4} {
			st, err := query.NewShardedStore(db, query.ShardedOptions{Shards: shards}, opts)
			if err != nil {
				t.Fatal(err)
			}
			sn := st.Snapshot()
			for k := 1; k <= 3; k++ {
				for _, tau := range []float64{0.125, 0.25, 0.5, 0.75} {
					ms, err := sn.KNN(ctx, q, k, tau)
					if err != nil {
						t.Fatal(err)
					}
					if len(ms) != len(pairs) {
						t.Fatalf("seed %d shards %d: %d matches for %d candidates", seed, shards, len(ms), len(pairs))
					}
					for _, m := range ms {
						p := cdf(byID[m.Object.ID], k)
						if !brackets(m.Prob, p) {
							t.Fatalf("seed %d shards %d k %d τ %g object %d: %+v excludes %s",
								seed, shards, k, tau, m.Object.ID, m.Prob, p.RatString())
						}
						if !m.Decided {
							continue
						}
						decided++
						if want := p.Cmp(new(big.Rat).SetFloat64(tau)) >= 0; m.IsResult != want {
							t.Fatalf("seed %d shards %d k %d τ %g object %d: verdict %v, exact P = %s",
								seed, shards, k, tau, m.Object.ID, m.IsResult, p.RatString())
						}
					}
				}
			}
		}
	}
	if decided == 0 {
		t.Fatal("no decided verdict was checked")
	}
}
