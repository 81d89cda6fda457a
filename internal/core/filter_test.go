package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"probprune/internal/geom"
	"probprune/internal/rtree"
	"probprune/internal/uncertain"
	"probprune/internal/workload"
)

// mergeTestCase builds a seeded database, a target/reference pair and
// an arbitrary partition of the database into parts slices.
func mergeTestCase(t *testing.T, seed int64, parts int) (uncertain.Database, []uncertain.Database, *uncertain.Object, *uncertain.Object) {
	t.Helper()
	db, err := workload.Synthetic(workload.SyntheticConfig{N: 30, Samples: 4, MaxExtent: 0.15, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed * 7919))
	if seed%2 == 0 {
		for i, o := range db {
			if i%3 == 0 {
				if err := o.SetExistence(0.2 + 0.7*rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	split := make([]uncertain.Database, parts)
	for _, o := range db {
		i := rng.Intn(parts)
		split[i] = append(split[i], o)
	}
	return db, split, db[rng.Intn(len(db))], db[rng.Intn(len(db))]
}

func bulkTree(db uncertain.Database) *rtree.Tree[*uncertain.Object] {
	items := make([]rtree.BulkItem[*uncertain.Object], len(db))
	for i, o := range db {
		items[i] = rtree.BulkItem[*uncertain.Object]{Rect: o.MBR, Value: o}
	}
	return rtree.Bulk(items)
}

// outcome is a filter's outcome with the influence set in canonical
// order, as refinement reads it.
type outcome struct {
	dominators, pruned int
	influence          []*uncertain.Object
}

func (f *Filter) outcome() outcome {
	inf := slices.Clone(f.influence)
	canonicalize(inf)
	return outcome{f.dominators, f.pruned, inf}
}

// rectObject is an object whose MBR is exactly rc: one sample at each
// corner, or a single sample when rc has zero extent.
func rectObject(id int, rc geom.Rect) *uncertain.Object {
	if rc.Min.Equal(rc.Max) {
		return uncertain.PointObject(id, rc.Min)
	}
	coords := append(slices.Clone(rc.Min), rc.Max...)
	o, err := uncertain.NewFlatObject(id, len(rc.Min), coords, nil)
	if err != nil {
		panic(err)
	}
	return o
}

// filterWorld is a random database of rectangles around a target and a
// reference. On even seeds everything sits on the decimal grid (k/10)
// and a third of the objects are point objects at the target turned
// about the reference — reflected or rotated ±90°, ties in the reals
// that the stored doubles break by less than a float sum's rounding
// error. A sixth of the objects have zero extent and a quarter exist
// with probability below 1.
func filterWorld(seed int64) (db uncertain.Database, target, reference *uncertain.Object) {
	rng := rand.New(rand.NewSource(seed))
	grid := seed%2 == 0
	coord := func() float64 {
		if grid {
			return float64(rng.Intn(21)) / 10
		}
		return 2 * rng.Float64()
	}
	extent := func() float64 {
		if grid {
			return float64(rng.Intn(4)) / 10
		}
		return 0.3 * rng.Float64()
	}
	rect := func(zero bool) geom.Rect {
		lo := geom.Point{coord(), coord()}
		hi := slices.Clone(lo)
		if !zero {
			hi[0] += extent()
			hi[1] += extent()
		}
		return geom.Rect{Min: lo, Max: hi}
	}
	target = rectObject(0, rect(grid))
	db = append(db, target)
	reference = rectObject(1, rect(grid))
	db = append(db, reference)
	b, r := target.MBR.Min, reference.MBR.Min
	for id := 2; id < 60; id++ {
		var rc geom.Rect
		switch {
		case grid && id%3 == 0:
			// b turned about r: reflected, or rotated by ±90°.
			bx, by := b[0]-r[0], b[1]-r[1]
			p := [3]geom.Point{{r[0] - bx, r[1] - by}, {r[0] - by, r[1] + bx}, {r[0] + by, r[1] - bx}}[id%9/3]
			rc = geom.PointRect(p)
		default:
			rc = rect(id%6 == 1)
		}
		o := rectObject(id, rc)
		if id%4 == 3 {
			if err := o.SetExistence(0.25 + 0.5*rng.Float64()); err != nil {
				panic(err)
			}
		}
		db = append(db, o)
	}
	rng.Shuffle(len(db), func(i, j int) { db[i], db[j] = db[j], db[i] })
	return db, target, reference
}

// wantRole is the filter's rule spelled out: a fresh kernel's verdict
// plus the existence rule.
func wantRole(n geom.Norm, crit geom.Criterion, a *uncertain.Object, target, reference geom.Rect) Role {
	var k geom.PairKernel
	k.Reset(n, crit, target, reference)
	switch k.Relate(a.MBR) {
	case geom.NeverCloser:
		return RolePruned
	case geom.Dominates:
		if a.ExistenceProb() == 1 {
			return RoleDominator
		}
	}
	return RoleInfluence
}

// TestFilterProperty holds the one filter to its definition on random
// rectangles with near ties, zero extents and existence below 1, under
// L1, L2 and L∞ and both criteria:
//   - every object's role is a fresh PairKernel's verdict plus the
//     existence rule, and a scan tallies exactly those roles;
//   - whenever the whole-cut shortcut decides a partition, its outcome
//     is that of a walk of the same tree, and when it does not, it
//     records nothing;
//   - a scan of one half plus a walk of the other (with or without the
//     shortcut tried first) equals the monolithic scan;
//   - on fixed regions, the clear cases take the clear roles.
func TestFilterProperty(t *testing.T) {
	wholes := 0
	for seed := int64(0); seed < 24; seed++ {
		db, target, reference := filterWorld(seed)
		for _, n := range []geom.Norm{geom.L1, geom.L2, geom.LInf} {
			for _, crit := range []geom.Criterion{geom.Optimal, geom.MinMax} {
				at := fmt.Sprintf("seed %d %v L%g", seed, crit, n.P)
				opts := Options{Norm: n, Criterion: crit}
				var mono Filter
				mono.Reset(target, reference, opts)
				var want outcome
				for _, a := range db {
					role := wantRole(n, crit, a, target.MBR, reference.MBR)
					if got := mono.Role(a.MBR, a.ExistenceProb()); got != role {
						t.Fatalf("%s: object %d (%v, exist %g) role %v, fresh kernel %v", at, a.ID, a.MBR, a.ExistenceProb(), got, role)
					}
					if a == target || a == reference {
						continue
					}
					switch role {
					case RoleDominator:
						want.dominators++
					case RolePruned:
						want.pruned++
					default:
						want.influence = append(want.influence, a)
					}
				}
				canonicalize(want.influence)
				mono.Scan(db)
				if got := mono.outcome(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: scan %d dominators, %d pruned, %d influence; roles tally %d, %d, %d",
						at, got.dominators, got.pruned, len(got.influence), want.dominators, want.pruned, len(want.influence))
				}

				// Cuts ordered by distance to the reference, so that near
				// cuts can dominate and far ones be dominated wholesale;
				// the cut holding the target or the reference must fall
				// through to the walk.
				byDist := slices.Clone(db)
				slices.SortStableFunc(byDist, func(x, y *uncertain.Object) int {
					return cmp.Compare(x.MBR.MinDistRect(n, reference.MBR), y.MBR.MinDistRect(n, reference.MBR))
				})
				var cuts Filter
				cuts.Reset(target, reference, opts)
				for lo := 0; lo < len(byDist); lo += 6 {
					part := byDist[lo:min(lo+6, len(byDist))]
					tree := bulkTree(part)
					bounds, _ := tree.Bounds()
					allCertain := func() bool {
						return !slices.ContainsFunc(part, func(o *uncertain.Object) bool { return o.ExistenceProb() < 1 })
					}
					var whole, walk Filter
					whole.Reset(target, reference, opts)
					walk.Reset(target, reference, opts)
					walk.Walk(tree)
					if whole.Whole(bounds, tree.Len(), allCertain) {
						wholes++
						if got, w := whole.outcome(), walk.outcome(); !reflect.DeepEqual(got, w) {
							t.Fatalf("%s: whole cut %v decided %+v, walk %+v", at, bounds, got, w)
						}
					} else if got := whole.outcome(); !reflect.DeepEqual(got, outcome{}) {
						t.Fatalf("%s: undecided whole cut recorded %+v", at, got)
					}
					if !cuts.Whole(bounds, tree.Len(), allCertain) {
						cuts.Walk(tree)
					}
				}
				if got := cuts.outcome(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: cuts %+v, monolithic %+v", at, got, want)
				}

				var halves Filter
				halves.Reset(target, reference, opts)
				halves.Scan(db[:len(db)/2])
				halves.Walk(bulkTree(db[len(db)/2:]))
				if got := halves.outcome(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: scan+walk %+v, monolithic %+v", at, got, want)
				}
			}
		}
	}
	if wholes == 0 {
		t.Fatal("the whole-cut shortcut never decided a cut")
	}

	// Fixed regions, clear cases: near dominates the target, the target
	// dominates far, and an overlap of the reference's distance range
	// decides neither way.
	mk := func(id int, x0, x1 float64) *uncertain.Object {
		return rectObject(id, geom.Rect{Min: geom.Point{x0, 0}, Max: geom.Point{x1, 1}})
	}
	near, far, ref, amb := mk(1, 0, 1), mk(2, 10, 11), mk(3, 1.5, 2), mk(4, 1.4, 2.4)
	for _, c := range []struct {
		a, target *uncertain.Object
		want      Role
	}{{near, far, RoleDominator}, {far, near, RolePruned}, {amb, near, RoleInfluence}} {
		var f Filter
		f.Reset(c.target, ref, Options{})
		if got := f.Role(c.a.MBR, 1); got != c.want {
			t.Errorf("object %d against target %d: role %v, want %v", c.a.ID, c.target.ID, got, c.want)
		}
	}
}

// TestMergePartialsMatchesMonolithicFilter: one filter fed a synthetic
// database split at random into parts — every part scanned, every part
// walked, or parts alternately walked (whole-cut shortcut first) and
// scanned — refines from the monolithic outcome: counts, influence
// membership and canonical order.
func TestMergePartialsMatchesMonolithicFilter(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		for _, parts := range []int{1, 2, 3, 5, 8} {
			db, split, target, reference := mergeTestCase(t, seed, parts)
			opts := Options{}
			want := NewSession(db, target, reference, opts).Result()
			feeds := map[string]func(*Filter, int, uncertain.Database){
				"scan": func(f *Filter, _ int, part uncertain.Database) { f.Scan(part) },
				"walk": func(f *Filter, _ int, part uncertain.Database) { f.Walk(bulkTree(part)) },
				"mixed": func(f *Filter, i int, part uncertain.Database) {
					tree := bulkTree(part)
					if i%2 == 1 {
						f.Scan(part)
					} else if bounds, ok := tree.Bounds(); ok && !f.Whole(bounds, tree.Len(), func() bool { return false }) {
						f.Walk(tree)
					}
				},
			}
			for name, feed := range feeds {
				var f Filter
				f.Reset(target, reference, opts)
				for i, part := range split {
					feed(&f, i, part)
				}
				got := f.Session(opts).Result()
				if got.CompleteDominators != want.CompleteDominators || got.Pruned != want.Pruned {
					t.Fatalf("seed %d parts %d %s: counts (%d dom, %d pruned) != monolithic (%d, %d)",
						seed, parts, name, got.CompleteDominators, got.Pruned, want.CompleteDominators, want.Pruned)
				}
				if !reflect.DeepEqual(got.Influence, want.Influence) {
					t.Fatalf("seed %d parts %d %s: influence set differs from monolithic", seed, parts, name)
				}
			}
		}
	}
}

// TestRunMergedBitIdentical: refinement over a filter fed four R-tree
// cuts produces bounds bit-identical to Run and RunIndexed over the
// combined database — at full depth and truncated, with and without a
// shared decomposition cache.
func TestRunMergedBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			db, split, target, reference := mergeTestCase(t, seed, 4)
			opts := Options{MaxIterations: 2 + int(seed%3)}
			if seed%3 == 0 {
				opts.KMax = 3
			}
			if seed%4 == 0 {
				opts.SharedDecomps = NewDecompCache(opts.MaxHeight)
			}
			want := Run(db, target, reference, opts)
			wantIdx := RunIndexed(bulkTree(db), target, reference, opts)

			cuts := func() *Filter {
				var f Filter
				f.Reset(target, reference, opts)
				for _, part := range split {
					f.Walk(bulkTree(part))
				}
				return &f
			}
			got := cuts().Run(opts)

			for name, res := range map[string]*Result{"RunIndexed": wantIdx, "cuts": got} {
				if res.CompleteDominators != want.CompleteDominators || res.Pruned != want.Pruned {
					t.Fatalf("seed %d: %s filter stats diverge", seed, name)
				}
				if !reflect.DeepEqual(res.Bounds, want.Bounds) || !reflect.DeepEqual(res.CDF, want.CDF) {
					t.Fatalf("seed %d: %s bounds diverge from Run:\nwant %v\ngot  %v", seed, name, want.Bounds, res.Bounds)
				}
			}

			// The session path (Filter.Session + Step) must land on the
			// same bounds as Filter.Run's own refinement loop.
			s := cuts().Session(opts)
			for i := 0; i < opts.maxIterations() && s.Step(); i++ {
			}
			if !reflect.DeepEqual(s.Result().Bounds, want.Bounds) {
				t.Fatalf("seed %d: cut session bounds diverge from Run", seed)
			}
		})
	}
}

// BenchmarkFilter is the filter step alone, per (target, reference):
// a scan and an R-tree walk of 10⁴ 4-sample objects, for 16 targets
// against one reference each.
func BenchmarkFilter(b *testing.B) {
	db, err := workload.Synthetic(workload.SyntheticConfig{N: 10000, Samples: 4, MaxExtent: 0.01, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	index := bulkTree(db)
	queries := workload.Queries(db, 16, 10, geom.L2, 1)
	for _, walk := range []bool{false, true} {
		b.Run(map[bool]string{false: "scan", true: "walk"}[walk], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				var f Filter
				f.Reset(q.Target, q.Reference, Options{})
				if walk {
					f.Walk(index)
				} else {
					f.Scan(db)
				}
			}
		})
	}
}
