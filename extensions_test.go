package probprune_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"probprune"
)

// TestSessionFacade drives the incremental API end to end through the
// public surface.
func TestSessionFacade(t *testing.T) {
	db, err := probprune.Synthetic(probprune.SyntheticConfig{
		N: 200, Samples: 16, MaxExtent: 0.05, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := probprune.Queries(db, 1, 8, probprune.L2, 32)
	s := probprune.NewSession(db, qs[0].Target, qs[0].Reference, probprune.Options{Adaptive: true})
	prev := s.Result().Uncertainty()
	steps := 0
	for s.Step() && steps < 8 {
		steps++
		u := s.Result().Uncertainty()
		if u > prev+1e-9 {
			t.Fatalf("uncertainty rose: %g -> %g", prev, u)
		}
		prev = u
	}
	if steps == 0 && !s.Done() {
		t.Fatal("session neither stepped nor finished")
	}
	si := probprune.NewSessionIndexed(probprune.NewIndex(db), qs[0].Target, qs[0].Reference, probprune.Options{})
	if si.Result().CompleteDominators != s.Result().CompleteDominators {
		t.Fatal("indexed session filter disagrees")
	}
}

// TestTopKNNFacade checks the top-m probable kNN query through the
// public surface, on every backend (frozen Engine, Store, 4-shard Store).
func TestTopKNNFacade(t *testing.T) {
	db, err := probprune.Synthetic(probprune.SyntheticConfig{
		N: 150, Samples: 16, MaxExtent: 0.05, Seed: 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, be := range queryBackends(t, db, probprune.Options{MaxIterations: 6}) {
		t.Run(be.name, func(t *testing.T) {
			q := probprune.PointObject(-1, probprune.Point{0.5, 0.5})
			top := be.eng.TopKNN(q, 3, 5)
			if len(top) != 5 {
				t.Fatalf("TopKNN returned %d matches", len(top))
			}
			for i := 1; i < len(top); i++ {
				mi := top[i-1].Prob.LB + top[i-1].Prob.UB
				mj := top[i].Prob.LB + top[i].Prob.UB
				if mj > mi+1e-9 {
					t.Fatal("TopKNN not ordered by probability")
				}
			}
		})
	}
}

// TestUKRanksFacade checks the U-kRanks query through the public
// surface against the deterministic certain-data case, on every
// backend.
func TestUKRanksFacade(t *testing.T) {
	db := probprune.Database{
		probprune.PointObject(0, probprune.Point{2, 0}),
		probprune.PointObject(1, probprune.Point{1, 0}),
	}
	for _, be := range queryBackends(t, db, probprune.Options{MaxIterations: 3}) {
		t.Run(be.name, func(t *testing.T) {
			q := probprune.PointObject(-1, probprune.Point{0, 0})
			winners := be.eng.UKRanks(q, 2)
			if len(winners) != 2 || winners[0].Object.ID != 1 || winners[1].Object.ID != 0 {
				t.Fatalf("UKRanks winners wrong: %+v", winners)
			}
			if ids := be.eng.GlobalTopK(q, 2); len(ids) != 2 {
				t.Fatalf("GlobalTopK returned %d objects", len(ids))
			}
		})
	}
}

// TestDurableReopenOracle is the root-level durability matrix: for the
// 20 oracle seeds, a mutation trace is written through a durable store,
// the store is closed and reopened, and the recovered store must answer
// KNN and RKNN exactly like an in-memory Store that applied the same
// trace — the public-API face of the crash-recovery equivalence suite.
func TestDurableReopenOracle(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			db, err := probprune.Synthetic(probprune.SyntheticConfig{
				N: 10 + int(seed%7), Samples: 4, MaxExtent: 0.2, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			opts := probprune.Options{MaxIterations: 1 + 2*int(seed%3)}
			popts := probprune.PersistOptions{
				Dir:             filepath.Join(t.TempDir(), "db"),
				CheckpointEvery: 4,
			}
			durable, err := probprune.BootstrapStore(db, popts, opts)
			if err != nil {
				t.Fatal(err)
			}
			mirror, err := probprune.NewStore(db, opts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed * 271))
			next := len(db)
			for i := 0; i < 12; i++ {
				pts := []probprune.Point{
					{rng.Float64(), rng.Float64()},
					{rng.Float64(), rng.Float64()},
				}
				var o *probprune.Object
				switch rng.Intn(3) {
				case 0:
					o, err = probprune.NewObject(next, pts)
					next++
					if err == nil {
						err = durable.Insert(o)
						if err == nil {
							err = mirror.Insert(o)
						}
					}
				case 1:
					o, err = probprune.NewObject(db[rng.Intn(len(db))].ID, pts)
					if err == nil {
						if _, live := mirror.Get(o.ID); live {
							err = durable.Update(o)
							if err == nil {
								err = mirror.Update(o)
							}
						}
					}
				default:
					victim := db[rng.Intn(len(db))].ID
					var found, mirrored bool
					if found, err = durable.Delete(victim); err == nil {
						if mirrored, err = mirror.Delete(victim); err == nil && found != mirrored {
							t.Fatal("delete outcome diverged")
						}
					}
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := durable.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, err := probprune.OpenStore(popts, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			if reopened.Version() != mirror.Version() {
				t.Fatalf("version %d, want %d", reopened.Version(), mirror.Version())
			}
			q := probprune.PointObject(-1, probprune.Point{0.5, 0.5})
			wantKNN := mirror.KNN(q, 3, 0.4)
			gotKNN := reopened.KNN(q, 3, 0.4)
			wantRKNN := mirror.RKNN(q, 2, 0.3)
			gotRKNN := reopened.RKNN(q, 2, 0.3)
			for _, pair := range []struct {
				kind      string
				got, want []probprune.Match
			}{{"KNN", gotKNN, wantKNN}, {"RKNN", gotRKNN, wantRKNN}} {
				if len(pair.got) != len(pair.want) {
					t.Fatalf("%s: %d matches, want %d", pair.kind, len(pair.got), len(pair.want))
				}
				for i := range pair.got {
					g, w := pair.got[i], pair.want[i]
					if g.Object.ID != w.Object.ID || g.Prob != w.Prob ||
						g.IsResult != w.IsResult || g.Decided != w.Decided || g.Iterations != w.Iterations {
						t.Fatalf("%s match %d: %+v, want %+v", pair.kind, i, g, w)
					}
				}
			}
		})
	}
}

// TestExistentialFacade exercises existential uncertainty end to end.
func TestExistentialFacade(t *testing.T) {
	ref := probprune.PointObject(10, probprune.Point{0, 0})
	target := probprune.PointObject(0, probprune.Point{5, 0})
	maybe := probprune.PointObject(1, probprune.Point{1, 0})
	if err := maybe.SetExistence(0.4); err != nil {
		t.Fatal(err)
	}
	db := probprune.Database{target, maybe}
	res := probprune.Run(db, target, ref, probprune.Options{MaxIterations: 3})
	iv := res.Bound(1)
	if iv.LB < 0.4-1e-9 || iv.UB > 0.4+1e-9 {
		t.Fatalf("existential bound %+v, want [0.4, 0.4]", iv)
	}
}
