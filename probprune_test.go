package probprune_test

import (
	"math/rand"
	"path/filepath"
	"testing"

	"probprune"
)

// backend is one of the four public query backends — frozen Engine,
// live Store, a 4-shard Store, and a durable Store written to
// disk, closed and reopened — exposed through the common Engine
// surface, so every root-level API test body runs unchanged (and must
// pass identically) against each.
type backend struct {
	name string
	eng  *probprune.Engine
}

// byID resolves the backend's own instance of a database object —
// backends recovered from disk hold decoded copies, not db's pointers.
// newEngine is probprune.NewEngine over a database the store accepts.
func newEngine(tb testing.TB, db probprune.Database, opts probprune.Options) *probprune.Engine {
	tb.Helper()
	e, err := probprune.NewEngine(db, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

func (be backend) byID(t *testing.T, id int) *probprune.Object {
	t.Helper()
	for _, o := range be.eng.Database() {
		if o.ID == id {
			return o
		}
	}
	t.Fatalf("object %d not in backend %s", id, be.name)
	return nil
}

// queryBackends builds identically-configured engines from all four
// backends over the same database.
func queryBackends(t *testing.T, db probprune.Database, opts probprune.Options) []backend {
	t.Helper()
	store, err := probprune.NewStore(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := probprune.NewShardedStore(db, probprune.ShardedOptions{Shards: 4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return []backend{
		{"engine", newEngine(t, db, opts)},
		{"store", store.Snapshot().Engine()},
		{"sharded", sharded.Snapshot().Engine()},
		{"durable", durableReopen(t, db, opts).Snapshot().Engine()},
	}
}

// durableReopen round-trips db through a journal: bootstrap on disk,
// close, reopen. Queries on the reopened store must match the
// in-memory backends bit for bit.
func durableReopen(t *testing.T, db probprune.Database, opts probprune.Options) *probprune.Store {
	t.Helper()
	popts := probprune.PersistOptions{Dir: filepath.Join(t.TempDir(), "db")}
	s, err := probprune.BootstrapStore(db, popts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := probprune.OpenStore(popts, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reopened.Close() })
	return reopened
}

// TestEndToEndKNN is the integration test of the public API: build a
// database, pose a threshold kNN query through every backend, and
// cross-check every verdict against the exact computation.
func TestEndToEndKNN(t *testing.T) {
	db, err := probprune.Synthetic(probprune.SyntheticConfig{
		N: 300, Samples: 24, MaxExtent: 0.05, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, be := range queryBackends(t, db, probprune.Options{MaxIterations: 8}) {
		t.Run(be.name, func(t *testing.T) {
			q := probprune.PointObject(-1, probprune.Point{0.5, 0.5})
			const k, tau = 5, 0.5
			matches := be.eng.KNN(q, k, tau)
			if len(matches) != len(db) {
				t.Fatalf("%d matches for %d objects", len(matches), len(db))
			}
			results := 0
			for _, m := range matches {
				if !m.IsResult {
					continue
				}
				results++
				// Exclude the candidate by ID, not pointer: the durable
				// backend's objects are decoded copies of db's.
				var cands []*probprune.Object
				for _, o := range db {
					if o.ID != m.Object.ID {
						cands = append(cands, o)
					}
				}
				pdf := probprune.ExactDomCountPDF(probprune.L2, cands, m.Object, q, k)
				exact := 0.0
				for _, p := range pdf {
					exact += p
				}
				if exact < tau-1e-9 {
					t.Errorf("object %d reported as result but exact P = %g < %g", m.Object.ID, exact, tau)
				}
			}
			if results == 0 {
				t.Error("threshold kNN query returned no results at all")
			}
			if results > 3*k {
				t.Errorf("implausibly many results: %d", results)
			}
		})
	}
}

// TestEndToEndInverseRanking exercises the inverse ranking query on the
// iceberg simulation through the public API, on every backend.
func TestEndToEndInverseRanking(t *testing.T) {
	db, err := probprune.IcebergSim(probprune.IcebergConfig{N: 150, Samples: 16, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, be := range queryBackends(t, db, probprune.Options{MaxIterations: 6}) {
		t.Run(be.name, func(t *testing.T) {
			// Resolve the operands from the backend's own database: the
			// durable backend holds decoded copies, and the engine
			// identifies the target among the candidates by instance.
			rd := be.eng.InverseRank(be.byID(t, db[3].ID), be.byID(t, db[77].ID))
			if rd.MinRank < 1 {
				t.Fatalf("MinRank = %d", rd.MinRank)
			}
			mass := 0.0
			for i := rd.MinRank; i < rd.MinRank+len(rd.Ranks); i++ {
				iv := rd.Bound(i)
				if iv.LB < -1e-9 || iv.UB > 1+1e-9 || iv.LB > iv.UB+1e-9 {
					t.Fatalf("rank %d has invalid interval %+v", i, iv)
				}
				mass += iv.LB
			}
			if mass > 1+1e-9 {
				t.Fatalf("definite mass %g exceeds 1", mass)
			}
		})
	}
}

// TestDominationFacade sanity-checks the exported geometry.
func TestDominationFacade(t *testing.T) {
	a := probprune.Rect{Min: probprune.Point{0, 0}, Max: probprune.Point{1, 1}}
	b := probprune.Rect{Min: probprune.Point{9, 9}, Max: probprune.Point{10, 10}}
	r := probprune.Rect{Min: probprune.Point{1, 1}, Max: probprune.Point{2, 2}}
	if !probprune.Dominates(probprune.L2, a, b, r) {
		t.Error("Dominates missed a clear case")
	}
	if !probprune.DominatesMinMax(probprune.L2, a, b, r) {
		t.Error("DominatesMinMax missed a clear case")
	}
	if probprune.Dominates(probprune.L2, b, a, r) {
		t.Error("Dominates inverted")
	}
}

// TestRunAndIndexedRunFacade checks Run/RunIndexed/NewIndex plumbing.
func TestRunAndIndexedRunFacade(t *testing.T) {
	db, err := probprune.Synthetic(probprune.SyntheticConfig{
		N: 120, Samples: 16, MaxExtent: 0.05, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := probprune.Queries(db, 1, 10, probprune.L2, 14)
	q := qs[0]
	lin := probprune.Run(db, q.Target, q.Reference, probprune.Options{MaxIterations: 3})
	idx := probprune.RunIndexed(probprune.NewIndex(db), q.Target, q.Reference, probprune.Options{MaxIterations: 3})
	if lin.CompleteDominators != idx.CompleteDominators || len(lin.Influence) != len(idx.Influence) {
		t.Fatal("indexed facade diverges from linear facade")
	}
	exact := probprune.ExactPDom(probprune.L2, db[1], db[2], db[3])
	if exact < 0 || exact > 1 {
		t.Fatalf("ExactPDom out of range: %g", exact)
	}
	lo, hi := probprune.ExpectedRankBounds(lin)
	if lo > hi || lo < 1 {
		t.Fatalf("expected rank bounds [%g, %g] invalid", lo, hi)
	}
}

// TestSaveLoadFacade round-trips a dataset through the public API.
func TestSaveLoadFacade(t *testing.T) {
	db, err := probprune.Synthetic(probprune.SyntheticConfig{N: 25, Samples: 8, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.gob.gz")
	if err := probprune.SaveFile(path, db); err != nil {
		t.Fatal(err)
	}
	got, err := probprune.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(db) {
		t.Fatalf("round trip: %d vs %d objects", len(got), len(db))
	}
}

// TestObjectConstructors exercises the exported constructors.
func TestObjectConstructors(t *testing.T) {
	o, err := probprune.NewObject(1, []probprune.Point{{0, 0}, {1, 1}})
	if err != nil || o.NumSamples() != 2 {
		t.Fatalf("NewObject: %v", err)
	}
	w, err := probprune.NewWeightedObject(2, []probprune.Point{{0, 0}, {1, 1}}, []float64{3, 1})
	if err != nil || w.Weight(0) != 0.75 {
		t.Fatalf("NewWeightedObject: %v", err)
	}
	rng := rand.New(rand.NewSource(16))
	g, err := probprune.Realize(3, probprune.UniformBox{Rect: o.MBR}, 50, rng)
	if err != nil || g.NumSamples() != 50 {
		t.Fatalf("Realize: %v", err)
	}
	stop := probprune.ThresholdStop(3, 0.5)
	if stop == nil {
		t.Fatal("ThresholdStop returned nil")
	}
}
