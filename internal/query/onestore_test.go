package query

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/obs"
	"probprune/internal/uncertain"
	"probprune/internal/workload"
)

// TestOneShardNoRouterWork: a one-shard store's snapshot scatters over
// exactly one cut, the shard's own index, before and after mutations.
// A multi-shard snapshot scatters over every shard's index.
func TestOneShardNoRouterWork(t *testing.T) {
	db := storeTestDB(t, 40, 3)
	s, err := NewStore(db, core.Options{MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	next := 1000
	for round := 0; round < 2; round++ {
		sn := s.Snapshot()
		if len(sn.cuts()) != 1 || sn.cuts()[0].index != s.shards[0].index {
			t.Fatal("one-shard snapshot does not scatter over exactly the shard's index")
		}
		mutateStore(t, s, rng, &next, 10)
	}
	sharded, err := NewShardedStore(db, ShardedOptions{Shards: 4}, core.Options{MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	sn := sharded.Snapshot()
	if len(sn.cuts()) != 4 {
		t.Fatalf("4-shard snapshot scatters over %d cuts", len(sn.cuts()))
	}
	for i, c := range sn.cuts() {
		if c.index != sharded.shards[i].index {
			t.Fatalf("cut %d does not bind shard %d's index", i, i)
		}
	}
}

// TestMoveRollbackFailureLatches forces both journal failures of a
// migration — the source's move-out and the compensating move-out on
// the destination — and checks the store latches instead of going on:
// the error comes back from every later mutation, Sync and Close, the
// flight recorder holds a deferred_error, queries keep answering
// exactly as before, and the directory recovers the pre-move state.
func TestMoveRollbackFailureLatches(t *testing.T) {
	db, _ := traceCase(t, 21, false)
	opts := core.Options{MaxIterations: 2}
	// 1-byte segments: every append after a segment's first rotates, so
	// a directory planted at the next segment's name fails exactly the
	// second append of a journal.
	popts := PersistOptions{Dir: filepath.Join(t.TempDir(), "db"), SegmentBytes: 1}
	s, err := BootstrapShardedStore(db, popts, ShardedOptions{Shards: 2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(64)
	s.SetRecorder(rec)
	q := uncertain.PointObject(-1, geom.Point{0.5, 0.5})
	before := s.KNN(q, 3, 0.3)
	sizes := s.ShardSizes()

	id := db[0].ID
	src, _ := s.ShardOf(id)
	dst := 1 - src
	segs, err := filepath.Glob(filepath.Join(shardDir(popts.Dir, dst), "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no live segment on shard %d: %v", dst, err)
	}
	var last int
	fmt.Sscanf(filepath.Base(segs[len(segs)-1]), "wal-%08d.log", &last)
	blocker := filepath.Join(shardDir(popts.Dir, dst), fmt.Sprintf("wal-%08d.log", last+1))
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	s.shards[src].journal.Close() // the move-out on src fails

	err = s.Move(id, dst)
	if err == nil || !strings.Contains(err.Error(), "could not be rolled back") {
		t.Fatalf("move with both journals failing: %v", err)
	}
	if home, _ := s.ShardOf(id); home != src || !slices.Equal(s.ShardSizes(), sizes) {
		t.Fatalf("object %d homed on %d with sizes %v, want %d with %v", id, home, s.ShardSizes(), src, sizes)
	}
	if err := matchesEqual(s.KNN(q, 3, 0.3), before); err != nil {
		t.Fatalf("queries changed after the failed move: %v", err)
	}
	latched := func(label string, got error) {
		t.Helper()
		if got == nil || got.Error() != err.Error() {
			t.Fatalf("%s: %v, want the latched %v", label, got, err)
		}
	}
	latched("insert", s.Insert(uncertain.PointObject(9001, geom.Point{0.2, 0.2})))
	latched("update", s.Update(uncertain.PointObject(db[1].ID, geom.Point{0.3, 0.3})))
	_, derr := s.Delete(db[2].ID)
	latched("delete", derr)
	latched("move", s.Move(db[3].ID, 1-s.shardFor(db[3])))
	latched("sync", s.Sync())
	if s.Len() != len(db) {
		t.Fatalf("latched store holds %d objects, want %d", s.Len(), len(db))
	}
	recorded := false
	for _, ev := range rec.Snapshot() {
		recorded = recorded || (ev.Kind == obs.EvDeferredError && strings.Contains(ev.Note, "could not be rolled back"))
	}
	if !recorded {
		t.Fatal("no deferred_error event for the latched failure")
	}
	latched("close", s.Close())

	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		r, err := OpenShardedStore(popts, ShardedOptions{Shards: 2}, opts)
		if err != nil {
			t.Fatalf("reopen %d: %v", round, err)
		}
		if home, _ := r.ShardOf(id); home != src || r.Len() != len(db) {
			t.Fatalf("reopen %d: object %d on %d, %d objects; want %d, %d", round, id, home, r.Len(), src, len(db))
		}
		if err := matchesEqual(r.KNN(q, 3, 0.3), before); err != nil {
			t.Fatalf("reopen %d: %v", round, err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// fixtureTrace is the seeded sequence testdata/fixture-n1 and
// testdata/fixture-n4 were written with — by the commit before the one
// store, so they pin the on-disk formats across the change: bootstrap,
// 24 commits, an explicit Checkpoint, 30 more commits and, on the
// 4-shard fixture (StripeShards over x), a completed Move. Changing the
// sequence invalidates the fixtures.
func fixtureTrace(t *testing.T, sharded bool) (uncertain.Database, []traceOp, []traceOp) {
	t.Helper()
	db, err := workload.Synthetic(workload.SyntheticConfig{N: 180, Samples: 4, MaxExtent: 0.05, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(26))
	live := make([]int, 0, len(db))
	for _, o := range db[1:] { // db[0] stays untouched: the sharded trace moves it
		live = append(live, o.ID)
	}
	nextID := 1000
	randObj := func(id int) *uncertain.Object {
		cx, cy := rng.Float64(), rng.Float64()
		pts := make([]geom.Point, 3)
		for i := range pts {
			pts[i] = geom.Point{cx + rng.Float64()*0.04, cy + rng.Float64()*0.04}
		}
		o, err := uncertain.NewObject(id, pts)
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(5) == 0 {
			if err := o.SetExistence(0.3 + 0.6*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		return o
	}
	gen := func(n int) []traceOp {
		var ops []traceOp
		for i := 0; i < n; i++ {
			switch i % 3 {
			case 0:
				ops = append(ops, traceOp{kind: 'i', obj: randObj(nextID)})
				live = append(live, nextID)
				nextID++
			case 1:
				ops = append(ops, traceOp{kind: 'u', obj: randObj(live[rng.Intn(len(live))])})
			default:
				j := rng.Intn(len(live))
				ops = append(ops, traceOp{kind: 'd', id: live[j]})
				live = append(live[:j], live[j+1:]...)
			}
		}
		return ops
	}
	pre, tail := gen(24), gen(30)
	if sharded {
		home := StripeShards(0, 0, 1)(db[0], 4)
		tail = append(tail, traceOp{kind: 'm', id: db[0].ID, dst: (home + 1) % 4})
	}
	return db, pre, tail
}

// TestFormatFixtures opens the directories the previous commit wrote —
// one shard journaling in its directory, four shards under a MANIFEST —
// and checks them against an in-memory store fed the same sequence:
// size, version, version vector, shard sizes, the objects in ascending
// ID order and every query kind, bit for bit.
func TestFormatFixtures(t *testing.T) {
	opts := core.Options{MaxIterations: 3}
	for _, tc := range []struct {
		name  string
		sopts ShardedOptions
	}{
		{"fixture-n1", ShardedOptions{Shards: 1}},
		{"fixture-n1-v2", ShardedOptions{Shards: 1}},
		{"fixture-n4", ShardedOptions{Shards: 4, Partition: StripeShards(0, 0, 1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, pre, tail := fixtureTrace(t, tc.sopts.Shards > 1)
			mirror, err := NewShardedStore(db, tc.sopts, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, ops := range [][]traceOp{pre, tail} {
				for _, op := range ops {
					applyOp(t, mirror, op)
				}
			}
			dir := t.TempDir()
			copyTree(t, filepath.Join("testdata", tc.name), dir)
			r, err := OpenShardedStore(PersistOptions{Dir: dir}, tc.sopts, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			compareBackends(t, tc.name, r, mirror)
			if g, w := r.Snapshot().VersionVector(), mirror.Snapshot().VersionVector(); !slices.Equal(g, w) {
				t.Fatalf("version vector %v, want %v", g, w)
			}
			if g, w := r.ShardSizes(), mirror.ShardSizes(); !slices.Equal(g, w) {
				t.Fatalf("shard sizes %v, want %v", g, w)
			}
			g, w := objIDs(r.Snapshot().Database()), objIDs(mirror.Snapshot().Database())
			if !slices.Equal(g, w) || !slices.IsSorted(g) {
				t.Fatalf("objects %v, want %v in ascending ID order", g, w)
			}
		})
	}
}

// writeFixtureN1 writes the one-shard fixture sequence into dir:
// bootstrap, the first ops, an explicit Checkpoint, the rest, Close.
func writeFixtureN1(t *testing.T, dir string) {
	t.Helper()
	db, pre, tail := fixtureTrace(t, false)
	s, err := BootstrapStore(db, PersistOptions{Dir: dir}, core.Options{MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range pre {
		applyOp(t, s, op)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, op := range tail {
		applyOp(t, s, op)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// readDir returns every file in dir by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(ents))
	for _, e := range ents {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestFormatFixtureN1Bytes: a one-shard directory written from the
// fixture sequence is byte-identical to testdata/fixture-n1-v2, and its
// log — records did not change with the checkpoint format — to the v1
// fixture's.
func TestFormatFixtureN1Bytes(t *testing.T) {
	dir := t.TempDir()
	writeFixtureN1(t, dir)
	got := readDir(t, dir)
	exp := readDir(t, filepath.Join("testdata", "fixture-n1-v2"))
	if len(got) != len(exp) {
		t.Fatalf("wrote %d files, the fixture has %d", len(got), len(exp))
	}
	for name, b := range exp {
		if !bytes.Equal(got[name], b) {
			t.Fatalf("%s differs from the fixture (%d vs %d bytes)", name, len(got[name]), len(b))
		}
	}
	const log = "wal-00000003.log"
	if v1 := readDir(t, filepath.Join("testdata", "fixture-n1")); !bytes.Equal(got[log], v1[log]) {
		t.Fatalf("%s differs from the v1 fixture's", log)
	}
}
