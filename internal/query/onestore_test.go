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

// liveSegment returns the newest log segment in dir.
func liveSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no log segment in %s: %v", dir, err)
	}
	return segs[len(segs)-1]
}

// TestKillPointMove truncates the log of a 4-shard store at every byte
// offset of a journaled Move's record and reopens each image: the
// object is on exactly one shard — the source while the record is
// torn, the destination once it is intact — and the store equals the
// in-memory mirror from before or after the move: shard sizes, version
// vector and every query.
func TestKillPointMove(t *testing.T) {
	db, ops := traceCase(t, 21, false)
	opts := core.Options{MaxIterations: 2}
	sopts := ShardedOptions{Shards: 4}
	popts := PersistOptions{Dir: filepath.Join(t.TempDir(), "db")}
	s, err := BootstrapShardedStore(db, popts, sopts, opts)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := NewShardedStore(db, sopts, opts)
	if err != nil {
		t.Fatal(err)
	}
	post, err := NewShardedStore(db, sopts, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[:12] {
		for _, m := range []durableMutator{s, pre, post} {
			applyOp(t, m, op)
		}
	}
	id := s.Snapshot().Database()[0].ID
	src, _ := s.ShardOf(id)
	dst := (src + 1) % 4
	if err := post.Move(id, dst); err != nil {
		t.Fatal(err)
	}
	seg := liveSegment(t, popts.Dir)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	start := fi.Size()
	if err := s.Move(id, dst); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if liveSegment(t, popts.Dir) != seg {
		t.Fatal("the move rotated the log")
	}
	if fi, err = os.Stat(seg); err != nil || fi.Size() <= start {
		t.Fatalf("the move journaled nothing (%v)", err)
	}
	end := fi.Size()
	for off := start; off <= end; off++ {
		img := t.TempDir()
		copyTree(t, popts.Dir, img)
		if err := os.Truncate(filepath.Join(img, filepath.Base(seg)), off); err != nil {
			t.Fatal(err)
		}
		want, home := pre, src
		if off == end {
			want, home = post, dst
		}
		r, err := OpenShardedStore(PersistOptions{Dir: img}, sopts, opts)
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		label := fmt.Sprintf("offset %d of %d..%d", off, start, end)
		on := 0
		for _, c := range r.Snapshot().cuts() {
			for o := range c.slab.All() {
				if o.ID == id {
					on++
				}
			}
		}
		if got, _ := r.ShardOf(id); got != home || on != 1 {
			t.Fatalf("%s: object %d homed on %d and held by %d shards, want %d and 1", label, id, got, on, home)
		}
		if g, w := r.ShardSizes(), want.ShardSizes(); !slices.Equal(g, w) {
			t.Fatalf("%s: shard sizes %v, want %v", label, g, w)
		}
		if g, w := r.Snapshot().VersionVector(), want.Snapshot().VersionVector(); !slices.Equal(g, w) {
			t.Fatalf("%s: version vector %v, want %v", label, g, w)
		}
		compareBackends(t, label, r, want)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMoveAppendFailure: a Move whose journal append fails returns the
// error and changes nothing — home shard, shard sizes, version vector
// and KNN answers — and once the fault is gone the move commits and
// survives a reopen.
func TestMoveAppendFailure(t *testing.T) {
	db, _ := traceCase(t, 21, false)
	opts := core.Options{MaxIterations: 2}
	sopts := ShardedOptions{Shards: 4}
	// 1-byte segments: every append after a segment's first rotates, so
	// a directory planted at the next segment's name fails the append.
	popts := PersistOptions{Dir: filepath.Join(t.TempDir(), "db"), SegmentBytes: 1}
	s, err := BootstrapShardedStore(db, popts, sopts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Update(db[1]); err != nil { // the live segment's first append
		t.Fatal(err)
	}
	var last int
	fmt.Sscanf(filepath.Base(liveSegment(t, popts.Dir)), "wal-%08d.log", &last)
	blocker := filepath.Join(popts.Dir, fmt.Sprintf("wal-%08d.log", last+1))
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	q := uncertain.PointObject(-1, geom.Point{0.5, 0.5})
	before, sizes, vv := s.KNN(q, 3, 0.3), s.ShardSizes(), s.Snapshot().VersionVector()
	id := db[0].ID
	src, _ := s.ShardOf(id)
	dst := (src + 1) % 4
	if err := s.Move(id, dst); err == nil {
		t.Fatal("move with a failing append succeeded")
	}
	if home, _ := s.ShardOf(id); home != src || !slices.Equal(s.ShardSizes(), sizes) ||
		!slices.Equal(s.Snapshot().VersionVector(), vv) {
		t.Fatalf("failed move left object %d on %d with sizes %v and versions %v, want %d, %v and %v",
			id, home, s.ShardSizes(), s.Snapshot().VersionVector(), src, sizes, vv)
	}
	if err := matchesEqual(s.KNN(q, 3, 0.3), before); err != nil {
		t.Fatalf("queries changed after the failed move: %v", err)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := s.Move(id, dst); err != nil {
		t.Fatalf("move after the fault: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenShardedStore(popts, sopts, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if home, _ := r.ShardOf(id); home != dst {
		t.Fatalf("reopened object %d on %d, want %d", id, home, dst)
	}
	if err := matchesEqual(r.KNN(q, 3, 0.3), before); err != nil {
		t.Fatalf("reopened queries: %v", err)
	}
}

// fixtureTrace is the seeded sequence the testdata fixtures were
// written with: bootstrap, 24 commits, an explicit Checkpoint, 30 more
// commits and, on the 4-shard fixtures (StripeShards over x), a
// completed Move. fixture-n1 and fixture-n4 come from the commit before
// the one store — fixture-n4 in the retired per-shard layout —,
// fixture-n1-v2 from the v2 checkpoint format and fixture-n4-v2 from
// the one-journal layout, so they pin the on-disk formats across those
// changes. Changing the sequence invalidates the fixtures.
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

// TestFormatFixtures opens the fixture directories — one shard, and
// four shards in one journal — and checks them against an in-memory
// store fed the same sequence: size, version, version vector, shard
// sizes, the objects in ascending ID order and every query kind, bit for
// bit. The four-shard directory in the retired per-shard layout
// (fixture-n4) is refused, by open and bootstrap alike, with an error
// that names the layout.
func TestFormatFixtures(t *testing.T) {
	opts := core.Options{MaxIterations: 3}
	for _, tc := range []struct {
		name  string
		sopts ShardedOptions
	}{
		{"fixture-n1", ShardedOptions{Shards: 1}},
		{"fixture-n1-v2", ShardedOptions{Shards: 1}},
		{"fixture-n4", ShardedOptions{Shards: 4, Partition: StripeShards(0, 0, 1)}},
		{"fixture-n4-v2", ShardedOptions{Shards: 4, Partition: StripeShards(0, 0, 1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			copyTree(t, filepath.Join("testdata", tc.name), dir)
			if tc.name == "fixture-n4" {
				_, err := OpenShardedStore(PersistOptions{Dir: dir}, tc.sopts, opts)
				_, berr := BootstrapShardedStore(nil, PersistOptions{Dir: dir}, tc.sopts, opts)
				for _, err := range []error{err, berr} {
					if err == nil || !strings.Contains(err.Error(), "retired per-shard layout") {
						t.Fatalf("per-shard layout: %v, want a refusal naming it", err)
					}
				}
				return
			}
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

// writeFixture writes the fixture sequence of the sopts layout into
// dir: bootstrap, the first ops, an explicit Checkpoint, the rest,
// Close.
func writeFixture(t *testing.T, dir string, sopts ShardedOptions) {
	t.Helper()
	db, pre, tail := fixtureTrace(t, sopts.Shards > 1)
	s, err := BootstrapShardedStore(db, PersistOptions{Dir: dir}, sopts, core.Options{MaxIterations: 3})
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

// sameFiles fails unless dir holds exactly the files of the fixture
// directory, byte for byte, and returns them.
func sameFiles(t *testing.T, dir, fixture string) map[string][]byte {
	t.Helper()
	got := readDir(t, dir)
	exp := readDir(t, filepath.Join("testdata", fixture))
	if len(got) != len(exp) {
		t.Fatalf("wrote %d files, %s has %d", len(got), fixture, len(exp))
	}
	for name, b := range exp {
		if !bytes.Equal(got[name], b) {
			t.Fatalf("%s differs from %s's (%d vs %d bytes)", name, fixture, len(got[name]), len(b))
		}
	}
	return got
}

// TestFormatFixtureN1Bytes: a one-shard directory written from the
// fixture sequence is byte-identical to testdata/fixture-n1-v2, and its
// log — records did not change with the checkpoint format — to the v1
// fixture's.
func TestFormatFixtureN1Bytes(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, ShardedOptions{Shards: 1})
	got := sameFiles(t, dir, "fixture-n1-v2")
	const log = "wal-00000003.log"
	if v1 := readDir(t, filepath.Join("testdata", "fixture-n1")); !bytes.Equal(got[log], v1[log]) {
		t.Fatalf("%s differs from the v1 fixture's", log)
	}
}

// TestFormatFixtureN4Bytes: a four-shard directory written from the
// fixture sequence is byte-identical to testdata/fixture-n4-v2 — one
// journal whose checkpoint holds the shards' objects in turn and the
// shard trailer, and whose log holds the move as one record.
func TestFormatFixtureN4Bytes(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, ShardedOptions{Shards: 4, Partition: StripeShards(0, 0, 1)})
	sameFiles(t, dir, "fixture-n4-v2")
}
