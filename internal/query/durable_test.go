package query

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/uncertain"
	"probprune/internal/wal"
	"probprune/internal/workload"
)

// This file is the crash-recovery equivalence suite: on seeded mutation
// traces, a durable store is "killed" at arbitrary commits (its journal
// directory copied, exactly as a crashed process would leave it) and
// reopened; the recovered store must answer KNN, RkNN, TopKNN and
// InverseRank bit-identically to an in-memory store that survived to
// the same commit — same versions, same objects in ascending ID order,
// same probability intervals.

// copyTree clones a journal directory at a commit boundary — the
// simulated crash image.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// traceOp is one mutation of a seeded trace.
type traceOp struct {
	kind    byte // 'i'nsert, 'u'pdate, 'd'elete, 'm'ove, 'r'ebalance
	obj     *uncertain.Object
	id, dst int
}

// durableMutator is the logical mutation surface of a Store; the
// trace generates migrations only for multi-shard stores.
type durableMutator interface {
	Insert(*uncertain.Object) error
	Update(*uncertain.Object) error
	Delete(int) (bool, error)
}

func applyOp(t *testing.T, s durableMutator, op traceOp) {
	t.Helper()
	switch op.kind {
	case 'i':
		if err := s.Insert(op.obj); err != nil {
			t.Fatal(err)
		}
	case 'u':
		if err := s.Update(op.obj); err != nil {
			t.Fatal(err)
		}
	case 'd':
		if ok, err := s.Delete(op.id); err != nil || !ok {
			t.Fatalf("delete of %d: ok=%v err=%v", op.id, ok, err)
		}
	case 'm':
		if sh, ok := s.(*Store); ok {
			if err := sh.Move(op.id, op.dst); err != nil {
				t.Fatal(err)
			}
		}
	case 'r':
		if sh, ok := s.(*Store); ok {
			sh.Rebalance()
		}
	}
}

// traceCase builds the seeded initial database and mutation trace. IDs
// present at every point of the trace are tracked so updates and
// deletes always hit.
func traceCase(t *testing.T, seed int64, sharded bool) (uncertain.Database, []traceOp) {
	t.Helper()
	db, err := workload.Synthetic(workload.SyntheticConfig{
		N: 10 + int(seed%8), Samples: 4, MaxExtent: 0.15, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed*977 + 5))
	live := make([]int, 0, len(db))
	nextID := len(db)
	for _, o := range db {
		live = append(live, o.ID)
	}
	randObj := func(id int) *uncertain.Object {
		n := 2 + rng.Intn(4)
		cx, cy := rng.Float64(), rng.Float64()
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{cx + rng.Float64()*0.1, cy + rng.Float64()*0.1}
		}
		var weights []float64
		if rng.Intn(2) == 0 {
			weights = make([]float64, n)
			for i := range weights {
				weights[i] = rng.Float64() + 0.05
			}
		}
		o, err := uncertain.NewWeightedObject(id, pts, weights)
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(4) == 0 {
			if err := o.SetExistence(0.2 + 0.75*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		return o
	}
	var ops []traceOp
	for i := 0; i < 28; i++ {
		switch k := rng.Intn(10); {
		case k < 3: // insert
			ops = append(ops, traceOp{kind: 'i', obj: randObj(nextID)})
			live = append(live, nextID)
			nextID++
		case k < 6: // update
			ops = append(ops, traceOp{kind: 'u', obj: randObj(live[rng.Intn(len(live))])})
		case k < 8 && len(live) > 4: // delete
			j := rng.Intn(len(live))
			ops = append(ops, traceOp{kind: 'd', id: live[j]})
			live = append(live[:j], live[j+1:]...)
		case k == 8 && sharded: // explicit migration
			ops = append(ops, traceOp{kind: 'm', id: live[rng.Intn(len(live))], dst: rng.Intn(4)})
		case k == 9 && sharded:
			ops = append(ops, traceOp{kind: 'r'})
		default:
			ops = append(ops, traceOp{kind: 'u', obj: randObj(live[rng.Intn(len(live))])})
		}
	}
	return db, ops
}

// matchesEqual asserts two match slices are bit-identical (exact float
// equality on the probability bounds).
func matchesEqual(a, b []Match) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d matches", len(a), len(b))
	}
	for i := range a {
		if a[i].Object.ID != b[i].Object.ID {
			return fmt.Errorf("match %d: object %d vs %d", i, a[i].Object.ID, b[i].Object.ID)
		}
		if a[i].Prob != b[i].Prob || a[i].IsResult != b[i].IsResult ||
			a[i].Decided != b[i].Decided || a[i].Iterations != b[i].Iterations {
			return fmt.Errorf("match %d (object %d): %+v vs %+v", i, a[i].Object.ID, a[i], b[i])
		}
	}
	return nil
}

// compareBackends asserts the two stores answer every query kind
// bit-identically.
func compareBackends(t *testing.T, label string, got, want *Store) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d objects, want %d", label, got.Len(), want.Len())
	}
	if got.Version() != want.Version() {
		t.Fatalf("%s: version %d, want %d", label, got.Version(), want.Version())
	}
	gs, ws := got.Snapshot(), want.Snapshot()
	qs := []*uncertain.Object{
		uncertain.PointObject(-1, geom.Point{0.5, 0.5}),
		uncertain.PointObject(-2, geom.Point{0.15, 0.8}),
	}
	for qi, q := range qs {
		if err := matchesEqual(must(gs.KNN(bg, q, 3, 0.3)), must(ws.KNN(bg, q, 3, 0.3))); err != nil {
			t.Fatalf("%s: KNN q%d: %v", label, qi, err)
		}
		if err := matchesEqual(must(gs.RKNN(bg, q, 2, 0.4)), must(ws.RKNN(bg, q, 2, 0.4))); err != nil {
			t.Fatalf("%s: RKNN q%d: %v", label, qi, err)
		}
		if err := matchesEqual(must(gs.TopKNN(bg, q, 3, 4)), must(ws.TopKNN(bg, q, 3, 4))); err != nil {
			t.Fatalf("%s: TopKNN q%d: %v", label, qi, err)
		}
	}
	// InverseRank over a database-resident target: resolve the instance
	// on each backend by ID.
	var bID = -1
	for id := 0; id < 1000; id++ {
		if _, ok := want.Get(id); ok {
			bID = id
			break
		}
	}
	if bID >= 0 {
		bGot, _ := got.Get(bID)
		bWant, _ := want.Get(bID)
		rg := must(gs.InverseRank(bg, bGot, qs[0]))
		rw := must(ws.InverseRank(bg, bWant, qs[0]))
		if rg.MinRank != rw.MinRank || len(rg.Ranks) != len(rw.Ranks) {
			t.Fatalf("%s: InverseRank shape differs", label)
		}
		for i := range rg.Ranks {
			if rg.Ranks[i] != rw.Ranks[i] {
				t.Fatalf("%s: InverseRank rank %d: %+v vs %+v", label, i, rg.Ranks[i], rw.Ranks[i])
			}
		}
	}
}

// TestCrashRecoveryEquivalence is the acceptance suite: 20 seeds, shard
// counts 1 and 4, each trace killed at three different commits
// (including mid-trace points where auto-checkpoints and segment
// rotations have happened), reopened from the crash image, and
// compared bit-for-bit against a surviving in-memory store at the same
// commit.
func TestCrashRecoveryEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery suite is not short")
	}
	opts := core.Options{MaxIterations: 3}
	for seed := int64(0); seed < 20; seed++ {
		for _, shards := range []int{1, 4} {
			seed, shards := seed, shards
			t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, shards), func(t *testing.T) {
				t.Parallel()
				db, ops := traceCase(t, seed, shards > 1)
				popts := PersistOptions{
					Dir:             filepath.Join(t.TempDir(), "db"),
					CheckpointEvery: 7 + int(seed%5),
					SegmentBytes:    1 << 11,
				}
				sopts := ShardedOptions{Shards: shards}
				dur, err := BootstrapShardedStore(db, popts, sopts, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer dur.Close()
				kills := map[int]string{
					len(ops) / 3:     filepath.Join(t.TempDir(), "k1"),
					2 * len(ops) / 3: filepath.Join(t.TempDir(), "k2"),
					len(ops):         filepath.Join(t.TempDir(), "k3"),
				}
				for i, op := range ops {
					applyOp(t, dur, op)
					if dst, ok := kills[i+1]; ok {
						// Quiesce the background checkpoint installer so
						// the copy is a point-in-time crash image (a walk
						// racing a live install is not one — crashes DURING
						// an install are exercised by the kill-point tests).
						dur.dur.drain()
						copyTree(t, popts.Dir, dst)
					}
				}

				for at, img := range kills {
					// The surviving in-memory store at commit `at`.
					mirror, err := NewShardedStore(db, sopts, opts)
					if err != nil {
						t.Fatal(err)
					}
					for _, op := range ops[:at] {
						applyOp(t, mirror, op)
					}
					reopened, err := OpenShardedStore(PersistOptions{Dir: img}, sopts, opts)
					if err != nil {
						t.Fatalf("kill at %d: %v", at, err)
					}
					label := fmt.Sprintf("kill at commit %d", at)
					compareBackends(t, label, reopened, mirror)
					if g, w := reopened.ShardSizes(), mirror.ShardSizes(); fmt.Sprint(g) != fmt.Sprint(w) {
						t.Fatalf("%s: shard sizes %v, want %v", label, g, w)
					}
					gvv := reopened.Snapshot().VersionVector()
					wvv := mirror.Snapshot().VersionVector()
					if fmt.Sprint(gvv) != fmt.Sprint(wvv) {
						t.Fatalf("%s: version vector %v, want %v", label, gvv, wvv)
					}
					// The reopened store keeps serving: mutate both and
					// compare again.
					extra := uncertain.PointObject(100000+int(seed), geom.Point{0.31, 0.62})
					if err := reopened.Insert(extra); err != nil {
						t.Fatal(err)
					}
					if err := mirror.Insert(extra); err != nil {
						t.Fatal(err)
					}
					compareBackends(t, label+" after reopen-insert", reopened, mirror)
					if err := reopened.Close(); err != nil {
						t.Fatalf("%s: close: %v", label, err)
					}
				}
			})
		}
	}
}

// TestDurableStoreBasics drives the unsharded open/persist lifecycle:
// bootstrap, journaled commits, checkpoint, close, reopen, and the
// refusal to bootstrap over an existing journal.
func TestDurableStoreBasics(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, ops := traceCase(t, 3, false)
	opts := core.Options{MaxIterations: 3}
	popts := PersistOptions{Dir: dir, Sync: wal.SyncAlways}
	s, err := BootstrapStore(db, popts, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[:10] {
		applyOp(t, s, op)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[10:] {
		applyOp(t, s, op)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(uncertain.PointObject(99999, geom.Point{0, 0})); err == nil {
		t.Fatal("insert after Close succeeded")
	}
	if _, err := BootstrapStore(db, popts, opts); err == nil {
		t.Fatal("bootstrap over an existing journal succeeded")
	}

	mirror, err := NewStore(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		applyOp(t, mirror, op)
	}
	reopened, err := OpenStore(popts, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	compareBackends(t, "reopen", reopened, mirror)
}

// TestCheckpointBytesIgnoreQueryHistory: a checkpoint holds objects
// and versions only, so a store that ran KNNs before checkpointing
// writes the same bytes as a mirror that ran none — the one-shard
// checkpoint, and at four shards the MANIFEST and every shard's.
func TestCheckpointBytesIgnoreQueryHistory(t *testing.T) {
	opts := core.Options{MaxIterations: 4}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, ops := traceCase(t, 5, shards > 1)
			var dirs [2]string
			for i := range dirs {
				dirs[i] = filepath.Join(t.TempDir(), "db")
				s, err := BootstrapShardedStore(db, PersistOptions{Dir: dirs[i]}, ShardedOptions{Shards: shards}, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, op := range ops {
					applyOp(t, s, op)
				}
				if i == 1 {
					for _, at := range []geom.Point{{0.5, 0.5}, {0.2, 0.7}, {0.9, 0.1}} {
						s.KNN(uncertain.PointObject(-1, at), 3, 0.3)
					}
				}
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			files, err := filepath.Glob(filepath.Join(dirs[0], "*.ckpt"))
			want := 1 // the checkpoint
			if shards > 1 {
				files, err = filepath.Glob(filepath.Join(dirs[0], "shard-*", "*.ckpt"))
				files = append(files, filepath.Join(dirs[0], manifestName))
				want = shards + 1 // every shard's checkpoint and the MANIFEST
			}
			if err != nil || len(files) != want {
				t.Fatalf("checkpoint files %v (%v), want %d", files, err, want)
			}
			for _, path := range files {
				rel, _ := filepath.Rel(dirs[0], path)
				cold, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				warm, err := os.ReadFile(filepath.Join(dirs[1], rel))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(warm, cold) {
					t.Fatalf("%s: %d bytes after KNNs, %d without", rel, len(warm), len(cold))
				}
			}
		})
	}
}

// TestOpenRefusesUnreadableCheckpoint: a store whose only checkpoint
// (N = 1) or one shard's only checkpoint (N = 4) does not decode fails
// to open, naming the file, and the file stays on disk byte for byte —
// never an empty store, never a deleted checkpoint.
func TestOpenRefusesUnreadableCheckpoint(t *testing.T) {
	db, err := workload.Synthetic(workload.SyntheticConfig{N: 50, Samples: 4, MaxExtent: 0.05, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "db")
			sopts := ShardedOptions{Shards: shards}
			s, err := BootstrapShardedStore(db, PersistOptions{Dir: dir}, sopts, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			ckDir := dir
			if shards > 1 {
				ckDir = shardDir(dir, 1)
			}
			cks, err := filepath.Glob(filepath.Join(ckDir, "*.ckpt"))
			if err != nil || len(cks) != 1 {
				t.Fatalf("checkpoints %v (%v), want one", cks, err)
			}
			data, err := os.ReadFile(cks[0])
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x40
			if err := os.WriteFile(cks[0], data, 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := OpenShardedStore(PersistOptions{Dir: dir}, ShardedOptions{}, core.Options{})
			if err == nil {
				n, v := r.Len(), r.Version()
				r.Close()
				t.Fatalf("opened with %d objects at version %d over a corrupt checkpoint", n, v)
			}
			if !strings.Contains(err.Error(), filepath.Base(cks[0])) {
				t.Fatalf("error %q does not name %s", err, filepath.Base(cks[0]))
			}
			after, err := os.ReadFile(cks[0])
			if err != nil || !bytes.Equal(after, data) {
				t.Fatalf("corrupt checkpoint not kept as it was (%v)", err)
			}
			if now, _ := filepath.Glob(filepath.Join(ckDir, "*.ckpt")); len(now) != 1 {
				t.Fatalf("checkpoints after the failed open: %v", now)
			}
		})
	}
}

// TestRecoveryTruncatedTail: chopping bytes off the live segment loses
// only the torn commit — recovery lands exactly one commit back.
func TestRecoveryTruncatedTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, ops := traceCase(t, 7, false)
	opts := core.Options{MaxIterations: 2}
	s, err := BootstrapStore(db, PersistOptions{Dir: dir}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[:6] {
		applyOp(t, s, op)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "wal-00000002.log")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	mirror, err := NewStore(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[:5] {
		applyOp(t, mirror, op)
	}
	reopened, err := OpenStore(PersistOptions{Dir: dir}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	compareBackends(t, "torn tail", reopened, mirror)
}

// TestRecoveryInterruptedMigration: a crash between a migration's two
// journal appends (move-in durable on the destination, move-out never
// written on the source) leaves the object on both shards' logs. The
// next open must detect the duplicate, drop the dangling move-in copy
// (journaling the compensating move-out), and recover the logical
// database unharmed — and a second reopen must be clean too.
func TestRecoveryInterruptedMigration(t *testing.T) {
	db, _ := traceCase(t, 17, false)
	opts := core.Options{MaxIterations: 2}
	popts := PersistOptions{Dir: filepath.Join(t.TempDir(), "db")}
	s, err := BootstrapShardedStore(db, popts, ShardedOptions{Shards: 3}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the torn migration: journal (and apply) the move-in on a
	// non-home shard without ever journaling the source's move-out —
	// exactly the on-disk state a kill between the two appends leaves.
	id := db[0].ID
	src, _ := s.ShardOf(id)
	dst := (src + 1) % 3
	o, _ := s.Get(id)
	s.mu.Lock()
	err = s.migrateLocked(dst, o, wal.OpMoveIn)
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for round := 1; round <= 2; round++ {
		r, err := OpenShardedStore(popts, ShardedOptions{Shards: 3}, opts)
		if err != nil {
			t.Fatalf("reopen %d after torn migration: %v", round, err)
		}
		if r.Len() != len(db) {
			t.Fatalf("reopen %d: %d objects, want %d", round, r.Len(), len(db))
		}
		if home, ok := r.ShardOf(id); !ok || home != src {
			t.Fatalf("reopen %d: object %d homed on %d (ok=%v), want undo to %d", round, id, home, ok, src)
		}
		mirror, err := NewShardedStore(db, ShardedOptions{Shards: 3}, opts)
		if err != nil {
			t.Fatal(err)
		}
		compareBackends(t, fmt.Sprintf("torn migration reopen %d", round), r, mirror)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBootstrapShardedInterrupted: shard journals without a MANIFEST
// are the debris of a bootstrap that crashed before its commit point;
// they must not wedge the directory — open (or a retried bootstrap)
// clears them and starts fresh.
func TestBootstrapShardedInterrupted(t *testing.T) {
	db, _ := traceCase(t, 19, false)
	opts := core.Options{MaxIterations: 2}
	popts := PersistOptions{Dir: filepath.Join(t.TempDir(), "db")}
	s, err := BootstrapShardedStore(db, popts, ShardedOptions{Shards: 2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash-before-commit-point: shard dirs exist, the
	// manifest never made it.
	if err := os.Remove(filepath.Join(popts.Dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	r, err := OpenShardedStore(popts, ShardedOptions{Shards: 2}, opts)
	if err != nil {
		t.Fatalf("open after interrupted bootstrap: %v", err)
	}
	if r.Len() != 0 || r.Version() != 0 {
		t.Fatalf("interrupted bootstrap recovered %d objects at version %d, want a fresh store", r.Len(), r.Version())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := BootstrapShardedStore(db, PersistOptions{Dir: popts.Dir}, ShardedOptions{Shards: 2}, opts); err == nil {
		t.Fatal("bootstrap over the re-initialized manifest succeeded")
	}
}
