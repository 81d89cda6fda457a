package query

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/uncertain"
)

// This file regression-tests the surfacing of asynchronous
// auto-checkpoint failures: a checkpoint that fails in the background
// of a commit must be reported by the NEXT mutation or Sync — not
// silently deferred all the way to Close. The failure is injected by
// planting a directory at the exact path the next checkpoint file
// would take: the write-then-rename install cannot replace a directory
// and fails, while the journal log itself keeps working. Installs run
// on the background scheduler, so the tests drain it before asserting
// the deferred error is observable.

// blockCheckpoint plants the blocker for checkpoint index idx in dir.
func blockCheckpoint(t *testing.T, dir string, idx int) string {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("checkpoint-%08d.ckpt", idx))
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	return path
}

func wantCkptErr(t *testing.T, err error, label string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: deferred auto-checkpoint failure not surfaced", label)
	}
	if !strings.Contains(err.Error(), "auto-checkpoint") {
		t.Fatalf("%s: error %q does not mention the auto-checkpoint", label, err)
	}
}

func TestAutoCheckpointFailureSurfacedStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, _ := traceCase(t, 11, false)
	opts := core.Options{MaxIterations: 3}
	s, err := BootstrapStore(db, PersistOptions{Dir: dir, CheckpointEvery: 3}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Bootstrap wrote checkpoint 1; the auto-checkpoint will try 2.
	blocker := blockCheckpoint(t, dir, 2)

	obj := func(i int) *uncertain.Object {
		return uncertain.PointObject(1000+i, geom.Point{0.1 * float64(i), 0.2})
	}
	for i := 0; i < 3; i++ { // the third commit trips the failing auto-checkpoint
		if err := s.Insert(obj(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.dur.drain() // let the background install fail
	lenBefore, verBefore := s.Len(), s.Version()

	// The next commit surfaces the deferred failure and is rejected.
	wantCkptErr(t, s.Insert(obj(3)), "insert after failed checkpoint")
	if s.Len() != lenBefore || s.Version() != verBefore {
		t.Fatalf("rejected commit mutated the store: len %d→%d version %d→%d",
			lenBefore, s.Len(), verBefore, s.Version())
	}
	if _, ok := s.Get(obj(3).ID); ok {
		t.Fatal("rejected insert is visible")
	}
	// Surfaced once: the store accepts commits again. The policy re-arms
	// after CheckpointEvery further commits (the pin reset the counter)
	// and re-trips the still-failing install; Sync is the other
	// surfacing point.
	for i := 3; i < 6; i++ {
		if err := s.Insert(obj(i)); err != nil {
			t.Fatalf("insert after surfacing: %v", err)
		}
	}
	s.dur.drain()
	wantCkptErr(t, s.Sync(), "sync after failed checkpoint")
	if err := s.Sync(); err != nil {
		t.Fatalf("second sync reports a cleared error: %v", err)
	}

	// Unblock and recover: an explicit checkpoint succeeds, and the
	// store is clean through further commits, Sync and Close.
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after unblocking: %v", err)
	}
	if err := s.Insert(obj(6)); err != nil {
		t.Fatalf("insert after unblocking: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("sync after unblocking: %v", err)
	}
	wantLen, wantVer := s.Len(), s.Version()
	if err := s.Close(); err != nil {
		t.Fatalf("close after surfaced+recovered failures: %v", err)
	}

	// Nothing was lost: the log carried every accepted commit across
	// the failed checkpoints.
	reopened, err := OpenStore(PersistOptions{Dir: dir}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Len() != wantLen || reopened.Version() != wantVer {
		t.Fatalf("reopened len %d version %d, want %d and %d",
			reopened.Len(), reopened.Version(), wantLen, wantVer)
	}
}

func TestAutoCheckpointFailureSurfacedSharded(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, _ := traceCase(t, 12, true)
	opts := core.Options{MaxIterations: 3}
	s, err := BootstrapShardedStore(db, PersistOptions{Dir: dir, CheckpointEvery: 3},
		ShardedOptions{Shards: 2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Bootstrap wrote checkpoint 1, every shard's objects in one file;
	// the auto-checkpoint will try 2.
	blocker := blockCheckpoint(t, dir, 2)

	obj := func(i int) *uncertain.Object {
		return uncertain.PointObject(2000+i, geom.Point{0.07 * float64(i), 0.4})
	}
	for i := 0; i < 3; i++ {
		if err := s.Insert(obj(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.dur.drain() // let the background install fail
	lenBefore, verBefore := s.Len(), s.Version()
	wantCkptErr(t, s.Insert(obj(3)), "sharded insert after failed checkpoint")
	if s.Len() != lenBefore || s.Version() != verBefore {
		t.Fatal("rejected commit mutated the sharded store")
	}
	// Surfaced once: commits flow again until the auto-checkpoint
	// policy trips the blocked path a second time (3 commits later).
	if err := s.Update(obj(1)); err != nil {
		t.Fatalf("update after surfacing: %v", err)
	}
	if err := s.Insert(obj(3)); err != nil {
		t.Fatalf("insert after surfacing: %v", err)
	}
	if found, err := s.Delete(obj(0).ID); err != nil || !found {
		t.Fatalf("delete after surfacing: found=%v err=%v", found, err)
	}
	s.dur.drain()
	wantCkptErr(t, s.Sync(), "sharded sync after second failed checkpoint")

	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after unblocking: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("sync after unblocking: %v", err)
	}
	wantLen, wantVer := s.Len(), s.Version()
	if err := s.Close(); err != nil {
		t.Fatalf("close after surfaced+recovered failures: %v", err)
	}

	reopened, err := OpenShardedStore(PersistOptions{Dir: dir}, ShardedOptions{Shards: 2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Len() != wantLen || reopened.Version() != wantVer {
		t.Fatalf("reopened len %d version %d, want %d and %d",
			reopened.Len(), reopened.Version(), wantLen, wantVer)
	}
}
