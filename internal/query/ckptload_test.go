package query

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/obs"
	"probprune/internal/uncertain"
)

// These tests pin down the two promises of background checkpointing:
// commits are never stalled by a checkpoint install (the commit path
// pays only the O(1) pin under the store lock), and a crash at ANY step
// of the background install recovers to the exact committed state.

// TestCheckpointUnderLoad parks the background install on the
// scheduler's gate and keeps committing: every insert must complete
// while the install is stuck, pins submitted behind the parked install
// must coalesce instead of queueing, and releasing the gate must drain
// cleanly into a recoverable directory.
func TestCheckpointUnderLoad(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, _ := traceCase(t, 13, false)
	opts := core.Options{MaxIterations: 3}
	s, err := BootstrapStore(db, PersistOptions{Dir: dir, CheckpointEvery: 4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.dur.gate = func() {
		once.Do(func() { close(entered) })
		<-release
	}
	obj := func(i int) *uncertain.Object {
		return uncertain.PointObject(3000+i, geom.Point{0.05 * float64(i), 0.3})
	}
	for i := 0; i < 4; i++ { // trips the auto-checkpoint policy
		if err := s.Insert(obj(i)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("auto-checkpoint never reached the background installer")
	}

	// The install is parked. Commits must keep flowing — they pay the
	// pin, never the install.
	const extra = 40
	committed := make(chan error, 1)
	go func() {
		for i := 4; i < 4+extra; i++ {
			if err := s.Insert(obj(i)); err != nil {
				committed <- fmt.Errorf("insert %d: %w", i, err)
				return
			}
		}
		committed <- nil
	}()
	select {
	case err := <-committed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("writers blocked behind a parked checkpoint install")
	}
	snap := obs.PointsMap(s.Metrics().Registry().Points())
	if snap["store.checkpoint.coalesced"] == 0 {
		t.Fatal("pins submitted behind the parked install were not coalesced")
	}
	if snap["store.checkpoint.queue"] == 0 {
		t.Fatal("queue gauge reads empty while an install is parked")
	}

	close(release)
	s.dur.drain()
	if q := obs.PointsMap(s.Metrics().Registry().Points())["store.checkpoint.queue"]; q != 0 {
		t.Fatalf("queue gauge = %d after drain", q)
	}
	wantLen, wantVer := s.Len(), s.Version()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenStore(PersistOptions{Dir: dir}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != wantLen || r.Version() != wantVer {
		t.Fatalf("recovered len %d version %d, want %d and %d", r.Len(), r.Version(), wantLen, wantVer)
	}
	for i := 0; i < 4+extra; i++ {
		if _, ok := r.Get(3000 + i); !ok {
			t.Fatalf("recovered store lost insert %d", i)
		}
	}
}

// TestKillPointStoreCheckpointInstall pins a checkpoint, commits past
// the pin, then crashes the install at every step; every image must
// recover to the full committed state — the post-pin commits survive
// whichever recovery base (old or new checkpoint) the image holds.
func TestKillPointStoreCheckpointInstall(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, _ := traceCase(t, 14, false)
	opts := core.Options{MaxIterations: 3}
	s, err := BootstrapStore(db, PersistOptions{Dir: dir}, opts)
	if err != nil {
		t.Fatal(err)
	}
	obj := func(i int) *uncertain.Object {
		return uncertain.PointObject(4000+i, geom.Point{0.04 * float64(i), 0.6})
	}
	for i := 0; i < 8; i++ {
		if err := s.Insert(obj(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	job, err := s.pinCheckpointLocked()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for i := 8; i < 12; i++ { // commits that land after the pin
		if err := s.Insert(obj(i)); err != nil {
			t.Fatal(err)
		}
	}
	snaps := map[string]string{}
	snapshot := func(step string) {
		dst := t.TempDir()
		copyTree(t, dir, dst)
		snaps[step] = dst
	}
	snapshot("begin")
	s.shards[0].journal.SetInstallHook(func(step string) { snapshot(step) })
	if err := s.installCheckpoint(job); err != nil {
		t.Fatal(err)
	}
	snapshot("done")
	wantLen, wantVer := s.Len(), s.Version()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for _, step := range []string{"begin", "encode", "installed", "removed-ckpt", "removed-segs", "done"} {
		sdir, ok := snaps[step]
		if !ok {
			t.Fatalf("install never reached step %q", step)
		}
		r, err := OpenStore(PersistOptions{Dir: sdir}, opts)
		if err != nil {
			t.Fatalf("%s: recovery: %v", step, err)
		}
		if r.Len() != wantLen || r.Version() != wantVer {
			t.Fatalf("%s: recovered len %d version %d, want %d and %d",
				step, r.Len(), r.Version(), wantLen, wantVer)
		}
		for i := 0; i < 12; i++ {
			if _, ok := r.Get(4000 + i); !ok {
				t.Fatalf("%s: insert %d lost", step, i)
			}
		}
		r.Close()
	}
}

// TestKillPointShardedCheckpointInstall crashes a sharded checkpoint —
// manifest save, then per-shard installs — at every step of every
// shard's install; each image must recover the full committed state
// whatever mix of old and new shard checkpoints it caught.
func TestKillPointShardedCheckpointInstall(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, _ := traceCase(t, 15, true)
	opts := core.Options{MaxIterations: 3}
	s, err := BootstrapShardedStore(db, PersistOptions{Dir: dir},
		ShardedOptions{Shards: 2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	obj := func(i int) *uncertain.Object {
		return uncertain.PointObject(5000+i, geom.Point{0.06 * float64(i), 0.8})
	}
	for i := 0; i < 10; i++ {
		if err := s.Insert(obj(i)); err != nil {
			t.Fatal(err)
		}
	}
	snaps := map[string]string{}
	snapshot := func(step string) {
		dst := t.TempDir()
		copyTree(t, dir, dst)
		snaps[step] = dst
	}
	snapshot("begin")
	for i, sh := range s.shards {
		shard := i
		sh.journal.SetInstallHook(func(step string) {
			snapshot(fmt.Sprintf("shard-%d:%s", shard, step))
		})
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snapshot("done")
	wantLen, wantVer := s.Len(), s.Version()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if len(snaps) < 2+2*4 {
		t.Fatalf("only %d crash images captured", len(snaps))
	}
	for step, sdir := range snaps {
		r, err := OpenShardedStore(PersistOptions{Dir: sdir}, ShardedOptions{Shards: 2}, opts)
		if err != nil {
			t.Fatalf("%s: recovery: %v", step, err)
		}
		if r.Len() != wantLen || r.Version() != wantVer {
			t.Fatalf("%s: recovered len %d version %d, want %d and %d",
				step, r.Len(), r.Version(), wantLen, wantVer)
		}
		for i := 0; i < 10; i++ {
			if _, ok := r.Get(5000 + i); !ok {
				t.Fatalf("%s: insert %d lost", step, i)
			}
		}
		r.Close()
	}
}

// TestKillPointShardedBootstrap crashes a multi-shard bootstrap at every
// step of every shard's checkpoint installs, on both sides of the first
// manifest. udbserver's bootstrap-or-open pair must start on every
// image with the whole bootstrap database: an image without a manifest
// is debris the bootstrap clears, one with a manifest is recovered.
func TestKillPointShardedBootstrap(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, _ := traceCase(t, 16, true)
	opts := core.Options{MaxIterations: 3}
	sopts := ShardedOptions{Shards: 2}
	var steps []string
	snaps := map[string]string{}
	snapshot := func(step string) {
		step = fmt.Sprintf("%02d-%s", len(steps), step)
		dst := t.TempDir()
		copyTree(t, dir, dst)
		steps = append(steps, step)
		snaps[step] = dst
	}
	bootstrapHook = func(s *Store) {
		snapshot("attached")
		for i, sh := range s.shards {
			shard := i
			sh.journal.SetInstallHook(func(step string) {
				snapshot(fmt.Sprintf("shard-%d:%s", shard, step))
			})
		}
	}
	s, err := BootstrapShardedStore(db, PersistOptions{Dir: dir}, sopts, opts)
	bootstrapHook = nil
	if err != nil {
		t.Fatal(err)
	}
	snapshot("done")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var with, without int
	for _, step := range steps {
		sdir := snaps[step]
		if _, err := os.Stat(filepath.Join(sdir, manifestName)); err == nil {
			with++
		} else {
			without++
		}
		popts := PersistOptions{Dir: sdir}
		r, err := BootstrapShardedStore(db, popts, sopts, opts)
		if errors.Is(err, ErrStoreExists) {
			r, err = OpenShardedStore(popts, sopts, opts)
		}
		if err != nil {
			t.Fatalf("%s: bootstrap-or-open: %v", step, err)
		}
		if r.Len() != len(db) || r.Version() != 0 || r.NumShards() != 2 {
			t.Fatalf("%s: got len %d version %d shards %d, want %d, 0 and 2",
				step, r.Len(), r.Version(), r.NumShards(), len(db))
		}
		for _, o := range db {
			if _, ok := r.Get(o.ID); !ok {
				t.Fatalf("%s: object %d lost", step, o.ID)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if with < 2 || without < 2 {
		t.Fatalf("crash images: %d with a manifest, %d without", with, without)
	}
}
