package wal

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"probprune/internal/uncertain"
)

// snapshotDir copies every file in src into a fresh temp directory — a
// crash image of the journal at the moment of the call.
func snapshotDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestKillPointCheckpointInstall crashes a two-phase checkpoint install
// at every step — before the checkpoint file exists, after the rename,
// after the old checkpoint is removed, after the absorbed segments are
// removed — and recovery from every image must yield the same logical
// state: the pinned base plus every record ever appended, including the
// ones that landed after the pin. Each image must also stay writable.
func TestKillPointCheckpointInstall(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Replay(nil); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	base := mustSynthetic(t, 3, 4)
	// An initial checkpoint, so the install under test has an old
	// checkpoint file to remove.
	writeCheckpoint(t, j, &Checkpoint{Version: 0, Objects: base})
	baseIDs := map[int]bool{}
	for _, o := range base {
		baseIDs[o.ID] = true
	}

	objs := map[uint64]*uncertain.Object{}
	appendInsert := func(v uint64) {
		o := testObject(t, 1000+int(v), rng, false)
		objs[v] = o
		if err := j.Append(Record{Op: OpInsert, Version: v, Obj: o}); err != nil {
			t.Fatal(err)
		}
	}
	for v := uint64(1); v <= 12; v++ {
		appendInsert(v)
	}

	pin, err := j.BeginCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	// The checkpoint of the pinned state: base plus records 1..12.
	pinned := append([]*uncertain.Object(nil), base...)
	for v := uint64(1); v <= 12; v++ {
		pinned = append(pinned, objs[v])
	}
	ck := &Checkpoint{Version: 12, Objects: pinned}
	// Records landing after the pin: every crash image must keep them.
	for v := uint64(13); v <= 15; v++ {
		appendInsert(v)
	}

	snaps := map[string]string{"begin": snapshotDir(t, dir)}
	j.SetInstallHook(func(step string) { snaps[step] = snapshotDir(t, dir) })
	if err := j.InstallCheckpoint(pin, ck); err != nil {
		t.Fatal(err)
	}
	snaps["done"] = snapshotDir(t, dir)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	for _, step := range []string{"begin", "encode", "installed", "removed-ckpt", "removed-segs", "done"} {
		sdir, ok := snaps[step]
		if !ok {
			t.Fatalf("install hook never reached step %q", step)
		}
		verifyKillImage(t, step, sdir, baseIDs)
	}
}

// verifyKillImage recovers one crash image and checks the logical state
// — base objects plus inserts 1..15 with watermark 15 — then proves the
// image is still appendable across a further reopen.
func verifyKillImage(t *testing.T, step, dir string, baseIDs map[int]bool) {
	t.Helper()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("%s: open: %v", step, err)
	}
	ids := map[int]bool{}
	var ckVer uint64
	if ck := j.Checkpoint(); ck != nil {
		ckVer = ck.Version
		for _, o := range ck.Objects {
			ids[o.ID] = true
		}
	} else {
		t.Fatalf("%s: no checkpoint recovered", step)
	}
	last := ckVer
	count := 0
	if err := j.Replay(func(r Record) error {
		count++
		if r.Version != last+1 {
			t.Fatalf("%s: replay version %d after %d", step, r.Version, last)
		}
		last = r.Version
		ids[r.ObjectID()] = true
		return nil
	}); err != nil {
		t.Fatalf("%s: replay: %v", step, err)
	}
	if last != 15 {
		t.Fatalf("%s: recovered through version %d, want 15", step, last)
	}
	if count != 15-int(ckVer) {
		t.Fatalf("%s: %d records on top of checkpoint version %d", step, count, ckVer)
	}
	for id := range baseIDs {
		if !ids[id] {
			t.Fatalf("%s: base object %d lost", step, id)
		}
	}
	for v := 1; v <= 15; v++ {
		if !ids[1000+v] {
			t.Fatalf("%s: insert %d lost", step, v)
		}
	}

	// The image heals into a working journal: append, reopen, replay.
	rng := rand.New(rand.NewSource(42))
	if err := j.Append(Record{Op: OpInsert, Version: 16, Obj: testObject(t, 1016, rng, false)}); err != nil {
		t.Fatalf("%s: append after recovery: %v", step, err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("%s: close: %v", step, err)
	}
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("%s: reopen: %v", step, err)
	}
	defer j2.Close()
	last2 := uint64(0)
	if ck := j2.Checkpoint(); ck != nil {
		last2 = ck.Version
	}
	if err := j2.Replay(func(r Record) error { last2 = r.Version; return nil }); err != nil {
		t.Fatalf("%s: re-replay: %v", step, err)
	}
	if last2 != 16 {
		t.Fatalf("%s: post-heal append lost (through version %d)", step, last2)
	}
}
