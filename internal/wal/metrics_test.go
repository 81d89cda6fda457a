package wal

import (
	"math/rand"
	"testing"

	"probprune/internal/obs"
)

// TestJournalMetrics: the durability counters track appends, bytes,
// fsyncs, rotations and checkpoints through a journal's life.
func TestJournalMetrics(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentBytes: 512, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Replay(nil); err != nil {
		t.Fatal(err)
	}
	if s := j.MetricsSnapshot(); s.Appends != 0 || s.Rotations != 0 {
		t.Fatalf("fresh journal has non-zero metrics: %+v", s)
	}

	rng := rand.New(rand.NewSource(2))
	const n = 100
	for i := 0; i < n; i++ {
		if err := j.Append(testRecord(t, rng, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	s := j.MetricsSnapshot()
	if s.Appends != n {
		t.Fatalf("Appends = %d, want %d", s.Appends, n)
	}
	if s.AppendBytes == 0 {
		t.Fatal("AppendBytes = 0 after appends")
	}
	if s.AppendLat.Count != n {
		t.Fatalf("AppendLat.Count = %d, want %d", s.AppendLat.Count, n)
	}
	if s.Fsyncs < n {
		t.Fatalf("Fsyncs = %d under SyncAlways, want >= %d", s.Fsyncs, n)
	}
	if s.Rotations == 0 {
		t.Fatal("Rotations = 0 with a 512-byte segment cap over 100 records")
	}
	if s.Checkpoints != 0 {
		t.Fatalf("Checkpoints = %d before any checkpoint", s.Checkpoints)
	}

	db := mustSynthetic(t, 10, 4)
	if err := j.WriteCheckpoint(&Checkpoint{Version: n, Objects: db}); err != nil {
		t.Fatal(err)
	}
	s2 := j.MetricsSnapshot()
	if s2.Checkpoints != 1 {
		t.Fatalf("Checkpoints = %d after one checkpoint", s2.Checkpoints)
	}
	if s2.CheckpointLat.Count != 1 {
		t.Fatalf("CheckpointLat.Count = %d, want 1", s2.CheckpointLat.Count)
	}
	if s2.Rotations != s.Rotations+1 {
		t.Fatalf("Rotations = %d after checkpoint, want %d", s2.Rotations, s.Rotations+1)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Merge and the flat map view.
	merged := s
	merged.Merge(s2)
	if merged.Appends != s.Appends+s2.Appends {
		t.Fatalf("Merge: Appends = %d, want %d", merged.Appends, s.Appends+s2.Appends)
	}
	out := obs.PointsMap(s2.Points())
	for _, key := range []string{
		"wal.appends", "wal.append_bytes", "wal.append.latency.count",
		"wal.fsyncs", "wal.fsync.latency.p99_ns", "wal.rotations",
		"wal.checkpoints", "wal.checkpoint.latency.count",
	} {
		if _, ok := out[key]; !ok {
			t.Errorf("PointsMap missing key %s", key)
		}
	}
	if out["wal.appends"] != int64(n) {
		t.Fatalf("wal.appends = %d, want %d", out["wal.appends"], n)
	}

	// Replay on reopen records nothing: metrics measure the write path.
	j2, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if err := j2.Replay(nil); err != nil {
		t.Fatal(err)
	}
	if s := j2.MetricsSnapshot(); s.Appends != 0 || s.Rotations != 0 || s.Checkpoints != 0 {
		t.Fatalf("reopened journal has non-zero write metrics: %+v", s)
	}
}

// TestMetricsPoints: the typed points carry the snapshot's figures
// under the names PointsMap flattens them to.
func TestMetricsPoints(t *testing.T) {
	j, err := Open(t.TempDir(), Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Replay(nil); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 3; i++ {
		if err := j.Append(testRecord(t, rng, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	s := j.MetricsSnapshot()
	points := s.Points()
	flat := obs.PointsMap(points)
	kinds := map[string]obs.PointKind{
		"wal.appends": obs.KindCounter, "wal.append_bytes": obs.KindCounter,
		"wal.append.latency": obs.KindTimeHist, "wal.fsyncs": obs.KindCounter,
		"wal.fsync.latency": obs.KindTimeHist, "wal.rotations": obs.KindCounter,
		"wal.checkpoints": obs.KindCounter, "wal.checkpoint.latency": obs.KindTimeHist,
		"wal.group_commit.batch": obs.KindValueHist,
	}
	if len(points) != len(kinds) {
		t.Fatalf("%d points, want %d", len(points), len(kinds))
	}
	for _, p := range points {
		kind, ok := kinds[p.Name]
		if !ok || p.Kind != kind {
			t.Fatalf("point %s has kind %v, want %v", p.Name, p.Kind, kind)
		}
		switch {
		case kind == obs.KindCounter && p.Value != flat[p.Name]:
			t.Errorf("%s = %d, PointsMap says %d", p.Name, p.Value, flat[p.Name])
		case kind != obs.KindCounter && int64(p.Hist.Count) != flat[p.Name+".count"]:
			t.Errorf("%s count = %d, PointsMap says %d", p.Name, p.Hist.Count, flat[p.Name+".count"])
		}
	}
	if flat["wal.appends"] != 3 || flat["wal.group_commit.batch.count"] == 0 {
		t.Fatalf("flat metrics miss the appends or their group commits: %v", flat)
	}
}

// TestJournalSetRecorder: an armed recorder hears every group-commit
// fsync of a SyncAlways journal; a disarmed one hears nothing more, and
// a nil journal ignores the call.
func TestJournalSetRecorder(t *testing.T) {
	var nilJournal *Journal
	nilJournal.SetRecorder(obs.NewRecorder(8))

	j, err := Open(t.TempDir(), Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Replay(nil); err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(64)
	j.SetRecorder(rec)
	rng := rand.New(rand.NewSource(7))
	if err := j.Append(testRecord(t, rng, 1)); err != nil {
		t.Fatal(err)
	}
	evs := rec.Snapshot()
	if len(evs) != 1 || evs[0].Kind != obs.EvGroupCommit || evs[0].A != 1 {
		t.Fatalf("armed recorder holds %+v, want one group commit of one record", evs)
	}
	j.SetRecorder(nil)
	if err := j.Append(testRecord(t, rng, 2)); err != nil {
		t.Fatal(err)
	}
	if n := len(rec.Snapshot()); n != 1 {
		t.Fatalf("disarmed recorder grew to %d events", n)
	}
}
