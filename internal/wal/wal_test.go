package wal

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"probprune/internal/geom"
	"probprune/internal/uncertain"
	"probprune/internal/workload"
)

// testObject builds a deterministic uncertain object for codec tests.
func testObject(t testing.TB, id int, rng *rand.Rand, weighted bool) *uncertain.Object {
	t.Helper()
	n := 1 + rng.Intn(6)
	samples := make([]geom.Point, n)
	for i := range samples {
		samples[i] = geom.Point{rng.Float64(), rng.Float64()}
	}
	var weights []float64
	if weighted {
		weights = make([]float64, n)
		for i := range weights {
			weights[i] = rng.Float64() + 0.01
		}
	}
	o, err := uncertain.NewWeightedObject(id, samples, weights)
	if err != nil {
		t.Fatal(err)
	}
	if rng.Intn(2) == 0 {
		if err := o.SetExistence(0.1 + 0.9*rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

func testRecord(t testing.TB, rng *rand.Rand, version uint64) Record {
	t.Helper()
	rec := Record{Version: version, Global: rng.Uint64() % 1000}
	switch rng.Intn(5) {
	case 0:
		rec.Op, rec.Obj = OpInsert, testObject(t, int(version), rng, rng.Intn(2) == 0)
	case 1:
		rec.Op, rec.Obj = OpUpdate, testObject(t, int(version), rng, true)
	case 2:
		rec.Op, rec.ID = OpDelete, rng.Intn(100)-5
	case 3:
		rec.Op, rec.Obj = OpMoveIn, testObject(t, int(version), rng, false)
	default:
		rec.Op, rec.ID = OpMoveOut, rng.Intn(100)
	}
	return rec
}

// TestRecordRoundTrip: encode/decode is the identity on records,
// including MBR bits, raw weights and existence.
func TestRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		rec := testRecord(t, rng, uint64(i+1))
		payload, err := appendRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(rec, got) {
			t.Fatalf("record %d: round trip changed\n%+v\n%+v", i, rec, got)
		}
	}
}

// TestRecordRejectsInfiniteWeight: a record whose object carries a
// +Inf weight — which no constructor builds — does not decode, so replay
// cannot bring one into a store.
func TestRecordRejectsInfiniteWeight(t *testing.T) {
	o := testObject(t, 1, rand.New(rand.NewSource(2)), true)
	o.Weights = append([]float64(nil), o.Weights...)
	o.Weights[0] = math.Inf(1)
	payload, err := appendRecord(nil, Record{Op: OpInsert, Version: 1, Obj: o})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeRecord(payload); err == nil || !strings.Contains(err.Error(), "invalid weight") {
		t.Fatalf("record with a +Inf weight: decode error %v", err)
	}
}

// TestJournalAppendReplay: records come back in order across segment
// rotations and a close/reopen.
func TestJournalAppendReplay(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentBytes: 512}) // force rotations
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Replay(nil); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var want []Record
	for i := 0; i < 200; i++ {
		rec := testRecord(t, rng, uint64(i+1))
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if segs := mustSegments(t, dir); len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %d", len(segs))
	}

	j2, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var got []Record
	if err := j2.Replay(func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("replay mismatch: %d vs %d records", len(want), len(got))
	}
}

func mustSegments(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// TestCheckpointTruncatesLog: WriteCheckpoint absorbs the log; replay
// afterwards sees only post-checkpoint records, and the pre-checkpoint
// segments are gone.
func TestCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Replay(nil); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	db := mustSynthetic(t, 10, 4)
	for i := 0; i < 50; i++ {
		if err := j.Append(testRecord(t, rng, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	ck := &Checkpoint{Version: 50, Objects: db, CacheVersion: 10}
	if err := j.WriteCheckpoint(ck); err != nil {
		t.Fatal(err)
	}
	if n := j.AppendedSinceCheckpoint(); n != 0 {
		t.Fatalf("appended-since-checkpoint = %d after checkpoint", n)
	}
	var tail []Record
	for i := 50; i < 55; i++ {
		rec := testRecord(t, rng, uint64(i+1))
		tail = append(tail, rec)
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	ck2 := j2.Checkpoint()
	if ck2 == nil || ck2.Version != 50 || ck2.CacheVersion != 10 || len(ck2.Objects) != len(db) {
		t.Fatalf("checkpoint not recovered: %+v", ck2)
	}
	for i, o := range ck2.Objects {
		if !reflect.DeepEqual(o, db[i]) {
			t.Fatalf("checkpoint object %d changed", i)
		}
	}
	var got []Record
	if err := j2.Replay(func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tail, got) {
		t.Fatalf("post-checkpoint replay mismatch: want %d records, got %d", len(tail), len(got))
	}
}

func mustSynthetic(t testing.TB, n, samples int) []*uncertain.Object {
	t.Helper()
	db, err := workload.Synthetic(workload.SyntheticConfig{N: n, Samples: samples, MaxExtent: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestCheckpointDecompRoundTrip: materialized decomposition levels
// survive the checkpoint codec bit for bit.
func TestCheckpointDecompRoundTrip(t *testing.T) {
	db := mustSynthetic(t, 6, 8)
	decomp := make([][][]uncertain.Partition, len(db))
	for i, o := range db {
		tree := uncertain.NewDecompTree(o, 0)
		for l := 0; l <= i%4; l++ {
			decomp[i] = append(decomp[i], tree.PartitionsAtLevel(l))
		}
	}
	path := filepath.Join(t.TempDir(), "snap.ckpt")
	ck := &Checkpoint{Version: 9, Objects: db, Decomp: decomp, CacheVersion: 3}
	if err := saveCheckpointFile(path, ck); err != nil {
		t.Fatal(err)
	}
	got, err := loadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 9 || got.CacheVersion != 3 {
		t.Fatalf("versions changed: %+v", got)
	}
	if !reflect.DeepEqual(ck.Objects, got.Objects) {
		t.Fatal("objects changed in round trip")
	}
	for i := range decomp {
		if len(decomp[i]) == 0 {
			if len(got.Decomp[i]) != 0 {
				t.Fatalf("object %d: spurious levels", i)
			}
			continue
		}
		if !reflect.DeepEqual(decomp[i], got.Decomp[i]) {
			t.Fatalf("object %d: levels changed in round trip", i)
		}
	}
}

// TestManifestRoundTrip: the router manifest codec is the identity.
func TestManifestRoundTrip(t *testing.T) {
	db := mustSynthetic(t, 4, 6)
	var entries []DecompEntry
	for i, o := range db[:2] {
		tree := uncertain.NewDecompTree(o, 0)
		entries = append(entries, DecompEntry{
			ID:     o.ID,
			Dim:    o.Dim(),
			Levels: [][]uncertain.Partition{tree.PartitionsAtLevel(0), tree.PartitionsAtLevel(i + 1)},
		})
	}
	m := &Manifest{
		Version:      42,
		Shards:       4,
		VV:           []uint64{1, 0, 7, 3},
		Order:        []int{3, 0, 2, 1},
		Decomp:       entries,
		CacheVersion: 17,
	}
	path := filepath.Join(t.TempDir(), "MANIFEST")
	if err := SaveManifest(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("manifest round trip changed:\n%+v\n%+v", m, got)
	}
	// Missing file: fresh directory signal, not an error.
	none, err := LoadManifest(filepath.Join(t.TempDir(), "MANIFEST"))
	if err != nil || none != nil {
		t.Fatalf("missing manifest: got %+v, %v", none, err)
	}
	// Corrupt file: an error, never a silent fresh start.
	if err := os.WriteFile(path, []byte("ppmani\x01\ngarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil {
		t.Fatal("corrupt manifest loaded silently")
	}
}

// TestInterruptedCheckpointFallsBack: a torn checkpoint file (simulated
// partial write without rename) must not shadow the previous intact
// one.
func TestInterruptedCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Replay(nil); err != nil {
		t.Fatal(err)
	}
	db := mustSynthetic(t, 5, 4)
	if err := j.WriteCheckpoint(&Checkpoint{Version: 5, Objects: db}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// A later checkpoint that tore mid-write: higher index, bad bytes.
	if err := os.WriteFile(filepath.Join(dir, ckptName(99)), []byte("ppckpt\x01\n torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	ck := j2.Checkpoint()
	if ck == nil || ck.Version != 5 {
		t.Fatalf("did not fall back to the intact checkpoint: %+v", ck)
	}
}

// TestSyncPolicies: every policy accepts appends and an explicit Sync.
func TestSyncPolicies(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, p := range []SyncPolicy{SyncOS, SyncAlways, SyncBackground} {
		t.Run(p.String(), func(t *testing.T) {
			j, err := Open(t.TempDir(), Options{Sync: p, SyncEvery: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Replay(nil); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if err := j.Append(testRecord(t, rng, uint64(i+1))); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCursorRoundTrip: the durable-cursor codec is the identity through
// a log's base frame, a missing file opens as a fresh start, and a file
// that is not a cursor log is an error until CreateCursorLog replaces it.
func TestCursorRoundTrip(t *testing.T) {
	db := mustSynthetic(t, 4, 4)
	c := &Cursor{
		Version: 31,
		VV:      []uint64{4, 0, 27},
		Subs: []CursorSub{
			{Name: "alpha", Kind: 1, K: 5, Tau: 0.5, Q: db[3], Entries: []CursorEntry{
				{Obj: db[0], LB: 0.625, UB: 1, Iterations: 3},
				{Obj: db[2], LB: 0.5, UB: 0.5},
			}},
			{Name: "beta", Kind: 2, K: 2, Tau: 0, Q: db[1]},
		},
	}
	if l, none, err := OpenCursorLog(filepath.Join(t.TempDir(), "cursor")); err != nil || none != nil {
		t.Fatalf("missing cursor: got %+v, %v", none, err)
	} else {
		l.Close()
	}
	path := filepath.Join(t.TempDir(), "cursor")
	if err := os.WriteFile(path, []byte("not a cursor at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenCursorLog(path); err == nil {
		t.Fatal("garbage file opened as a cursor log")
	}
	l, err := CreateCursorLog(path, &Cursor{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteFull(&Cursor{Subs: []CursorSub{{Name: "", Q: db[0]}}}); err == nil {
		t.Fatal("empty subscription name encoded")
	}
	if err := l.WriteFull(&Cursor{Subs: []CursorSub{{Name: "x"}}}); err == nil {
		t.Fatal("subscription without query object encoded")
	}
	if err := l.WriteFull(c); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, got, err := OpenCursorLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if !reflect.DeepEqual(c, got) {
		t.Fatalf("cursor round trip changed:\n%+v\n%+v", c, got)
	}
}

// TestRecordAccessors covers the small record helpers the stores and
// the recovery merge rely on.
func TestRecordAccessors(t *testing.T) {
	o := mustSynthetic(t, 1, 2)[0]
	ins := Record{Op: OpInsert, Obj: o}
	del := Record{Op: OpDelete, ID: 7}
	if ins.ObjectID() != o.ID || del.ObjectID() != 7 {
		t.Fatal("ObjectID resolves the wrong field")
	}
	logical := map[Op]bool{OpInsert: true, OpUpdate: true, OpDelete: true, OpMoveIn: false, OpMoveOut: false}
	for op, want := range logical {
		if op.Logical() != want {
			t.Fatalf("%v.Logical() = %v", op, op.Logical())
		}
		if op.String() == "unknown" {
			t.Fatalf("%v has no name", op)
		}
	}
	if Op(99).String() != "unknown" || SyncPolicy(9).String() != "os" {
		t.Fatal("fallback names wrong")
	}
}

// TestHasData: the bootstrap probe finds durable state only where a
// checkpoint or an intact first frame exists — never in an empty
// directory, a header-only segment or a first frame that is torn,
// zero-length or fails its CRC.
func TestHasData(t *testing.T) {
	hasData := func(t *testing.T, dir string) bool {
		t.Helper()
		j, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		ok, err := j.HasData()
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	if hasData(t, t.TempDir()) {
		t.Fatal("empty directory has data")
	}

	frame := func(payload []byte, size int) []byte {
		b := []byte(segMagic)
		b = binary.LittleEndian.AppendUint32(b, uint32(size))
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, crcTable))
		return append(b, payload...)
	}
	payload := []byte("payload")
	badCRC := frame(payload, len(payload))
	badCRC[len(badCRC)-1] ^= 0xff
	for name, seg := range map[string][]byte{
		"header-only": []byte(segMagic),
		"bad-magic":   append([]byte("notawal\n"), frame(payload, len(payload))[len(segMagic):]...),
		"torn-header": frame(payload, len(payload))[:len(segMagic)+3],
		"torn-frame":  frame(payload, len(payload))[:len(segMagic)+frameHeader+2],
		"zero-length": frame(nil, 0),
		"bad-crc":     badCRC,
		"intact":      frame(payload, len(payload)),
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		if got := hasData(t, dir); got != (name == "intact") {
			t.Errorf("%s segment: HasData = %v", name, got)
		}
	}

	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Replay(nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(testRecord(t, rand.New(rand.NewSource(1)), 1)); err != nil {
		t.Fatal(err)
	}
	if ok, err := j.HasData(); err != nil || !ok {
		t.Fatalf("written journal: HasData = %v, %v", ok, err)
	}
	if err := j.WriteCheckpoint(&Checkpoint{Version: 1, Objects: mustSynthetic(t, 3, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if !hasData(t, dir) {
		t.Fatal("checkpointed directory has no data")
	}
}

// TestSyncEveryLoop: under SyncBackground an append does not fsync;
// the background flusher does, within a few SyncEvery intervals.
func TestSyncEveryLoop(t *testing.T) {
	j, err := Open(t.TempDir(), Options{Sync: SyncBackground, SyncEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Replay(nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(testRecord(t, rand.New(rand.NewSource(3)), 1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for j.MetricsSnapshot().Fsyncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background flusher never fsynced")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSegmentRotation: a full segment rotates to the next one, fsyncing
// the outgoing segment first under a durable policy (the background
// flusher fsyncs only the current segment) and not under SyncOS; the
// log replays whole across the rotations.
func TestSegmentRotation(t *testing.T) {
	for _, p := range []SyncPolicy{SyncOS, SyncBackground} {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			j, err := Open(dir, Options{Sync: p, SyncEvery: time.Hour, SegmentBytes: 256})
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Replay(nil); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			var want []Record
			for v := uint64(1); j.MetricsSnapshot().Rotations < 3; v++ {
				rec := testRecord(t, rng, v)
				if err := j.Append(rec); err != nil {
					t.Fatal(err)
				}
				want = append(want, rec)
			}
			s := j.MetricsSnapshot()
			if p == SyncOS && s.Fsyncs != 0 {
				t.Fatalf("SyncOS rotations fsynced %d times", s.Fsyncs)
			}
			if p != SyncOS && s.Fsyncs < s.Rotations {
				t.Fatalf("%d rotations but %d fsyncs: an outgoing segment was not fsynced", s.Rotations, s.Fsyncs)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if segs := mustSegments(t, dir); len(segs) != int(s.Rotations)+1 {
				t.Fatalf("%d segments after %d rotations", len(segs), s.Rotations)
			}
			j2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			var got []Record
			if err := j2.Replay(func(r Record) error { got = append(got, r); return nil }); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("replay returned %d records, want %d", len(got), len(want))
			}
		})
	}
}
