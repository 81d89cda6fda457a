package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// cursorLogFixture builds a base cursor and two deltas over synthetic
// objects, returning the expected state after each stage.
func cursorLogFixture(t *testing.T) (base *Cursor, d1, d2 *CursorDelta, after1, after2 *Cursor) {
	t.Helper()
	db := mustSynthetic(t, 6, 4)
	alpha := CursorSub{Name: "alpha", Kind: 1, K: 3, Tau: 0.5, Q: db[0], Entries: []CursorEntry{
		{Obj: db[1], LB: 0.25, UB: 1, Iterations: 2},
	}}
	beta := CursorSub{Name: "beta", Kind: 2, K: 2, Q: db[2]}
	base = &Cursor{Version: 5, VV: []uint64{2, 3}, Subs: []CursorSub{alpha, beta}}

	alpha2 := alpha
	alpha2.Entries = []CursorEntry{
		{Obj: db[1], LB: 0.5, UB: 0.5},
		{Obj: db[3], LB: 1, UB: 1, Iterations: 1},
	}
	d1 = &CursorDelta{Version: 7, VV: []uint64{3, 4}, Upserts: []CursorSub{alpha2}}
	after1 = &Cursor{Version: 7, VV: []uint64{3, 4}, Subs: []CursorSub{alpha2, beta}}

	gamma := CursorSub{Name: "gamma", K: 1, Q: db[4]}
	d2 = &CursorDelta{Version: 9, VV: []uint64{4, 6}, Upserts: []CursorSub{gamma}, Deletes: []string{"beta"}}
	after2 = &Cursor{Version: 9, VV: []uint64{4, 6}, Subs: []CursorSub{alpha2, gamma}}
	return
}

// TestCursorLogResume: base + deltas fold back into the exact cursor on
// reopen — upserts replace by name, deletes remove, the watermark is the
// last delta's — and the reopened log keeps appending.
func TestCursorLogResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cursor")
	l, c, err := OpenCursorLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if c != nil {
		t.Fatalf("fresh log has state: %+v", c)
	}
	if !l.ShouldCompact() {
		t.Fatal("fresh log does not ask for a base write")
	}
	base, d1, d2, _, after2 := cursorLogFixture(t)
	if err := l.WriteFull(base); err != nil {
		t.Fatal(err)
	}
	if l.Compactions() != 0 {
		t.Fatal("the first base write counted as a compaction")
	}
	if err := l.AppendDelta(d1); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendDelta(d2); err != nil {
		t.Fatal(err)
	}
	if l.DeltaBytes() == 0 {
		t.Fatal("DeltaBytes = 0 after two delta appends")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, got, err := OpenCursorLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after2, got) {
		t.Fatalf("replayed state:\n%+v\nwant\n%+v", got, after2)
	}
	// Still appendable: a post-reopen delta survives the next open.
	if err := l2.AppendDelta(&CursorDelta{Version: 11, VV: []uint64{5, 6}, Deletes: []string{"gamma"}}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, got3, err := OpenCursorLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if got3.Version != 11 || len(got3.Subs) != 1 || got3.Subs[0].Name != "alpha" {
		t.Fatalf("post-reopen delta lost: %+v", got3)
	}
}

// TestCursorLogTornTail truncates the log at every byte offset past the
// base frame: recovery must fold exactly the deltas that fit entirely
// inside the prefix, and the healed log must accept and keep new deltas.
func TestCursorLogTornTail(t *testing.T) {
	master := filepath.Join(t.TempDir(), "cursor")
	l, _, err := OpenCursorLog(master)
	if err != nil {
		t.Fatal(err)
	}
	base, d1, d2, after1, after2 := cursorLogFixture(t)
	var sizes []int64
	stat := func() {
		fi, err := os.Stat(master)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, fi.Size())
	}
	if err := l.WriteFull(base); err != nil {
		t.Fatal(err)
	}
	stat()
	if err := l.AppendDelta(d1); err != nil {
		t.Fatal(err)
	}
	stat()
	if err := l.AppendDelta(d2); err != nil {
		t.Fatal(err)
	}
	stat()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(master)
	if err != nil {
		t.Fatal(err)
	}

	for cut := sizes[0]; cut <= int64(len(data)); cut++ {
		path := filepath.Join(t.TempDir(), "cursor")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		want := base
		if cut >= sizes[1] {
			want = after1
		}
		if cut >= sizes[2] {
			want = after2
		}
		l2, got, err := OpenCursorLog(path)
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("cut %d: recovered version %d with %d subs, want version %d with %d subs",
				cut, got.Version, len(got.Subs), want.Version, len(want.Subs))
		}
		// The torn tail is gone and the log appends cleanly on top.
		if err := l2.AppendDelta(&CursorDelta{Version: 20, Deletes: []string{"alpha"}}); err != nil {
			t.Fatalf("cut %d: append after heal: %v", cut, err)
		}
		if err := l2.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		l3, got3, err := OpenCursorLog(path)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		l3.Close()
		if got3.Version != 20 || len(got3.Subs) != len(want.Subs)-1 {
			t.Fatalf("cut %d: healed log lost the new delta: %+v", cut, got3)
		}
	}
}

// TestCursorLogCompaction: deltas accumulate until ShouldCompact trips
// (2x the base, floored), WriteFull resets the file to one base frame,
// and the state is preserved across the rewrite.
func TestCursorLogCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cursor")
	l, _, err := OpenCursorLog(path)
	if err != nil {
		t.Fatal(err)
	}
	base, d1, _, _, _ := cursorLogFixture(t)
	if err := l.WriteFull(base); err != nil {
		t.Fatal(err)
	}
	state := append([]CursorSub(nil), base.Subs...)
	cur := &Cursor{Version: base.Version, VV: base.VV, Subs: state}
	// Small base: the compaction floor dominates, so deltas must pile up
	// to cursorCompactMin before ShouldCompact trips.
	n := 0
	for !l.ShouldCompact() {
		d := *d1
		d.Version = cur.Version + 1
		if err := l.AppendDelta(&d); err != nil {
			t.Fatal(err)
		}
		cur = applyCursorDelta(cur, &d)
		if n++; n > 10000 {
			t.Fatal("ShouldCompact never tripped")
		}
	}
	if l.DeltaBytes() < cursorCompactMin {
		t.Fatalf("compaction tripped at %d delta bytes, floor is %d", l.DeltaBytes(), cursorCompactMin)
	}
	grown, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteFull(cur); err != nil {
		t.Fatal(err)
	}
	if l.Compactions() != 1 {
		t.Fatalf("Compactions = %d after one compaction", l.Compactions())
	}
	if l.ShouldCompact() {
		t.Fatal("ShouldCompact still true right after a compaction")
	}
	compacted, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if compacted.Size() >= grown.Size() {
		t.Fatalf("compaction did not shrink the log: %d -> %d bytes", grown.Size(), compacted.Size())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, got, err := OpenCursorLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !reflect.DeepEqual(cur, got) {
		t.Fatalf("state changed across compaction:\n%+v\n%+v", cur, got)
	}
}
