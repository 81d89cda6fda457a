package cq

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/query"
	"probprune/internal/uncertain"
	"probprune/internal/workload"
)

// These tests cover the cursor-log behavior of the monitor: auto-saves
// append deltas instead of rewriting the whole cursor, forgotten names
// persist as delete deltas, and a failed auto-save is deferred to the
// next SaveCursor or Close instead of being dropped.

// TestCursorDeltaSaves: with CursorEvery=1 every processed change
// appends a delta, the file is in log format, and a crash without a
// final save still resumes silently — the deltas carried the cursor to
// the head.
func TestCursorDeltaSaves(t *testing.T) {
	dir := t.TempDir()
	cursorPath := filepath.Join(dir, "cursor")
	opts := core.Options{MaxIterations: 3}
	popts := query.PersistOptions{Dir: filepath.Join(dir, "db")}
	db, err := workload.Synthetic(workload.SyntheticConfig{N: 12, Samples: 4, MaxExtent: 0.1, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	s, err := query.BootstrapStore(db, popts, opts)
	if err != nil {
		t.Fatal(err)
	}

	mon := NewMonitor(s, Options{Buffer: 1 << 10, CursorPath: cursorPath, CursorEvery: 1})
	q := uncertain.PointObject(-1, geom.Point{0.5, 0.5})
	sub, err := mon.SubscribeKNNDurable("alpha", q, 3, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	set := cursorSet{}
	drain(sub, set)
	if err := mon.SaveCursor(); err != nil { // the base frame
		t.Fatal(err)
	}
	base := mon.Stats()
	if base.CursorSaves == 0 {
		t.Fatal("explicit save not counted")
	}

	rng := rand.New(rand.NewSource(9))
	ctx := context.Background()
	const churn = 6
	for _, op := range cursorTrace(t, rng, churn, 1000) {
		if err := op(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := mon.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	// Sync returns once the last change is processed, which is just
	// before its auto-save; a worker round trip orders the read after it.
	mon.HasCursorSub("alpha")
	drain(sub, set)
	st := mon.Stats()
	if st.CursorSaves < base.CursorSaves+churn {
		t.Fatalf("CursorSaves = %d after %d auto-saving changes (was %d)", st.CursorSaves, churn, base.CursorSaves)
	}
	if st.CursorSaveFailures != 0 {
		t.Fatalf("CursorSaveFailures = %d on a healthy path", st.CursorSaveFailures)
	}
	if st.CursorDeltaBytes == 0 {
		t.Fatal("CursorDeltaBytes = 0: auto-saves did not append deltas")
	}
	data, err := os.ReadFile(cursorPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("ppcurl\x01\n")) {
		t.Fatal("cursor file is not in log format")
	}

	// Crash without a final save: the per-change deltas ARE the cursor.
	mon.stopWatch()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := query.OpenStore(popts, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mon2 := NewMonitor(r, Options{Buffer: 1 << 10, CursorPath: cursorPath})
	defer mon2.Close()
	if !mon2.HasCursorSub("alpha") {
		t.Fatal("resume state lost across the crash")
	}
	sub2, err := mon2.SubscribeKNNDurable("alpha", q, 3, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if evs := drain(sub2, cursorSet{}); len(evs) != 0 {
		t.Fatalf("cursor auto-saved at the head replayed %d events on resume", len(evs))
	}
}

// TestCursorForgetPersistsAsDelta: Forget survives a monitor restart
// through a delete delta — no full rewrite needed.
func TestCursorForgetPersistsAsDelta(t *testing.T) {
	cursorPath := filepath.Join(t.TempDir(), "cursor")
	opts := core.Options{MaxIterations: 3}
	db, err := workload.Synthetic(workload.SyntheticConfig{N: 10, Samples: 4, MaxExtent: 0.1, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	s, err := query.NewStore(db, opts)
	if err != nil {
		t.Fatal(err)
	}

	mon := NewMonitor(s, Options{Buffer: 256, CursorPath: cursorPath})
	q := uncertain.PointObject(-1, geom.Point{0.5, 0.5})
	sub, err := mon.SubscribeKNNDurable("alpha", q, 3, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	drain(sub, cursorSet{})
	sub.Cancel()
	if err := mon.SaveCursor(); err != nil { // base with alpha remembered
		t.Fatal(err)
	}
	if !mon.HasCursorSub("alpha") {
		t.Fatal("cancelled durable subscription not remembered")
	}
	if err := mon.Forget("alpha"); err != nil {
		t.Fatal(err)
	}
	if err := mon.SaveCursor(); err != nil { // the delete delta
		t.Fatal(err)
	}
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}

	mon2 := NewMonitor(s, Options{Buffer: 256, CursorPath: cursorPath})
	defer mon2.Close()
	if mon2.HasCursorSub("alpha") {
		t.Fatal("forgotten name survived the restart")
	}
	// The name is free again: a fresh subscription starts from scratch.
	sub2, err := mon2.SubscribeKNNDurable("alpha", q, 3, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	drain(sub2, cursorSet{})
}

// TestCursorAutoSaveErrorDeferred: when every save fails (the cursor
// path is a directory), an auto-save failure is NOT dropped — the next
// SaveCursor surfaces it as a deferred error, the failures are counted,
// and Close reports the final one.
func TestCursorAutoSaveErrorDeferred(t *testing.T) {
	dir := t.TempDir()
	cursorPath := filepath.Join(dir, "cursor")
	if err := os.Mkdir(cursorPath, 0o755); err != nil { // every open/write fails
		t.Fatal(err)
	}
	opts := core.Options{MaxIterations: 3}
	db, err := workload.Synthetic(workload.SyntheticConfig{N: 10, Samples: 4, MaxExtent: 0.1, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	s, err := query.NewStore(db, opts)
	if err != nil {
		t.Fatal(err)
	}

	mon := NewMonitor(s, Options{Buffer: 256, CursorPath: cursorPath, CursorEvery: 1})
	// Durable subscribes are rejected up front on an unusable cursor.
	q := uncertain.PointObject(-1, geom.Point{0.5, 0.5})
	if _, err := mon.SubscribeKNNDurable("alpha", q, 3, 0.25); err == nil {
		t.Fatal("durable subscribe accepted with an unreadable cursor")
	}
	sub, err := mon.SubscribeKNN(q, 3, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	drain(sub, cursorSet{})

	// One processed change trips a failing auto-save.
	o := uncertain.PointObject(900, geom.Point{0.5, 0.52})
	if err := s.Insert(o); err != nil {
		t.Fatal(err)
	}
	if err := mon.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	// SaveCursor queues behind the change on the worker, so by the time
	// it returns the auto-save has run — and its failure must come back
	// here, not vanish.
	err = mon.SaveCursor()
	if err == nil {
		t.Fatal("deferred auto-save failure not surfaced by SaveCursor")
	}
	if !strings.Contains(err.Error(), "deferred cursor auto-save") {
		t.Fatalf("error %q does not identify the deferred auto-save", err)
	}
	if st := mon.Stats(); st.CursorSaveFailures < 2 {
		t.Fatalf("CursorSaveFailures = %d after a failed auto-save and a failed explicit save", st.CursorSaveFailures)
	}
	// Close runs a final save, which still fails — the caller must hear
	// about it instead of getting a clean shutdown.
	if err := mon.Close(); err == nil {
		t.Fatal("Close reported success while the cursor was never saved")
	}
}

// TestCursorSelfHeal: a cursor file that would not open is replaced by
// the first save with a fresh log, later saves append to that log, and
// the next monitor on the path accepts durable subscriptions again.
func TestCursorSelfHeal(t *testing.T) {
	cursorPath := filepath.Join(t.TempDir(), "cursor")
	if err := os.WriteFile(cursorPath, []byte("not a cursor at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	db, _ := workload.Synthetic(workload.SyntheticConfig{N: 10, Samples: 4, MaxExtent: 0.1, Seed: 26})
	s, _ := query.NewStore(db, core.Options{MaxIterations: 3})
	q := uncertain.PointObject(-1, geom.Point{0.5, 0.5})

	mon := NewMonitor(s, Options{Buffer: 256, CursorPath: cursorPath})
	if _, err := mon.SubscribeKNNDurable("alpha", q, 3, 0.25); err == nil {
		t.Fatal("durable subscribe accepted with an unreadable cursor")
	}
	for i := 0; i < 2; i++ { // the healing base, then a delta on its log
		if err := mon.SaveCursor(); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	if mon.Stats().CursorDeltaBytes == 0 {
		t.Fatal("the save after the heal did not append to the new log")
	}
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	mon2 := NewMonitor(s, Options{Buffer: 256, CursorPath: cursorPath})
	defer mon2.Close()
	sub, err := mon2.SubscribeKNNDurable("alpha", q, 3, 0.25)
	if err != nil {
		t.Fatalf("durable subscribe on the healed cursor: %v", err)
	}
	drain(sub, cursorSet{})
}
