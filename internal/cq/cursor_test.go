package cq

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/gf"
	"probprune/internal/query"
	"probprune/internal/uncertain"
	"probprune/internal/workload"
)

// cursorSet is a consumer's materialized view of a subscription: the
// cumulative application of its event stream.
type cursorSet map[int]gf.Interval

func (r cursorSet) apply(ev Event) {
	switch ev.Kind {
	case ObjectEntered, BoundsChanged:
		r[ev.Object.ID] = ev.Match.Prob
	case ObjectLeft:
		delete(r, ev.Object.ID)
	}
}

func (r cursorSet) clone() cursorSet {
	c := make(cursorSet, len(r))
	for k, v := range r {
		c[k] = v
	}
	return c
}

func (r cursorSet) equal(o cursorSet) bool {
	if len(r) != len(o) {
		return false
	}
	for k, v := range r {
		if o[k] != v {
			return false
		}
	}
	return true
}

// drain applies every buffered event (the worker is idle after Sync,
// so the buffer is complete for the processed prefix) and returns them.
func drain(s *Subscription, r cursorSet) []Event {
	var evs []Event
	for {
		select {
		case ev := <-s.Events():
			r.apply(ev)
			evs = append(evs, ev)
		default:
			return evs
		}
	}
}

// mutStore is the mutation surface of a Store.
type mutStore interface {
	Insert(*uncertain.Object) error
	Update(*uncertain.Object) error
	Delete(int) (bool, error)
}

// deleteStored deletes id from s; an ID that was not stored is an error.
func deleteStored(s mutStore, id int) error {
	found, err := s.Delete(id)
	if err == nil && !found {
		err = fmt.Errorf("delete of %d found nothing", id)
	}
	return err
}

// cursorTrace builds a deterministic mutation batch around the unit
// square center so the standing queries keep churning.
func cursorTrace(t *testing.T, rng *rand.Rand, n, idBase int) []func(mutStore) error {
	t.Helper()
	obj := func(id int) *uncertain.Object {
		cx, cy := 0.3+0.4*rng.Float64(), 0.3+0.4*rng.Float64()
		pts := make([]geom.Point, 3)
		for i := range pts {
			pts[i] = geom.Point{cx + rng.Float64()*0.05, cy + rng.Float64()*0.05}
		}
		o, err := uncertain.NewObject(id, pts)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	var ops []func(mutStore) error
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			o := obj(idBase + i)
			ops = append(ops, func(s mutStore) error { return s.Insert(o) })
		case 1:
			o := obj(i % 8)
			ops = append(ops, func(s mutStore) error { return s.Update(o) })
		default:
			id := idBase + i - 2
			ops = append(ops, func(s mutStore) error { return deleteStored(s, id) })
		}
	}
	return ops
}

// TestDurableCursorResume is the acceptance test of the durable
// cursor: a monitor saves its cursor at version V, the store keeps
// committing (journaled) to version H, then the process "dies". A new
// monitor over the recovered store, resuming the same named
// subscription, must emit exactly the events after the cursor — the
// minimal coalesced delta turning the result set at V into the one at
// H — and stream bit-identically to a fresh monitor from then on.
func TestDurableCursorResume(t *testing.T) {
	for _, shards := range []int{0, 2} {
		shards := shards
		name := "store"
		if shards > 0 {
			name = fmt.Sprintf("sharded-%d", shards)
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cursorPath := filepath.Join(dir, "cursor")
			opts := core.Options{MaxIterations: 3}
			popts := query.PersistOptions{Dir: filepath.Join(dir, "db")}
			db, err := workload.Synthetic(workload.SyntheticConfig{N: 14, Samples: 4, MaxExtent: 0.1, Seed: 21})
			if err != nil {
				t.Fatal(err)
			}

			var store *query.Store
			var closeStore func() error
			if shards > 0 {
				s, err := query.BootstrapShardedStore(db, popts, query.ShardedOptions{Shards: shards}, opts)
				if err != nil {
					t.Fatal(err)
				}
				store, closeStore = s, s.Close
			} else {
				s, err := query.BootstrapStore(db, popts, opts)
				if err != nil {
					t.Fatal(err)
				}
				store, closeStore = s, s.Close
			}

			mon := NewMonitor(store, Options{Buffer: 1 << 10, CursorPath: cursorPath})
			q := uncertain.PointObject(-1, geom.Point{0.5, 0.5})
			sub, err := mon.SubscribeKNNDurable("alpha", q, 3, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			set := cursorSet{}
			drain(sub, set)

			rng := rand.New(rand.NewSource(5))
			ctx := context.Background()
			for _, op := range cursorTrace(t, rng, 6, 1000) {
				if err := op(store); err != nil {
					t.Fatal(err)
				}
			}
			if err := mon.Sync(ctx); err != nil {
				t.Fatal(err)
			}
			drain(sub, set)
			if err := mon.SaveCursor(); err != nil {
				t.Fatal(err)
			}
			atCursor := set.clone() // the consumer's view at the cursor

			// The store keeps committing past the cursor; the monitor
			// delivers (so we know the true head set) but never saves
			// again — these events are exactly what a resume must replay.
			for _, op := range cursorTrace(t, rng, 7, 2000) {
				if err := op(store); err != nil {
					t.Fatal(err)
				}
			}
			if err := mon.Sync(ctx); err != nil {
				t.Fatal(err)
			}
			drain(sub, set)
			atHead := set.clone()
			headVersion := store.Version()

			// "Crash": abandon the monitor without Close (Close would
			// advance the cursor) and drop the store.
			mon.stopWatch()
			if err := closeStore(); err != nil {
				t.Fatal(err)
			}

			var reopened *query.Store
			if shards > 0 {
				s, err := query.OpenShardedStore(popts, query.ShardedOptions{Shards: shards}, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				reopened = s
			} else {
				s, err := query.OpenStore(popts, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				reopened = s
			}
			if reopened.Version() != headVersion {
				t.Fatalf("recovered store at version %d, want %d", reopened.Version(), headVersion)
			}

			mon2 := NewMonitor(reopened, Options{Buffer: 1 << 10, CursorPath: cursorPath})
			defer mon2.Close()
			sub2, err := mon2.SubscribeKNNDurable("alpha", q, 3, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			resumed := atCursor.clone()
			evs := drain(sub2, resumed)
			if !resumed.equal(atHead) {
				t.Fatalf("resume delta does not reach the head set:\n cursor %v\n resume -> %v\n head   %v", atCursor, resumed, atHead)
			}
			// Exactly the events after the cursor: one per changed
			// object, none for unchanged ones, all at the head version.
			seen := map[int]bool{}
			for _, ev := range evs {
				if seen[ev.Object.ID] {
					t.Fatalf("object %d got two resume events", ev.Object.ID)
				}
				seen[ev.Object.ID] = true
				if ev.Version != headVersion {
					t.Fatalf("resume event at version %d, want head %d", ev.Version, headVersion)
				}
				if atCursor[ev.Object.ID] == atHead[ev.Object.ID] {
					t.Fatalf("object %d got a resume event but did not change", ev.Object.ID)
				}
			}
			changed := 0
			for id, iv := range atHead {
				if atCursor[id] != iv {
					changed++
				}
			}
			for id := range atCursor {
				if _, ok := atHead[id]; !ok {
					changed++
				}
			}
			if len(evs) != changed {
				t.Fatalf("resume emitted %d events for %d changes", len(evs), changed)
			}

			// From here on the resumed stream must stay exact: keep
			// mutating and check the cumulative view against a
			// from-scratch query on the final state.
			for _, op := range cursorTrace(t, rng, 5, 3000) {
				if err := op(reopened); err != nil {
					t.Fatal(err)
				}
			}
			if err := mon2.Sync(ctx); err != nil {
				t.Fatal(err)
			}
			drain(sub2, resumed)

			// Oracle: re-run the query on the final state.
			final := cursorSet{}
			for _, m := range reopened.Snapshot().Engine().KNN(q, 3, 0.25) {
				if m.IsResult {
					final[m.Object.ID] = m.Prob
				}
			}
			if !resumed.equal(final) {
				t.Fatalf("post-resume stream diverged from a from-scratch query:\n stream %v\n oracle %v", resumed, final)
			}
		})
	}
}

// TestCursorResumeNoGap: a cursor saved at the head resumes silently —
// zero events, not a replayed result set.
func TestCursorResumeNoGap(t *testing.T) {
	dir := t.TempDir()
	cursorPath := filepath.Join(dir, "cursor")
	opts := core.Options{MaxIterations: 3}
	popts := query.PersistOptions{Dir: filepath.Join(dir, "db")}
	db, err := workload.Synthetic(workload.SyntheticConfig{N: 12, Samples: 4, MaxExtent: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := query.BootstrapStore(db, popts, opts)
	if err != nil {
		t.Fatal(err)
	}
	mon := NewMonitor(s, Options{CursorPath: cursorPath})
	q := uncertain.PointObject(-1, geom.Point{0.5, 0.5})
	sub, err := mon.SubscribeKNNDurable("alpha", q, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	set := cursorSet{}
	initial := drain(sub, set)
	if len(initial) == 0 {
		t.Fatal("empty initial result set makes this test vacuous")
	}
	if err := mon.Close(); err != nil { // Close saves the cursor at head
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := query.OpenStore(popts, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	mon2 := NewMonitor(reopened, Options{CursorPath: cursorPath})
	defer mon2.Close()
	sub2, err := mon2.SubscribeKNNDurable("alpha", q, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if evs := drain(sub2, cursorSet{}); len(evs) != 0 {
		t.Fatalf("no-gap resume emitted %d events", len(evs))
	}
}

// TestCursorMismatch: resuming a name under a different predicate is an
// error, and durable names must be unique among live subscriptions.
func TestCursorMismatch(t *testing.T) {
	dir := t.TempDir()
	cursorPath := filepath.Join(dir, "cursor")
	db, err := workload.Synthetic(workload.SyntheticConfig{N: 8, Samples: 4, MaxExtent: 0.1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := query.NewStore(db, core.Options{MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	mon := NewMonitor(s, Options{CursorPath: cursorPath})
	q := uncertain.PointObject(-1, geom.Point{0.5, 0.5})
	if _, err := mon.SubscribeKNNDurable("alpha", q, 2, 0.3); err != nil {
		t.Fatal(err)
	}
	if _, err := mon.SubscribeKNNDurable("alpha", q, 2, 0.3); err == nil {
		t.Fatal("duplicate durable name accepted")
	}
	if _, err := mon.SubscribeKNNDurable("", q, 2, 0.3); err == nil {
		t.Fatal("empty durable name accepted")
	}
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}

	mon2 := NewMonitor(s, Options{CursorPath: cursorPath})
	defer mon2.Close()
	if _, err := mon2.SubscribeKNNDurable("alpha", q, 3, 0.3); err != ErrCursorMismatch {
		t.Fatalf("k mismatch resumed with err = %v, want ErrCursorMismatch", err)
	}
	if _, err := mon2.SubscribeRKNNDurable("alpha", q, 2, 0.3); err != ErrCursorMismatch {
		t.Fatalf("kind mismatch resumed with err = %v, want ErrCursorMismatch", err)
	}
	q2 := uncertain.PointObject(-1, geom.Point{0.1, 0.9})
	if _, err := mon2.SubscribeKNNDurable("alpha", q2, 2, 0.3); err != ErrCursorMismatch {
		t.Fatalf("query-object mismatch resumed with err = %v, want ErrCursorMismatch", err)
	}
	if _, err := mon2.SubscribeKNNDurable("alpha", q, 2, 0.3); err != nil {
		t.Fatalf("exact resume failed: %v", err)
	}

	mon3 := NewMonitor(s, Options{})
	defer mon3.Close()
	if _, err := mon3.SubscribeKNNDurable("alpha", q, 2, 0.3); err == nil {
		t.Fatal("durable subscribe without CursorPath accepted")
	}
}
