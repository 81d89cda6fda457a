package cq

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/query"
	"probprune/internal/uncertain"
	"probprune/internal/workload"
)

// bg is the context of every query a test does not cancel.
var bg = context.Background()

// must returns a query's result and panics on its error: the queries
// the tests issue through it are well-formed, so an error is a failure.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func testDB(t *testing.T, n int, seed int64) uncertain.Database {
	t.Helper()
	db, err := workload.Synthetic(workload.SyntheticConfig{N: n, Samples: 4, MaxExtent: 0.02, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func newTestStore(t *testing.T, db uncertain.Database, opts core.Options) *query.Store {
	t.Helper()
	s, err := query.NewStore(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// objectNear builds a small uncertain object around (cx, cy).
func objectNear(rng *rand.Rand, id int, cx, cy, ext float64) *uncertain.Object {
	pts := make([]geom.Point, 4)
	for i := range pts {
		pts[i] = geom.Point{cx + rng.Float64()*ext, cy + rng.Float64()*ext}
	}
	o, err := uncertain.NewObject(id, pts)
	if err != nil {
		panic(err)
	}
	return o
}

// drainEvents empties a subscription's buffer without blocking.
func drainEvents(s *Subscription) []Event {
	var out []Event
	for {
		select {
		case ev, ok := <-s.Events():
			if !ok {
				return out
			}
			out = append(out, ev)
		default:
			return out
		}
	}
}

// TestInitialResultMatchesQuery checks that the initial event burst is
// exactly the standing query's current result set.
func TestInitialResultMatchesQuery(t *testing.T) {
	db := testDB(t, 60, 3)
	opts := core.Options{MaxIterations: 3}
	store := newTestStore(t, db, opts)
	m := NewMonitor(store, Options{Buffer: 1024})
	defer m.Close()

	rng := rand.New(rand.NewSource(9))
	q := objectNear(rng, -1, 0.4, 0.4, 0.05)
	sub, err := m.SubscribeKNN(q, 4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int]query.Match)
	for _, mt := range store.KNN(q, 4, 0.3) {
		if mt.IsResult {
			want[mt.Object.ID] = mt
		}
	}
	evs := drainEvents(sub)
	if len(evs) != len(want) {
		t.Fatalf("got %d initial events, want %d", len(evs), len(want))
	}
	lastID := -1 << 30
	for _, ev := range evs {
		if ev.Kind != ObjectEntered {
			t.Fatalf("initial event kind %v, want ObjectEntered", ev.Kind)
		}
		if ev.Version != store.Version() {
			t.Fatalf("initial event version %d, want %d", ev.Version, store.Version())
		}
		if ev.Object.ID <= lastID {
			t.Fatalf("events not in ascending ID order: %d after %d", ev.Object.ID, lastID)
		}
		lastID = ev.Object.ID
		w, ok := want[ev.Object.ID]
		if !ok {
			t.Fatalf("event for non-result object %d", ev.Object.ID)
		}
		if ev.Match.Prob != w.Prob || !ev.Match.IsResult {
			t.Fatalf("object %d: event match %+v, want %+v", ev.Object.ID, ev.Match, w)
		}
	}
}

// TestMutationEvents drives the three change kinds through a standing
// KNN subscription and checks the emitted transitions.
func TestMutationEvents(t *testing.T) {
	ctx := testCtx(t)
	db := testDB(t, 80, 5)
	opts := core.Options{MaxIterations: 3}
	store := newTestStore(t, db, opts)
	m := NewMonitor(store, Options{Buffer: 4096})
	defer m.Close()

	rng := rand.New(rand.NewSource(11))
	q := objectNear(rng, -1, 0.5, 0.5, 0.02)
	sub, err := m.SubscribeKNN(q, 3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	drainEvents(sub)

	// Insert an object right on top of the query: it must enter.
	hot := objectNear(rng, 9000, 0.5, 0.5, 0.001)
	if err := store.Insert(hot); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	evs := drainEvents(sub)
	if !hasEvent(evs, ObjectEntered, 9000) {
		t.Fatalf("no ObjectEntered for inserted object; events: %v", kinds(evs))
	}

	// Move it far away: it must leave.
	cold := objectNear(rng, 9000, 0.05, 0.95, 0.001)
	if err := store.Update(cold); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	evs = drainEvents(sub)
	if !hasEvent(evs, ObjectLeft, 9000) {
		t.Fatalf("no ObjectLeft after moving object away; events: %v", kinds(evs))
	}

	// Re-insert near, then delete: enter + leave.
	if err := store.Update(objectNear(rng, 9000, 0.5, 0.5, 0.001)); err != nil {
		t.Fatal(err)
	}
	if ok, err := store.Delete(9000); err != nil || !ok {
		t.Fatal("delete failed")
	}
	if err := m.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	evs = drainEvents(sub)
	if !hasEvent(evs, ObjectEntered, 9000) || !hasEvent(evs, ObjectLeft, 9000) {
		t.Fatalf("expected enter+leave for update+delete; events: %v", kinds(evs))
	}
	for _, ev := range evs {
		if ev.Kind == ObjectLeft && ev.Object.ID == 9000 && ev.Match.IsResult {
			t.Fatal("delete-left event carries a result match")
		}
	}
}

func hasEvent(evs []Event, kind EventKind, id int) bool {
	for _, ev := range evs {
		if ev.Kind == kind && ev.Object.ID == id {
			return true
		}
	}
	return false
}

func kinds(evs []Event) []string {
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = ev.Kind.String()
	}
	return out
}

// TestRegionWakeFiltering places two standing queries in opposite
// corners and checks that a mutation near one never wakes the other —
// the acceptance criterion that only subscriptions whose influence
// region the object intersects re-evaluate.
func TestRegionWakeFiltering(t *testing.T) {
	ctx := testCtx(t)
	rng := rand.New(rand.NewSource(17))
	var db uncertain.Database
	for i := 0; i < 60; i++ {
		db = append(db, objectNear(rng, i, 0.15+0.08*rng.Float64(), 0.15+0.08*rng.Float64(), 0.01))
	}
	for i := 60; i < 120; i++ {
		db = append(db, objectNear(rng, i, 0.75+0.08*rng.Float64(), 0.75+0.08*rng.Float64(), 0.01))
	}
	store := newTestStore(t, db, core.Options{MaxIterations: 3})
	m := NewMonitor(store, Options{Buffer: 4096})
	defer m.Close()

	q1 := objectNear(rng, -1, 0.18, 0.18, 0.01)
	q2 := objectNear(rng, -2, 0.78, 0.78, 0.01)
	subA, err := m.SubscribeKNN(q1, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	subB, err := m.SubscribeKNN(q2, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	drainEvents(subA)
	drainEvents(subB)

	// Mutate inside B's cluster only.
	if err := store.Insert(objectNear(rng, 500, 0.78, 0.78, 0.01)); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if w := subA.Stats().Woken; w != 0 {
		t.Fatalf("far subscription woke %d times, want 0", w)
	}
	if w := subB.Stats().Woken; w != 1 {
		t.Fatalf("near subscription woke %d times, want 1", w)
	}
	if w := m.Stats().Woken; w != 1 {
		t.Fatalf("monitor woke %d subscriptions, want 1", w)
	}
	// And the near subscription's state is still exact.
	checkAgainstStore(t, store, subB, q2)
}

// checkAgainstStore drains a subscription and only verifies monitor
// bookkeeping stayed consistent with a from-scratch query (full
// bit-equivalence is the oracle test's job).
func checkAgainstStore(t *testing.T, store *query.Store, sub *Subscription, q *uncertain.Object) {
	t.Helper()
	want := 0
	for _, mt := range store.KNN(q, sub.K(), sub.Tau()) {
		if mt.IsResult {
			want++
		}
	}
	inSet := make(map[int]bool)
	for _, ev := range drainEvents(sub) {
		switch ev.Kind {
		case ObjectEntered:
			inSet[ev.Object.ID] = true
		case ObjectLeft:
			delete(inSet, ev.Object.ID)
		}
	}
	// The subscription's own candidate map must agree on result count.
	got := 0
	for _, cs := range sub.cands {
		if cs.match.IsResult {
			got++
		}
	}
	if got != want {
		t.Fatalf("subscription tracks %d results, from-scratch query has %d", got, want)
	}
}

// TestIncrementalRunSavings is the incrementality acceptance criterion:
// on a stable 1k-object database, maintaining standing queries across
// single-object mutations must execute at least 5x fewer IDCA candidate
// runs than re-running each query per mutation would.
func TestIncrementalRunSavings(t *testing.T) {
	ctx := testCtx(t)
	db := testDB(t, 1000, 21)
	opts := core.Options{MaxIterations: 2}
	store := newTestStore(t, db, opts)
	m := NewMonitor(store, Options{Buffer: 1 << 15, Policy: DropOldest})
	defer m.Close()

	rng := rand.New(rand.NewSource(23))
	const nSubs, k = 8, 5
	const tau = 0.3
	queries := make([]*uncertain.Object, nSubs)
	for i := range queries {
		queries[i] = objectNear(rng, -(i + 1), rng.Float64(), rng.Float64(), 0.02)
		if _, err := m.SubscribeKNN(queries[i], k, tau); err != nil {
			t.Fatal(err)
		}
	}
	if m.Stats().Runs != 0 {
		t.Fatalf("maintenance runs before any mutation: %d", m.Stats().Runs)
	}

	const steps = 40
	var requeryRuns uint64
	for step := 0; step < steps; step++ {
		victim := db[rng.Intn(len(db))].ID
		if err := store.Update(objectNear(rng, victim, rng.Float64(), rng.Float64(), 0.02)); err != nil {
			t.Fatal(err)
		}
		if err := m.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		// What re-running every standing query at this version would
		// cost: one IDCA run per non-preselected candidate.
		e := store.Snapshot()
		for _, q := range queries {
			thresh := e.KNNThreshold(q, k)
			for _, b := range e.Database() {
				if b != q && !e.KNNPrunable(q, b, thresh) {
					requeryRuns++
				}
			}
		}
	}
	maintRuns := m.Stats().Runs
	t.Logf("maintenance: %d IDCA runs, re-query baseline: %d (%.1fx)",
		maintRuns, requeryRuns, float64(requeryRuns)/float64(maintRuns+1))
	if requeryRuns < 5*maintRuns {
		t.Fatalf("maintenance used %d runs, re-querying would use %d — less than the required 5x saving", maintRuns, requeryRuns)
	}
	if woken := m.Stats().Woken; woken >= steps*nSubs {
		t.Fatalf("every mutation woke every subscription (%d wakes) — region filtering is not working", woken)
	}
}

// TestSlowConsumerDisconnect: with the default policy, overflowing the
// buffer ends the subscription with ErrSlowConsumer — reported as a
// subscribe error when the INITIAL result set alone cannot fit (the
// consumer has no chance to drain before subscribe returns).
func TestSlowConsumerDisconnect(t *testing.T) {
	ctx := testCtx(t)
	db := testDB(t, 40, 31)
	store := newTestStore(t, db, core.Options{MaxIterations: 2})
	m := NewMonitor(store, Options{Buffer: 2})
	defer m.Close()

	// tau = 0 makes every candidate a result: the initial burst alone
	// overflows the 2-slot buffer, and subscribe must say so.
	rng := rand.New(rand.NewSource(1))
	// A (near-)point query: objects approaching it along one axis are
	// strictly closer in every possible world.
	q := objectNear(rng, -1, 0.5, 0.5, 0.0001)
	if _, err := m.SubscribeKNN(q, 3, 0); !errors.Is(err, ErrSlowConsumer) {
		t.Fatalf("oversized initial result subscribed with err = %v, want ErrSlowConsumer", err)
	}
	if m.NumSubscriptions() != 0 {
		t.Fatalf("%d live subscriptions, want 0", m.NumSubscriptions())
	}

	// A subscription whose initial result fits but whose consumer stops
	// draining is disconnected at event time.
	sub, err := m.SubscribeKNN(q, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Each insert is strictly closer to the query than everything before
	// it: the new object enters as the certain 1-NN and the previous one
	// leaves — two events per insert, quickly overflowing the buffer.
	d := 0.1
	for i := 0; i < 8; i++ {
		if err := store.Insert(objectNear(rng, 800+i, 0.5+d, 0.5, 0.0002)); err != nil {
			t.Fatal(err)
		}
		d *= 0.5
	}
	if err := m.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	for range sub.Events() {
	}
	if !errors.Is(sub.Err(), ErrSlowConsumer) {
		t.Fatalf("sub.Err() = %v, want ErrSlowConsumer", sub.Err())
	}
	if m.Stats().Dropped != 2 {
		t.Fatalf("monitor dropped %d subs, want 2", m.Stats().Dropped)
	}
	if m.NumSubscriptions() != 0 {
		t.Fatalf("%d live subscriptions, want 0", m.NumSubscriptions())
	}
}

// TestSlowConsumerDropOldest: the shedding policy keeps the
// subscription alive and counts the lost events.
func TestSlowConsumerDropOldest(t *testing.T) {
	db := testDB(t, 40, 37)
	store := newTestStore(t, db, core.Options{MaxIterations: 2})
	m := NewMonitor(store, Options{Buffer: 2, Policy: DropOldest})
	defer m.Close()

	q := objectNear(rand.New(rand.NewSource(2)), -1, 0.5, 0.5, 0.02)
	sub, err := m.SubscribeKNN(q, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Err() != nil {
		t.Fatalf("subscription ended: %v", sub.Err())
	}
	evs := drainEvents(sub)
	if len(evs) != 2 {
		t.Fatalf("buffer delivered %d events, want 2", len(evs))
	}
	st := sub.Stats()
	if st.Lost == 0 || st.Events-st.Lost != 2 {
		t.Fatalf("stats %+v: want Lost > 0 and Events-Lost == 2", st)
	}
	// The two survivors must be the NEWEST events (oldest shed first).
	all := 0
	for _, mt := range store.KNN(q, 3, 0) {
		if mt.IsResult {
			all++
		}
	}
	if int(st.Events) != all {
		t.Fatalf("emitted %d events, want %d (every result entered)", st.Events, all)
	}
	sub.Cancel()
	if !errors.Is(sub.Err(), ErrUnsubscribed) {
		t.Fatalf("after Cancel, Err = %v", sub.Err())
	}
}

// TestLifecycle exercises Cancel, Close and post-Close behavior.
func TestLifecycle(t *testing.T) {
	ctx := testCtx(t)
	db := testDB(t, 30, 41)
	store := newTestStore(t, db, core.Options{MaxIterations: 2})
	m := NewMonitor(store, Options{})

	q := objectNear(rand.New(rand.NewSource(3)), -1, 0.5, 0.5, 0.02)
	sub, err := m.SubscribeKNN(q, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumSubscriptions() != 1 {
		t.Fatalf("%d subscriptions, want 1", m.NumSubscriptions())
	}
	sub.Cancel()
	sub.Cancel() // idempotent
	if _, ok := <-sub.Events(); ok {
		// Initial events may still be buffered; drain to close.
		drainEvents(sub)
	}
	if !errors.Is(sub.Err(), ErrUnsubscribed) {
		t.Fatalf("Err = %v, want ErrUnsubscribed", sub.Err())
	}

	sub2, err := m.SubscribeRKNN(q, 2, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Insert(objectNear(rand.New(rand.NewSource(4)), 700, 0.5, 0.5, 0.01)); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	drainEvents(sub2)
	if !errors.Is(sub2.Err(), ErrMonitorClosed) {
		t.Fatalf("after Close, Err = %v, want ErrMonitorClosed", sub2.Err())
	}
	if _, err := m.SubscribeKNN(q, 2, 0.5); !errors.Is(err, ErrMonitorClosed) {
		t.Fatalf("Subscribe after Close = %v, want ErrMonitorClosed", err)
	}
	// Mutations after Close are not observed and do not block.
	if err := store.Insert(objectNear(rand.New(rand.NewSource(5)), 701, 0.1, 0.1, 0.01)); err != nil {
		t.Fatal(err)
	}

	// Validation errors.
	m2 := NewMonitor(store, Options{})
	defer m2.Close()
	if _, err := m2.SubscribeKNN(nil, 2, 0.5); err == nil {
		t.Fatal("nil query accepted")
	}
	if _, err := m2.SubscribeKNN(q, 0, 0.5); err == nil {
		t.Fatal("k = 0 accepted")
	}
	if _, err := m2.SubscribeKNN(q, 2, 1.5); err == nil {
		t.Fatal("tau = 1.5 accepted")
	}
}

// TestConcurrentMutationsAndConsumers runs writers, consumers and
// subscribe/cancel churn together; with -race this is the concurrency
// safety net.
func TestConcurrentMutationsAndConsumers(t *testing.T) {
	ctx := testCtx(t)
	db := testDB(t, 120, 47)
	store := newTestStore(t, db, core.Options{MaxIterations: 2})
	m := NewMonitor(store, Options{Buffer: 4096, Policy: DropOldest})

	stopConsume := make(chan struct{})
	consumerDone := make(chan struct{})
	rng := rand.New(rand.NewSource(51))
	subs := make([]*Subscription, 4)
	for i := range subs {
		var err error
		subs[i], err = m.SubscribeKNN(objectNear(rng, -(i+1), rng.Float64(), rng.Float64(), 0.02), 3, 0.3)
		if err != nil {
			t.Fatal(err)
		}
	}
	go func() {
		defer close(consumerDone)
		for {
			for _, s := range subs {
				drainEvents(s)
			}
			select {
			case <-stopConsume:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	nextID := 10_000
	for i := 0; i < 150; i++ {
		switch rng.Intn(3) {
		case 0:
			if err := store.Insert(objectNear(rng, nextID, rng.Float64(), rng.Float64(), 0.02)); err != nil {
				t.Fatal(err)
			}
			nextID++
		case 1:
			snap := store.Snapshot().Database()
			o := snap[rng.Intn(len(snap))]
			if err := store.Update(objectNear(rng, o.ID, rng.Float64(), rng.Float64(), 0.02)); err != nil {
				t.Fatal(err)
			}
		default:
			snap := store.Snapshot().Database()
			if _, err := store.Delete(snap[rng.Intn(len(snap))].ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	subs[0].Cancel()
	close(stopConsume)
	<-consumerDone
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Changes; got != 150 {
		t.Fatalf("processed %d changes, want 150", got)
	}
}
