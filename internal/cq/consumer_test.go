package cq

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/uncertain"
)

// recorder is a Consumer that keeps every batch it accepts and refuses
// once its budget of events is spent.
type recorder struct {
	mu      sync.Mutex
	budget  int
	batches [][]Event
	ends    []error
}

var errBudget = errors.New("recorder: budget spent")

func (r *recorder) Deliver(evs []Event) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(evs) > r.budget {
		return errBudget
	}
	r.budget -= len(evs)
	r.batches = append(r.batches, evs)
	return nil
}

func (r *recorder) End(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ends = append(r.ends, err)
}

func (r *recorder) events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	for _, b := range r.batches {
		out = append(out, b...)
	}
	return out
}

// TestConsumerMatchesChannel: a Consumer receives exactly the stream
// the Events channel carries for the same predicate — the initial set
// in the first Deliver, then one call per changed version — and ends
// once, with the error Err reports. A refused batch ends the
// subscription, counted in Dropped; a refused initial set fails the
// subscribe and leaves nothing behind.
func TestConsumerMatchesChannel(t *testing.T) {
	ctx := testCtx(t)
	db := testDB(t, 60, 21)
	store := newTestStore(t, db, core.Options{MaxIterations: 3})
	m := NewMonitor(store, Options{Buffer: 1024})
	defer m.Close()
	rng := rand.New(rand.NewSource(22))
	q := objectNear(rng, -1, 0.5, 0.5, 0.05)

	ch, err := m.SubscribeKNN(q, 3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{budget: 1 << 20}
	sub, err := m.SubscribeTo(rec, "", KNN, q, 3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Events() != nil {
		t.Fatal("a Consumer subscription has an Events channel")
	}
	if len(rec.batches) != 1 {
		t.Fatalf("subscribe returned after %d Deliver calls, want the initial one", len(rec.batches))
	}
	for i := 0; i < 30; i++ {
		o := objectNear(rng, 500+i, 0.45+rng.Float64()*0.1, 0.45+rng.Float64()*0.1, 0.02)
		if err := store.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	want, got := drainEvents(ch), rec.events()
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("Consumer stream (%d events) differs from the channel's (%d)", len(got), len(want))
	}
	for _, b := range rec.batches[1:] {
		if len(b) == 0 || b[0].Version != b[len(b)-1].Version {
			t.Fatalf("a Deliver call carried %d events over several versions or none", len(b))
		}
	}
	if st := sub.Stats(); st.Events != uint64(len(got)) {
		t.Fatalf("subscription counted %d events, consumer took %d", st.Events, len(got))
	}

	// A refused batch ends the subscription with the consumer's error.
	rec.mu.Lock()
	rec.budget = 0
	rec.mu.Unlock()
	dropped := m.Stats().Dropped
	for i := 0; i < 10 && sub.Err() == nil; i++ {
		if err := store.Insert(objectNear(rng, 700+i, 0.5, 0.5, 0.001)); err != nil {
			t.Fatal(err)
		}
		if err := m.Sync(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if !errors.Is(sub.Err(), errBudget) || m.Stats().Dropped != dropped+1 {
		t.Fatalf("after a refused batch: Err %v, Dropped %d -> %d", sub.Err(), dropped, m.Stats().Dropped)
	}
	if len(rec.ends) != 1 || !errors.Is(rec.ends[0], errBudget) {
		t.Fatalf("End calls %v, want one with the refusal", rec.ends)
	}

	// A refused initial set fails the subscribe.
	subs := m.NumSubscriptions()
	small := &recorder{budget: 0}
	if _, err := m.SubscribeTo(small, "", KNN, q, 3, 0.3); !errors.Is(err, errBudget) {
		t.Fatalf("subscribe with a refused initial set: %v", err)
	}
	if m.NumSubscriptions() != subs || len(small.ends) != 1 {
		t.Fatalf("refused subscribe left %d subscriptions (was %d), %d End calls", m.NumSubscriptions(), subs, len(small.ends))
	}
	ch.Cancel()
}

// TestSubscribeRefusesOtherDimension: a query object of another
// dimension than the store's is refused at subscribe; one admitted
// while the store was empty ends, with an error, when the first object
// arrives in another dimension — maintenance never evaluates across
// dimensions.
func TestSubscribeRefusesOtherDimension(t *testing.T) {
	ctx := testCtx(t)
	flat, err := uncertain.NewObject(-1, []geom.Point{{0.5, 0.5, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	store := newTestStore(t, testDB(t, 30, 23), core.Options{MaxIterations: 2})
	m := NewMonitor(store, Options{})
	defer m.Close()
	if _, err := m.SubscribeKNN(flat, 2, 0.5); err == nil {
		t.Fatal("a 3-D subscription on a 2-D store was accepted")
	}
	if _, err := m.SubscribeRKNN(flat, 2, 0.5); err == nil {
		t.Fatal("a 3-D RKNN subscription on a 2-D store was accepted")
	}

	empty := newTestStore(t, nil, core.Options{MaxIterations: 2})
	me := NewMonitor(empty, Options{})
	defer me.Close()
	sub, err := me.SubscribeKNN(flat, 2, 0.5)
	if err != nil {
		t.Fatalf("subscribe on an empty store: %v", err)
	}
	if err := empty.Insert(objectNear(rand.New(rand.NewSource(24)), 1, 0.5, 0.5, 0.01)); err != nil {
		t.Fatal(err)
	}
	if err := me.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	drainEvents(sub)
	if sub.Err() == nil || me.NumSubscriptions() != 0 {
		t.Fatalf("the 3-D subscription survived a 2-D first object: Err %v, %d live", sub.Err(), me.NumSubscriptions())
	}
}
