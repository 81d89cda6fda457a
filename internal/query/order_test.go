package query_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"probprune/internal/core"
	"probprune/internal/cq"
	"probprune/internal/geom"
	"probprune/internal/query"
	"probprune/internal/uncertain"
	"probprune/internal/workload"
)

// initialSet is a cq.Consumer that keeps the first delivery: the
// subscription's initial result set.
type initialSet struct{ evs []cq.Event }

func (c *initialSet) Deliver(evs []cq.Event) error {
	if c.evs == nil {
		c.evs = append([]cq.Event{}, evs...)
	}
	return nil
}

func (c *initialSet) End(error) {}

// orderAnswers is everything a store answers in ascending ID order.
type orderAnswers struct {
	db        []int
	knn, rknn []query.Match
	batch     [][]query.Match
	cqKNN     []cq.Event
	cqRKNN    []cq.Event
}

func answerInOrder(t *testing.T, s *query.Store, q *uncertain.Object) orderAnswers {
	t.Helper()
	var a orderAnswers
	for _, o := range s.Snapshot().DB() {
		a.db = append(a.db, o.ID)
	}
	a.knn = s.KNN(q, 3, 0.3)
	a.rknn = s.RKNN(q, 2, 0.2)
	var err error
	a.batch, err = s.BatchKNN(context.Background(), []query.KNNRequest{{Q: q, K: 3, Tau: 0.3}, {Q: q, K: 5, Tau: 0}})
	if err != nil {
		t.Fatal(err)
	}
	m := cq.NewMonitor(s, cq.Options{})
	defer m.Close()
	for _, sub := range []struct {
		kind cq.Kind
		k    int
		tau  float64
		into *[]cq.Event
	}{{cq.KNN, 12, 0.1, &a.cqKNN}, {cq.RKNN, 6, 0.1, &a.cqRKNN}} {
		c := &initialSet{}
		if _, err := m.SubscribeTo(c, "", sub.kind, q, sub.k, sub.tau); err != nil {
			t.Fatal(err)
		}
		for i := range c.evs {
			c.evs[i].Version = 0 // a fresh store counts its versions from 0
		}
		*sub.into = c.evs
	}
	return a
}

// requireAscending fails unless the IDs strictly ascend.
func requireAscending(t *testing.T, label string, ids []int) {
	t.Helper()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("%s: ID %d follows ID %d", label, ids[i], ids[i-1])
		}
	}
}

func matchIDs(ms []query.Match) []int {
	ids := make([]int, len(ms))
	for i, m := range ms {
		ids[i] = m.Object.ID
	}
	return ids
}

func eventIDs(evs []cq.Event) []int {
	ids := make([]int, len(evs))
	for i, ev := range evs {
		ids[i] = ev.Object.ID
	}
	return ids
}

// TestResultsAscendByID: after seeded Insert/Update/Delete traces whose
// inserts take IDs below, between and above the stored ones and whose
// deletes hit arbitrary slab slots, every answer of a store — KNN,
// RKNN, BatchKNN, Snapshot.DB and the initial sets of KNN and RKNN
// subscriptions — is in strictly ascending ID order and equals, bit for
// bit, the answer of a store freshly built from the same objects.
func TestResultsAscendByID(t *testing.T) {
	opts := core.Options{MaxIterations: 2}
	for _, shards := range []int{1, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				db, err := workload.Synthetic(workload.SyntheticConfig{N: 200, Samples: 4, MaxExtent: 0.05, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				for _, o := range db {
					o.ID = 10 * o.ID // leave room for inserts between stored IDs
				}
				sopts := query.ShardedOptions{Shards: shards}
				s, err := query.NewShardedStore(db, sopts, opts)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				obj := func(id int) *uncertain.Object {
					cx, cy := rng.Float64(), rng.Float64()
					pts := []geom.Point{{cx, cy}, {cx + 0.03*rng.Float64(), cy + 0.03*rng.Float64()}, {cx + 0.03, cy}}
					o, err := uncertain.NewObject(id, pts)
					if err != nil {
						t.Fatal(err)
					}
					return o
				}
				for step := 0; step < 300; step++ {
					live := s.Snapshot().DB()
					switch op := rng.Intn(3); {
					case op == 0:
						id := rng.Intn(4000) - 1000 // below, between and above the stored IDs
						if _, taken := s.Get(id); taken {
							continue
						}
						if err := s.Insert(obj(id)); err != nil {
							t.Fatal(err)
						}
					case op == 1:
						if err := s.Update(obj(live[rng.Intn(len(live))].ID)); err != nil {
							t.Fatal(err)
						}
					default:
						if ok, err := s.Delete(live[rng.Intn(len(live))].ID); !ok || err != nil {
							t.Fatalf("delete failed: %v", err)
						}
					}
				}
				q := obj(-1 << 20)
				got := answerInOrder(t, s, q)
				requireAscending(t, "Snapshot.DB", got.db)
				requireAscending(t, "KNN", matchIDs(got.knn))
				requireAscending(t, "RKNN", matchIDs(got.rknn))
				for i, b := range got.batch {
					requireAscending(t, fmt.Sprintf("BatchKNN[%d]", i), matchIDs(b))
				}
				requireAscending(t, "cq KNN initial set", eventIDs(got.cqKNN))
				requireAscending(t, "cq RKNN initial set", eventIDs(got.cqRKNN))

				fresh, err := query.NewShardedStore(s.Snapshot().DB(), sopts, opts)
				if err != nil {
					t.Fatal(err)
				}
				if want := answerInOrder(t, fresh, q); !reflect.DeepEqual(got, want) {
					t.Fatal("the mutated store answers differently from a freshly built one")
				}
			})
		}
	}
}
