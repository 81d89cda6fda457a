package cq

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"probprune/internal/core"
	"probprune/internal/query"
)

// Race-detector stress test for the sharded serving path: concurrent
// writers mutate a 4-shard Store through the router (each commit detaches
// only its home shard), scatter-gather readers query snapshots, a
// migrator moves objects between shards and rebalances, and a live
// Monitor consumes the merged multi-shard Watch stream — all at once.
// After the storm settles, every subscription's cumulative event stream
// is replayed against a from-scratch recomputation at EVERY committed
// version (using the per-version sharded snapshots the change stream
// carries), bit-exact. Run under -race this exercises the router lock
// discipline; run without, it is the sharded mutation-trace oracle.
func TestShardedMonitorRaceStress(t *testing.T) {
	ctx := testCtx(t)
	db := testDB(t, 40, 11)
	opts := core.Options{MaxIterations: 2}
	ss, err := query.NewShardedStore(db, query.ShardedOptions{Shards: 4}, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Record every committed version's snapshot for the replay below.
	var recMu sync.Mutex
	snaps := map[uint64]*query.Snapshot{}
	snap0, stopRec := ss.Watch(func(ch query.Change) {
		recMu.Lock()
		snaps[ch.Version] = ch.Snap
		recMu.Unlock()
	})
	defer stopRec()
	base := snap0.Version()
	snaps[base] = snap0

	m := NewMonitor(ss, Options{Buffer: 1 << 15})
	defer m.Close()

	qrng := rand.New(rand.NewSource(17))
	q1 := objectNear(qrng, -1, 0.4, 0.4, 0.1)
	q2 := objectNear(qrng, -2, 0.6, 0.6, 0.1)
	sub1, err := m.SubscribeKNN(q1, 3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := m.SubscribeRKNN(q2, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}

	const writers, opsPerWriter = 3, 15
	var wg sync.WaitGroup
	// Writers own disjoint ID spaces: writer w mutates the seed objects
	// with index ≡ w (mod writers) and inserts into its own ID range, so
	// concurrent traces never collide on an ID.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*271 + 5))
			var owned []int
			for i := w; i < len(db); i += writers {
				owned = append(owned, db[i].ID)
			}
			nextID := 10_000 + w*1000
			for i := 0; i < opsPerWriter; i++ {
				switch rng.Intn(3) {
				case 0:
					o := objectNear(rng, nextID, rng.Float64(), rng.Float64(), 0.05)
					nextID++
					if err := ss.Insert(o); err != nil {
						t.Error(err)
						return
					}
					owned = append(owned, o.ID)
				case 1:
					id := owned[rng.Intn(len(owned))]
					o := objectNear(rng, id, rng.Float64(), rng.Float64(), 0.05)
					if err := ss.Update(o); err != nil {
						t.Error(err)
						return
					}
				default:
					if len(owned) < 4 {
						continue
					}
					j := rng.Intn(len(owned))
					if ok, err := ss.Delete(owned[j]); err != nil || !ok {
						t.Errorf("writer %d: delete of owned ID %d failed", w, owned[j])
						return
					}
					owned = append(owned[:j], owned[j+1:]...)
				}
			}
		}(w)
	}
	// Readers: snapshot-bound scatter-gather queries must be
	// deterministic while the database churns underneath.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)*97 + 3))
			for i := 0; i < 10; i++ {
				snap := ss.Snapshot()
				q := objectNear(rng, -100-r, rng.Float64(), rng.Float64(), 0.1)
				if a, b := must(snap.KNN(bg, q, 3, 0.3)), must(snap.KNN(bg, q, 3, 0.3)); !reflect.DeepEqual(a, b) {
					t.Errorf("reader %d: repeated KNN on one sharded snapshot diverged", r)
					return
				}
				if _, err := snap.BatchKNN(ctx, []query.KNNRequest{{Q: q, K: 2, Tau: 0.4}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	// Migrator: result-invariant shard moves racing the writers; a move
	// may lose the race with a delete of the same ID, which is fine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 20; i++ {
			cur := ss.Snapshot().Database()
			if len(cur) == 0 {
				continue
			}
			_ = ss.Move(cur[rng.Intn(len(cur))].ID, rng.Intn(ss.NumShards()))
			if i%7 == 6 {
				ss.Rebalance()
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := m.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got := m.Version(); got != ss.Version() {
		t.Fatalf("monitor processed through %d, store at %d", got, ss.Version())
	}
	if vv := m.VersionVector(); len(vv) != ss.NumShards() {
		t.Fatalf("monitor version vector has %d entries, want %d", len(vv), ss.NumShards())
	}

	// Replay: walk every committed version in order, fold in the event
	// groups, and compare the cumulative view against a from-scratch
	// recomputation on that version's sharded snapshot.
	final := ss.Version()
	verify := func(name string, sub *Subscription, recompute func(e *query.Snapshot) []query.Match) {
		view := newTraceView(name)
		evs := drainEvents(sub)
		i := 0
		for v := base; v <= final; v++ {
			recMu.Lock()
			snap := snaps[v]
			recMu.Unlock()
			if snap == nil {
				t.Fatalf("%s: no snapshot recorded for version %d", name, v)
			}
			j := i
			for j < len(evs) && evs[j].Version == v {
				j++
			}
			view.applyEvents(t, evs[i:j], v)
			i = j
			view.compare(t, resultSet(recompute(snap)), 11, v)
		}
		if i != len(evs) {
			t.Fatalf("%s: %d events beyond the final version %d", name, len(evs)-i, final)
		}
	}
	verify("sharded-knn", sub1, func(e *query.Snapshot) []query.Match { return must(e.KNN(bg, q1, 3, 0.3)) })
	verify("sharded-rknn", sub2, func(e *query.Snapshot) []query.Match { return must(e.RKNN(bg, q2, 2, 0.3)) })
}
