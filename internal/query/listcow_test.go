package query

import (
	"math/rand"
	"slices"
	"testing"

	"probprune/internal/core"
	"probprune/internal/uncertain"
)

// liveSnap is a snapshot kept across later mutations with the flat
// lists it must keep answering: the global order and each shard's list.
type liveSnap struct {
	snap   *Snapshot
	global uncertain.Database
	shards []uncertain.Database
}

// TestSnapshotListTranscript drives seeded Insert/Update/Delete (and
// Move at 4 shards) transcripts over stores whose lists span several
// copy-on-write chunks, keeps up to three earlier snapshots live, and
// after every step checks each live snapshot's lists and DB(), global
// and per shard, against flat in-test references — and, every other
// step, the current state the same way. No write may cross a detach,
// and database order must survive every edit: updates in place, inserts
// at the end, moves leaving the global order alone.
func TestSnapshotListTranscript(t *testing.T) {
	for _, n := range []int{1, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			db := storeTestDB(t, 600, seed)
			s, err := NewShardedStore(db, ShardedOptions{Shards: n}, core.Options{MaxIterations: 2})
			if err != nil {
				t.Fatal(err)
			}
			cur := liveSnap{global: slices.Clone(db), shards: make([]uncertain.Database, n)}
			for _, o := range db {
				si := s.shardFor(o)
				cur.shards[si] = append(cur.shards[si], o)
			}
			home := func(id int) int {
				si, _ := s.ShardOf(id)
				return si
			}
			var live []liveSnap
			next := 10000
			for step := 0; step < 600; step++ {
				switch op := rng.Intn(10); {
				case op < 2:
					o := randObject(t, rng, next)
					next++
					if err := s.Insert(o); err != nil {
						t.Fatal(err)
					}
					cur.global = append(cur.global, o)
					si := home(o.ID)
					cur.shards[si] = append(cur.shards[si], o)
				case op < 6:
					old := cur.global[rng.Intn(len(cur.global))]
					o := randObject(t, rng, old.ID)
					if err := s.Update(o); err != nil {
						t.Fatal(err)
					}
					replaceIn(cur.global, old, o)
					replaceIn(cur.shards[home(o.ID)], old, o)
				case op < 8:
					o := cur.global[rng.Intn(len(cur.global))]
					si := home(o.ID)
					if ok, err := s.Delete(o.ID); err != nil || !ok {
						t.Fatalf("delete of stored object %d failed", o.ID)
					}
					cur.global = slices.DeleteFunc(cur.global, func(x *uncertain.Object) bool { return x == o })
					cur.shards[si] = slices.DeleteFunc(cur.shards[si], func(x *uncertain.Object) bool { return x == o })
				case op < 9 && n > 1:
					o := cur.global[rng.Intn(len(cur.global))]
					src, dst := home(o.ID), rng.Intn(n)
					if err := s.Move(o.ID, dst); err != nil {
						t.Fatal(err)
					}
					if src != dst {
						cur.shards[src] = slices.DeleteFunc(cur.shards[src], func(x *uncertain.Object) bool { return x == o })
						cur.shards[dst] = append(cur.shards[dst], o)
					}
				default:
					keep := liveSnap{snap: s.Snapshot(), global: slices.Clone(cur.global)}
					for _, l := range cur.shards {
						keep.shards = append(keep.shards, slices.Clone(l))
					}
					if live = append(live, keep); len(live) > 3 {
						live = live[1:]
					}
				}
				for li, ls := range live {
					checkLiveSnap(t, n, seed, step, li, ls)
				}
				if step%2 == 0 {
					ls := cur
					ls.snap = s.Snapshot()
					checkLiveSnap(t, n, seed, step, -1, ls)
				}
			}
		}
	}
}

func replaceIn(db uncertain.Database, old, o *uncertain.Object) {
	db[slices.Index(db, old)] = o
}

// checkLiveSnap compares a snapshot's chunked lists — read afresh, since
// DB() flattens once and would hide a later write — and its DB() with
// the references.
func checkLiveSnap(t *testing.T, n int, seed int64, step, li int, ls liveSnap) {
	t.Helper()
	if got := ls.snap.list.Slice(); !slices.Equal(got, ls.global) || !slices.Equal(ls.snap.DB(), ls.global) {
		t.Fatalf("shards=%d seed=%d step %d snapshot %d: list (%d objects) or DB() differs from its reference (%d)",
			n, seed, step, li, len(got), len(ls.global))
	}
	for si, want := range ls.shards {
		sh := ls.snap.Shard(si)
		if got := sh.list.Slice(); !slices.Equal(got, want) || !slices.Equal(sh.DB(), want) {
			t.Fatalf("shards=%d seed=%d step %d snapshot %d: shard %d list or DB() differs from its reference",
				n, seed, step, li, si)
		}
	}
}

// TestIndexReadersKeepListChunked: the primitives continuous-query
// maintenance uses reach objects through the index, so a snapshot
// served only to them never flattens its object list; the first
// database scan flattens it once, and every later reader shares that
// copy.
func TestIndexReadersKeepListChunked(t *testing.T) {
	db := storeTestDB(t, 300, 5)
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 4} {
		s, err := NewShardedStore(db, ShardedOptions{Shards: n}, core.Options{MaxIterations: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Update(randObject(t, rng, db[7].ID)); err != nil {
			t.Fatal(err)
		}
		sn := s.Snapshot()
		e := sn.Engine()
		q := randObject(t, rng, -1)
		thresh := e.KNNThreshold(q, 3)
		for _, b := range e.Within(q, thresh) {
			e.EvalKNNCandidate(q, b, 3, 0.5, thresh, nil)
			e.EvalRKNNCandidate(q, b, 3, 0.5, nil)
			e.RKNNPrunable(q, b, 3)
		}
		e.RKNNAffected(q, db[3], db[4])
		if sn.flat != nil {
			t.Fatalf("shards=%d: index-driven reads flattened the snapshot's list", n)
		}
		e.KNN(q, 3, 0.5)
		flat := sn.flat
		if len(flat) != len(db) {
			t.Fatalf("shards=%d: a candidate scan saw %d of %d objects", n, len(flat), len(db))
		}
		e.RKNN(q, 3, 0.5)
		if sn.DB(); &sn.flat[0] != &flat[0] {
			t.Fatalf("shards=%d: the snapshot flattened its list twice", n)
		}
	}
}
