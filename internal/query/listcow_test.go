package query

import (
	"math/rand"
	"slices"
	"testing"

	"probprune/internal/core"
	"probprune/internal/uncertain"
)

// liveSnap is a snapshot kept across later mutations with the slabs it
// must keep answering, one per shard.
type liveSnap struct {
	snap   *Snapshot
	shards []uncertain.Database
}

// TestSnapshotListTranscript drives seeded Insert/Update/Delete (and
// Move at 4 shards) transcripts over stores whose slabs span several
// copy-on-write chunks, keeps up to three earlier snapshots live, and
// after every step checks each live snapshot's slabs against flat
// in-test references and its DB() against their union in ascending ID
// order — and, every other step, the current state the same way. No
// write may cross a detach, and every edit must follow the slab rules:
// updates in place, inserts (and moves in) at the end, deletes (and
// moves out) by moving the last object into the freed slot. Inserts
// take IDs below and above the stored ones.
func TestSnapshotListTranscript(t *testing.T) {
	for _, n := range []int{1, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			db := storeTestDB(t, 600, seed)
			s, err := NewShardedStore(db, ShardedOptions{Shards: n}, core.Options{MaxIterations: 2})
			if err != nil {
				t.Fatal(err)
			}
			cur := liveSnap{shards: make([]uncertain.Database, n)}
			for _, o := range db {
				si := s.shardFor(o)
				cur.shards[si] = append(cur.shards[si], o)
			}
			home := func(id int) int {
				si, _ := s.ShardOf(id)
				return si
			}
			// pick returns a random stored object and its slot.
			pick := func() (*uncertain.Object, int, int) {
				var all []*uncertain.Object
				for _, l := range cur.shards {
					all = append(all, l...)
				}
				o := all[rng.Intn(len(all))]
				si := home(o.ID)
				return o, si, slices.Index(cur.shards[si], o)
			}
			swapDelete := func(si, i int) {
				l := cur.shards[si]
				l[i] = l[len(l)-1]
				cur.shards[si] = l[:len(l)-1]
			}
			var live []liveSnap
			next, low := 10000, -1
			for step := 0; step < 600; step++ {
				switch op := rng.Intn(10); {
				case op < 2:
					id := next
					if step%2 == 0 {
						id = low // below every stored ID
						low--
					} else {
						next++
					}
					o := randObject(t, rng, id)
					if err := s.Insert(o); err != nil {
						t.Fatal(err)
					}
					si := home(o.ID)
					cur.shards[si] = append(cur.shards[si], o)
				case op < 6:
					old, si, i := pick()
					o := randObject(t, rng, old.ID)
					if err := s.Update(o); err != nil {
						t.Fatal(err)
					}
					cur.shards[si][i] = o
				case op < 8:
					o, si, i := pick()
					if ok, err := s.Delete(o.ID); err != nil || !ok {
						t.Fatalf("delete of stored object %d failed", o.ID)
					}
					swapDelete(si, i)
				case op < 9 && n > 1:
					o, src, i := pick()
					dst := rng.Intn(n)
					if err := s.Move(o.ID, dst); err != nil {
						t.Fatal(err)
					}
					if src != dst {
						swapDelete(src, i)
						cur.shards[dst] = append(cur.shards[dst], o)
					}
				default:
					keep := liveSnap{snap: s.Snapshot()}
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

// checkLiveSnap compares a snapshot's chunked slabs — read afresh, since
// DB() flattens once and would hide a later write — with the
// references, and its DB(), whole and per shard, with theirs in
// ascending ID order.
func checkLiveSnap(t *testing.T, n int, seed int64, step, li int, ls liveSnap) {
	t.Helper()
	var all uncertain.Database
	for si, want := range ls.shards {
		sh := ls.snap.Shard(si)
		sorted := slices.SortedFunc(slices.Values(want), cmpID)
		if got := sh.slab.Slice(); !slices.Equal(got, want) || !slices.Equal(sh.DB(), sorted) {
			t.Fatalf("shards=%d seed=%d step %d snapshot %d: shard %d slab or DB() differs from its reference",
				n, seed, step, li, si)
		}
		all = append(all, want...)
	}
	slices.SortFunc(all, cmpID)
	if got := ls.snap.DB(); !slices.Equal(got, all) || ls.snap.Len() != len(all) {
		t.Fatalf("shards=%d seed=%d step %d snapshot %d: DB() (%d objects) differs from its reference (%d)",
			n, seed, step, li, len(got), len(all))
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

// TestIDOrderedSlabsNeverSort: bulk load (over IDs in any order),
// Update and an Insert with the largest ID keep every shard's slab in
// ascending ID order, so no snapshot over them sorts: each cut's flat
// copy is its slab as it stands. A Delete of a slot other than the last
// breaks the order, and the snapshot then sorts its copy; a store
// reopened from a later checkpoint is in order again.
func TestIDOrderedSlabsNeverSort(t *testing.T) {
	unsorted := func(sn *Snapshot) int {
		t.Helper()
		n := 0
		for si := range sn.NumShards() {
			c := sn.Shard(si)
			if !c.sorted {
				n++
			} else if !slices.Equal(c.database(), c.slab.Slice()) {
				t.Fatalf("shard %d: a cut flagged sorted reordered its slab", si)
			}
			if !slices.IsSortedFunc(c.database(), cmpID) {
				t.Fatalf("shard %d: the cut's objects are out of ID order", si)
			}
		}
		return n
	}
	for _, n := range []int{1, 4} {
		db := storeTestDB(t, 400, 9)
		rng := rand.New(rand.NewSource(10))
		rng.Shuffle(len(db), func(i, j int) { db[i], db[j] = db[j], db[i] })
		popts := PersistOptions{Dir: t.TempDir()}
		s, err := BootstrapShardedStore(db, popts, ShardedOptions{Shards: n}, core.Options{MaxIterations: 2})
		if err != nil {
			t.Fatal(err)
		}
		next := 1000
		for step := 0; step < 200; step++ {
			if step%3 == 0 {
				err = s.Insert(randObject(t, rng, next))
				next++
			} else {
				err = s.Update(randObject(t, rng, db[rng.Intn(len(db))].ID))
			}
			if err != nil {
				t.Fatal(err)
			}
			if step%10 == 0 {
				if u := unsorted(s.Snapshot()); u != 0 {
					t.Fatalf("shards=%d step %d: %d cuts sort their slabs", n, step, u)
				}
			}
		}
		if ok, err := s.Delete(db[0].ID); !ok || err != nil {
			t.Fatalf("delete failed: %v", err)
		}
		if u := unsorted(s.Snapshot()); u != 1 {
			t.Fatalf("shards=%d: after a Delete of a middle slot %d cuts are out of order, want 1", n, u)
		}
		// A checkpoint is written in ascending ID order, whatever the slab
		// order: a store reopened from it loads its slabs sorted.
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenShardedStore(popts, ShardedOptions{Shards: n}, core.Options{MaxIterations: 2})
		if err != nil {
			t.Fatal(err)
		}
		if u := unsorted(r.Snapshot()); u != 0 {
			t.Fatalf("shards=%d: %d cuts of the reopened store sort their slabs", n, u)
		}
		r.Close()
	}
}
