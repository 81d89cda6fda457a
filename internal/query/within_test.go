package query

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"probprune/internal/core"
	"probprune/internal/uncertain"
)

// withinPlanes builds snapshots over the same objects on one cut, on
// three hash cuts and on four stripe cuts.
func withinPlanes(t *testing.T, db uncertain.Database) map[string]*Snapshot {
	t.Helper()
	planes := map[string]*Snapshot{"index": newSnapshot(t, db, core.Options{})}
	for name, so := range map[string]ShardedOptions{
		"hash":    {Shards: 3},
		"sharded": {Shards: 4, Partition: StripeShards(0, 0, 10)},
	} {
		ss, err := NewShardedStore(db, so, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		planes[name] = ss.Snapshot()
	}
	return planes
}

func objIDs(objs []*uncertain.Object) []int {
	ids := make([]int, len(objs))
	for i, o := range objs {
		ids[i] = o.ID
	}
	return ids
}

// bruteIDs filters db \ {q} by keep and returns the ascending IDs.
func bruteIDs(db uncertain.Database, q *uncertain.Object, keep func(b *uncertain.Object) bool) []int {
	ids := []int{}
	for _, b := range db {
		if b != q && keep(b) {
			ids = append(ids, b.ID)
		}
	}
	sort.Ints(ids)
	return ids
}

// checkWithin fails unless Within(q, d) on e is exactly the objects kNN
// preselection keeps at the bound d (KNNPrunable false), in ascending
// ID order, never q.
func checkWithin(t *testing.T, at string, e *Snapshot, db uncertain.Database, q *uncertain.Object, d float64) {
	t.Helper()
	want := bruteIDs(db, q, func(b *uncertain.Object) bool { return !e.KNNPrunable(q, b, d) })
	if got := objIDs(e.Within(q, d)); !slices.Equal(got, want) {
		t.Fatalf("%s q=%d d=%g: got %v, want %v", at, q.ID, d, got, want)
	}
}

// TestWithinMatchesBruteForce: on every plane Within yields exactly the
// objects KNNPrunable keeps, and the whole database but q at d = +Inf.
// Random objects have no near ties; decimal-grid points turned about q
// (see turn) tie in the reals, so their computed distances straddle a
// bound d while staying inside PreselectRadius(d), where a plain
// MinDist <= d filter would disagree.
func TestWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(910))
	db := smallDB(rng, 400, 4)
	queries := []*uncertain.Object{
		randObj(rng, 9000, 4, 5, 5, 1), // external
		randObj(rng, 9001, 1, 2, 8, 0), // zero extent
		db[17],                         // a database object
	}
	for name, e := range withinPlanes(t, db) {
		for _, q := range queries {
			for _, d := range []float64{0, 0.3, 1.5, e.KNNThreshold(q, 5), 20, math.Inf(1)} {
				checkWithin(t, name, e, db, q, d)
			}
		}
	}

	widened := 0
	for range 100 {
		qx, qy := rng.Intn(11), rng.Intn(11)
		var db uncertain.Database
		for range 3 {
			ox, oy := rng.Intn(11), rng.Intn(11)
			db = append(db, gridPoint(len(db), ox, oy))
			for sel := range 3 {
				x, y := turn(sel, qx, qy, ox, oy)
				db = append(db, gridPoint(len(db), x, y))
			}
		}
		q := gridPoint(-1, qx, qy)
		for _, shards := range []int{1, 3} {
			store, err := NewShardedStore(db, ShardedOptions{Shards: shards}, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			e := store.Snapshot()
			at := fmt.Sprintf("grid q %v, %d shards", q.MBR.Min, shards)
			for _, o := range db {
				d := o.MBR.MinDistRect(e.Norm(), q.MBR)
				checkWithin(t, at, e, db, q, d)
				for _, b := range db {
					if b.MBR.MinDistRect(e.Norm(), q.MBR) > d && !e.KNNPrunable(q, b, d) {
						widened++
					}
				}
			}
		}
	}
	if widened == 0 {
		t.Fatal("no grid point lies beyond d but within PreselectRadius(d): the near-tie class is not exercised")
	}
}

// TestWithinStopsEarly: every engine looks at the answer plus the one
// object per entered index that ends its stream (and q, when it is
// indexed); cuts beyond d are not entered at all.
func TestWithinStopsEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(911))
	db := smallDB(rng, 400, 4)
	planes := withinPlanes(t, db)
	for _, q := range []*uncertain.Object{randObj(rng, 9000, 4, 1, 5, 0.5), db[40]} {
		d := planes["index"].KNNThreshold(q, 5)
		for name, e := range planes {
			out, visited := e.appendWithin(nil, q, d)
			entered := 0
			for _, sh := range e.cuts() {
				if root, ok := sh.root(); ok && root.MinDistRect(e.Norm(), q.MBR) <= d {
					entered++
				}
			}
			if name == "sharded" && entered == len(e.cuts()) {
				t.Fatalf("q=%d d=%g: no stripe shard is beyond the ball — the skip is not exercised", q.ID, d)
			}
			limit := len(out) + entered + 1 // +1: q itself when indexed
			if visited > limit {
				t.Fatalf("%s q=%d: visited %d objects for %d answers over %d entered indexes", name, q.ID, visited, len(out), entered)
			}
			if len(out) == 0 || len(out) > len(db)/2 {
				t.Fatalf("%s q=%d: %d answers — the ball is degenerate", name, q.ID, len(out))
			}
		}
	}
}

// TestRKNNAffectedMatchesBruteForce: the node-level skip of the RkNN
// walk is conservative — on every plane the walk yields exactly the
// objects RKNNInvolved accepts, for updates, inserts and deletes.
func TestRKNNAffectedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(912))
	db := smallDB(rng, 400, 4)
	planes := withinPlanes(t, db)
	nonEmpty := 0
	for trial := 0; trial < 40; trial++ {
		q := randObj(rng, 9000, 4, rng.Float64()*10, rng.Float64()*10, 1)
		if trial%5 == 0 {
			q = db[rng.Intn(len(db))]
		}
		old := db[rng.Intn(len(db))]
		new := randObj(rng, old.ID, 4, rng.Float64()*10, rng.Float64()*10, 1.5)
		switch trial % 3 {
		case 1:
			old = nil
		case 2:
			new = nil
		}
		for name, e := range planes {
			want := bruteIDs(db, q, func(b *uncertain.Object) bool { return e.RKNNInvolved(q, b, old, new) })
			got := objIDs(e.RKNNAffected(q, old, new))
			if !slices.Equal(got, want) {
				t.Fatalf("%s trial %d: got %v, want %v", name, trial, got, want)
			}
			if len(want) > 0 {
				nonEmpty++
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no trial had an affected object — the walk is not exercised")
	}
}
