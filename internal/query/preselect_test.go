package query

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/obs"
	"probprune/internal/uncertain"
)

// This file holds kNN preselection to the exact distances of the stored
// coordinates on near ties. Point objects on the decimal grid (k/10),
// turned about q by 90° or reflected through it, are at equal distance
// in the reals, but the stored doubles break the tie by less than the
// rounding error of a computed distance — either way.

// turn returns o turned about q: reflected through q (sel 0), or
// rotated by +90° (sel 1) or −90° (sel 2), on grid numerators.
func turn(sel, qx, qy, ox, oy int) (int, int) {
	dx, dy := ox-qx, oy-qy
	switch sel % 3 {
	case 0:
		return qx - dx, qy - dy
	case 1:
		return qx - dy, qy + dx
	}
	return qx + dy, qy - dx
}

// gridPoint is the point object at grid numerators (x, y) over 10.
func gridPoint(id, x, y int) *uncertain.Object {
	return uncertain.PointObject(id, geom.Point{float64(x) / 10, float64(y) / 10})
}

// exactSqDist is |a − q|² in rational arithmetic on the stored
// coordinates of two point objects.
func exactSqDist(a, q *uncertain.Object) *big.Rat {
	sum := new(big.Rat)
	for i, v := range a.MBR.Min {
		d := new(big.Rat).Sub(new(big.Rat).SetFloat64(v), new(big.Rat).SetFloat64(q.MBR.Min[i]))
		sum.Add(sum, d.Mul(d, d))
	}
	return sum
}

// exactKNNProb is P(b ∈ kNN(q)) over a database of certain point
// objects: 1 when fewer than k objects are strictly closer to q than b
// on the exact distances, else 0.
func exactKNNProb(db uncertain.Database, q, b *uncertain.Object, k int) float64 {
	db2 := exactSqDist(b, q)
	closer := 0
	for _, a := range db {
		if a != b && a != q && exactSqDist(a, q).Cmp(db2) < 0 {
			closer++
		}
	}
	if closer < k {
		return 1
	}
	return 0
}

// TestKNNPreselectExactOnNearTies checks every KNN and TopKNN verdict on
// seeded decimal-grid point databases full of turned points against the
// exact answer: a reported interval holds the exact probability, a
// decided KNN verdict equals it, and a decided TopKNN member is at least
// as probable as every object left out. The first database is the
// smallest known case: q = (0.5, 0.8), two objects at o = (0.2, 0.3) and
// b = (1, 0.5), o turned by 90° about q, where b is exactly the nearer
// (|b − q|² < |o − q|² on the doubles) but its computed MinDist exceeds
// the computed m₂.
func TestKNNPreselectExactOnNearTies(t *testing.T) {
	type world struct {
		db   uncertain.Database
		q    *uncertain.Object
		k, m int
	}
	worlds := []world{{
		db: uncertain.Database{gridPoint(0, 2, 3), gridPoint(1, 2, 3), gridPoint(2, 10, 5)},
		q:  gridPoint(-1, 5, 8), k: 1, m: 1,
	}}
	rng := rand.New(rand.NewSource(25))
	for seed := 0; seed < 300; seed++ {
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
		worlds = append(worlds, world{db: db, q: gridPoint(-1, qx, qy), k: 1 + rng.Intn(4), m: 1 + rng.Intn(4)})
	}
	for i, w := range worlds {
		at := fmt.Sprintf("world %d (q %v, k %d)", i, w.q.MBR.Min, w.k)
		exact := make(map[int]float64, len(w.db))
		for _, b := range w.db {
			exact[b.ID] = exactKNNProb(w.db, w.q, b, w.k)
		}
		for _, shards := range []int{1, 3} {
			store, err := NewShardedStore(w.db, ShardedOptions{Shards: shards}, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sn := store.Snapshot()
			for _, mt := range must(sn.KNN(bg, w.q, w.k, 0.5)) {
				p := exact[mt.Object.ID]
				if p < mt.Prob.LB || p > mt.Prob.UB || mt.Decided && mt.IsResult != (p >= 0.5) {
					t.Fatalf("%s, %d shards: KNN object %d at %v: %+v, exact P = %g",
						at, shards, mt.Object.ID, mt.Object.MBR.Min, mt, p)
				}
			}
			top := must(sn.TopKNN(bg, w.q, w.k, w.m))
			for _, mt := range top {
				p := exact[mt.Object.ID]
				if p < mt.Prob.LB || p > mt.Prob.UB {
					t.Fatalf("%s, %d shards: TopKNN object %d: %v, exact P = %g", at, shards, mt.Object.ID, mt.Prob, p)
				}
				if !mt.Decided {
					continue
				}
				for _, b := range w.db {
					in := slices.ContainsFunc(top, func(x Match) bool { return x.Object == b })
					if !in && exact[b.ID] > p {
						t.Fatalf("%s, %d shards: TopKNN decided object %d (exact P %g) but left out object %d at %v (exact P %g)",
							at, shards, mt.Object.ID, p, b.ID, b.MBR.Min, exact[b.ID])
					}
				}
			}
		}
	}
}

// FuzzKNNPreselect places q, copies of o, and b — o reflected through q
// or turned by ±90° about it — on the decimal grid (numerators in
// [−100, 100] over 10) and checks that whenever KNNPrunable prunes b for
// some k, b is exactly farther from q than m_{k+1}: the (k+1)-th
// smallest exact distance among the database objects. It then holds the
// served answers to it (checkServedKNN).
func FuzzKNNPreselect(f *testing.F) {
	f.Add(int16(5), int16(8), int16(2), int16(3), uint8(1), uint8(1), uint8(0)) // the smallest known case
	for sel := range uint8(3) {
		f.Add(int16(5), int16(8), int16(2), int16(3), sel, uint8(2), uint8(1))
		f.Add(int16(-7), int16(3), int16(9), int16(-4), sel, uint8(3), uint8(2))
	}
	f.Fuzz(func(t *testing.T, qx, qy, ox, oy int16, sel, copies, kk uint8) {
		g := func(v int16) int { return int(v) % 101 }
		bx, by := turn(int(sel), g(qx), g(qy), g(ox), g(oy))
		var db uncertain.Database
		for range 1 + int(copies%4) {
			db = append(db, gridPoint(len(db), g(ox), g(oy)))
		}
		b := gridPoint(len(db), bx, by)
		db = append(db, b)
		q := gridPoint(-1, g(qx), g(qy))
		k := 1 + int(kk)%len(db)
		checkServedKNN(t, db, q, b, k)
		sn := newSnapshot(t, db, core.Options{})
		if !sn.KNNPrunable(q, b, sn.KNNThreshold(q, k)) {
			return
		}
		d := make([]*big.Rat, len(db))
		for i, a := range db {
			d[i] = exactSqDist(a, q)
		}
		slices.SortFunc(d, (*big.Rat).Cmp)
		if k >= len(d) || exactSqDist(b, q).Cmp(d[k]) <= 0 {
			t.Fatalf("b %v pruned for q %v, k = %d, with %d copies of o at %v, but |b − q|² = %s is not beyond m_{k+1}",
				b.MBR.Min, q.MBR.Min, k, len(db)-1, db[0].MBR.Min, exactSqDist(b, q).FloatString(25))
		}
	})
}

// sameBits reports whether two matches agree bit for bit: the same
// object, the same bound bits, verdict and iteration count.
func sameBits(a, b Match) bool {
	return a.Object == b.Object &&
		math.Float64bits(a.Prob.LB) == math.Float64bits(b.Prob.LB) &&
		math.Float64bits(a.Prob.UB) == math.Float64bits(b.Prob.UB) &&
		a.IsResult == b.IsResult && a.Decided == b.Decided && a.Iterations == b.Iterations
}

// checkServedKNN holds the served KNN, BatchKNN and TopKNN over db on
// one and three shards to KNNPrunable and to the full-scan reference.
// A refined candidate can come back as P = 0, decided, after no
// iteration, just like a preselected one, so the trace tells them
// apart: each query preselects as many objects as KNNPrunable prunes
// (none at tau = 0), and a pruned b answers as preselected. Every
// match equals the reference's bit for bit, and TopKNN selects the
// reference's objects in its order, never a pruned b.
func checkServedKNN(t *testing.T, db uncertain.Database, q, b *uncertain.Object, k int) {
	t.Helper()
	ref := fullScan{db: db}
	for _, shards := range []int{1, 3} {
		store, err := NewShardedStore(db, ShardedOptions{Shards: shards}, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sn := store.Snapshot()
		thresh := sn.KNNThreshold(q, k)
		pruned := 0
		for _, o := range db {
			if sn.KNNPrunable(q, o, thresh) {
				pruned++
			}
		}
		bPruned := sn.KNNPrunable(q, b, thresh)
		traced := func(what string, want int, query func(ctx context.Context)) {
			t.Helper()
			tr := &obs.Trace{}
			query(obs.WithTrace(bg, tr))
			if got := tr.Snapshot().Preselected; got != uint64(want) {
				t.Fatalf("q %v, k %d, %d shards: %s preselected %d objects, KNNPrunable prunes %d", q.MBR.Min, k, shards, what, got, want)
			}
		}
		var knn []Match
		var batch [][]Match
		traced("KNN", pruned, func(ctx context.Context) { knn = must(sn.KNN(ctx, q, k, 0.5)) })
		traced("BatchKNN", pruned, func(ctx context.Context) {
			batch = must(sn.BatchKNN(ctx, []KNNRequest{{Q: q, K: k, Tau: 0.5}, {Q: q, K: k, Tau: 0}}))
		})
		for i, got := range [][]Match{knn, batch[0], batch[1]} {
			tau := 0.5
			if i == 2 {
				tau = 0
			}
			at := fmt.Sprintf("q %v, b %v, k %d, tau %g, %d shards, answer %d", q.MBR.Min, b.MBR.Min, k, tau, shards, i)
			want := ref.knn(q, k, tau)
			if len(got) != len(want) {
				t.Fatalf("%s: %d matches, the full scan %d", at, len(got), len(want))
			}
			for j, m := range got {
				if m.Object == b && bPruned && tau > 0 && m != (Match{Object: b, Decided: true}) {
					t.Fatalf("%s: b is pruned but answers %+v", at, m)
				}
				if !sameBits(m, want[j]) {
					t.Fatalf("%s: match %d is %+v, the full scan's %+v", at, j, m, want[j])
				}
			}
		}
		var top []Match
		traced("TopKNN", pruned, func(ctx context.Context) { top = must(sn.TopKNN(ctx, q, k, len(db))) })
		want := ref.topKNN(q, k, len(db))
		if len(top) != len(want) {
			t.Fatalf("q %v, k %d, %d shards: TopKNN selects %d objects, the full scan %d", q.MBR.Min, k, shards, len(top), len(want))
		}
		for j, m := range top {
			if m.Object != want[j] || bPruned && m.Object == b {
				t.Fatalf("q %v, k %d, %d shards: TopKNN entry %d is object %d, the full scan's %d (b pruned: %v)",
					q.MBR.Min, k, shards, j, m.Object.ID, want[j].ID, bPruned)
			}
		}
	}
}

// TestPreselectRadiusWidens: the radius lies strictly beyond every
// finite threshold under every norm, by less than a relative 2⁻⁴⁰ for
// the exponents with a small bound, and +Inf stays +Inf.
func TestPreselectRadiusWidens(t *testing.T) {
	for _, n := range []geom.Norm{geom.L1, geom.L2, geom.LInf, {P: 3}} {
		for _, m := range []float64{0, 0x1p-1074, 1e-300, 0.5, 1, 1e300} {
			r := PreselectRadius(m, n, 3)
			if !(r > m) {
				t.Fatalf("L%g: PreselectRadius(%g) = %g, not beyond it", n.P, m, r)
			}
			if n.P != 3 && m >= 0.5 && r > m*(1+0x1p-40) {
				t.Fatalf("L%g: PreselectRadius(%g) = %g, wider than the rounding it covers", n.P, m, r)
			}
		}
		if r := PreselectRadius(math.Inf(1), n, 3); !math.IsInf(r, 1) {
			t.Fatalf("L%g: PreselectRadius(+Inf) = %g", n.P, r)
		}
	}
}
