package geom

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzDominates fuzzes the optimal domination criterion with arbitrary
// rectangle coordinates: whenever it claims domination, random sampled
// worlds must agree (soundness), and min/max domination must imply
// optimal domination.
func FuzzDominates(f *testing.F) {
	f.Add(0.0, 1.0, 3.0, 4.0, 1.5, 2.0, 0.0, 0.5, 0.0, 0.5, 0.0, 5.0)
	f.Add(-1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0)
	f.Fuzz(func(t *testing.T, ax0, ax1, bx0, bx1, rx0, rx1, ay0, ay1, by0, by1, ry0, ry1 float64) {
		mk := func(x0, x1, y0, y1 float64) (Rect, bool) {
			for _, v := range []float64{x0, x1, y0, y1} {
				if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
					return Rect{}, false
				}
			}
			if x1 < x0 {
				x0, x1 = x1, x0
			}
			if y1 < y0 {
				y0, y1 = y1, y0
			}
			return Rect{Min: Point{x0, y0}, Max: Point{x1, y1}}, true
		}
		a, ok1 := mk(ax0, ax1, ay0, ay1)
		b, ok2 := mk(bx0, bx1, by0, by1)
		r, ok3 := mk(rx0, rx1, ry0, ry1)
		if !ok1 || !ok2 || !ok3 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(1))
		if DominatesMinMax(L2, a, b, r) && !Dominates(L2, a, b, r) {
			t.Fatalf("min/max dominates but optimal does not: a=%v b=%v r=%v", a, b, r)
		}
		if Dominates(L2, a, b, r) {
			if Dominates(L2, b, a, r) {
				t.Fatalf("mutual domination: a=%v b=%v r=%v", a, b, r)
			}
			for i := 0; i < 64; i++ {
				pa := randPointIn(rng, a)
				pb := randPointIn(rng, b)
				pr := randPointIn(rng, r)
				if L2.Dist(pa, pr) >= L2.Dist(pb, pr) {
					t.Fatalf("sampled counterexample to claimed domination: a=%v b=%v r=%v", pa, pb, pr)
				}
			}
		}
	})
}

// FuzzDominatesL2 pins the p = 2 kernel to the generic path bit for bit:
// the same criterion sum, in several argument orders, on rectangles of one to four
// dimensions carved out of the fuzzed coordinates.
func FuzzDominatesL2(f *testing.F) {
	// a, b, r as (lo, extent) per dimension; dimension count in dim.
	f.Add(uint8(2), 0.0, 1.0, 3.0, 1.0, 1.5, 0.5, 0.0, 0.5, 0.0, 0.5, 0.0, 5.0) // generic
	f.Add(uint8(1), 1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0) // zero-extent points
	f.Add(uint8(2), 0.0, 1.0, 1.0, 1.0, 2.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0) // touching
	f.Add(uint8(3), 0.0, 4.0, 1.0, 2.0, 1.5, 1.0, 0.0, 4.0, 1.0, 2.0, 1.5, 1.0) // nested
	f.Add(uint8(4), 0.5, 1.0, 0.5, 1.0, 0.5, 1.0, 0.5, 1.0, 0.5, 1.0, 0.5, 1.0) // identical
	f.Add(uint8(2), -3.0, 0.0, 4.0, 0.0, 0.0, 0.0, -1.0, 0.0, 2.0, 0.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, dim uint8, a0, ae0, b0, be0, r0, re0, a1, ae1, b1, be1, r1, re1 float64) {
		vals := []float64{a0, ae0, b0, be0, r0, re0, a1, ae1, b1, be1, r1, re1}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				t.Skip()
			}
		}
		d := int(dim%4) + 1
		// Dimension i reuses the two fuzzed coordinate sets alternately,
		// shifted so higher dimensions are not copies of the first two.
		mk := func(lo0, e0, lo1, e1 float64) Rect {
			r := Rect{Min: make(Point, d), Max: make(Point, d)}
			for i := 0; i < d; i++ {
				lo, e := lo0, e0
				if i%2 == 1 {
					lo, e = lo1, e1
				}
				lo += float64(i / 2)
				r.Min[i], r.Max[i] = lo, lo+math.Abs(e)
			}
			return r
		}
		a, b, r := mk(a0, ae0, a1, ae1), mk(b0, be0, b1, be1), mk(r0, re0, r1, re1)
		for _, c := range [][3]Rect{{a, b, r}, {b, a, r}, {a, r, b}, {a, a, r}, {a, b, a}} {
			got, want := criterionSumL2(c[0], c[1], c[2]), criterionSum(L2, c[0], c[1], c[2])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("criterionSumL2 = %x, generic = %x for a=%v b=%v r=%v",
					math.Float64bits(got), math.Float64bits(want), c[0], c[1], c[2])
			}
			if Dominates(L2, c[0], c[1], c[2]) != (want < 0) {
				t.Fatalf("Dominates(L2) disagrees with the generic sum %g", want)
			}
		}
	})
}
