package geom

import (
	"math"
	"math/big"
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
		if DominatesMinMax(L2, a, b, r) && !dominates(L2, a, b, r) {
			t.Fatalf("min/max dominates but optimal does not: a=%v b=%v r=%v", a, b, r)
		}
		if dominates(L2, a, b, r) {
			if dominates(L2, b, a, r) {
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

// FuzzDominatesL2 pins the kernel's written-out p = 2 sums to the
// generic per-term path with p = 2 bit for bit — forward sum, its
// magnitude and reverse sum — in several argument orders, on rectangles
// of one to four dimensions carved out of the fuzzed coordinates.
func FuzzDominatesL2(f *testing.F) {
	// a, b, r as (lo, extent) per dimension; dimension count in dim.
	f.Add(uint8(2), 0.0, 1.0, 3.0, 1.0, 1.5, 0.5, 0.0, 0.5, 0.0, 0.5, 0.0, 5.0) // generic
	f.Add(uint8(1), 1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0) // zero-extent points
	f.Add(uint8(2), 0.0, 1.0, 1.0, 1.0, 2.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0) // touching
	f.Add(uint8(3), 0.0, 4.0, 1.0, 2.0, 1.5, 1.0, 0.0, 4.0, 1.0, 2.0, 1.5, 1.0) // nested
	f.Add(uint8(4), 0.5, 1.0, 0.5, 1.0, 0.5, 1.0, 0.5, 1.0, 0.5, 1.0, 0.5, 1.0) // identical
	f.Add(uint8(2), -3.0, 0.0, 4.0, 0.0, 0.0, 0.0, -1.0, 0.0, 2.0, 0.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, dim uint8, a0, ae0, b0, be0, r0, re0, a1, ae1, b1, be1, r1, re1 float64) {
		a, b, r, ok := fuzzRects(int(dim%4)+1, []float64{a0, ae0, b0, be0, r0, re0, a1, ae1, b1, be1, r1, re1})
		if !ok {
			t.Skip()
		}
		var k PairKernel
		for _, c := range [][3]Rect{{a, b, r}, {b, a, r}, {a, r, b}, {a, a, r}, {a, b, a}} {
			a, b, r := c[0], c[1], c[2]
			k.Reset(L2, Optimal, b, r)
			terms := k.terms()
			var gs, gm, gr float64
			for i := range terms {
				x, m := terms[i].forwardTerm(2, a.Min[i], a.Max[i])
				gs, gm, gr = gs+x, gm+m, gr+terms[i].reverseTerm(2, a.Min[i], a.Max[i])
			}
			s, m := k.forward(terms, a.Min, a.Max)
			rs := k.reverse(terms, a.Min, a.Max)
			for _, v := range [][2]float64{{s, gs}, {m, gm}, {rs, gr}} {
				if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
					t.Fatalf("p = 2 kernel sum %x, generic %x for a=%v b=%v r=%v",
						math.Float64bits(v[0]), math.Float64bits(v[1]), a, b, r)
				}
			}
		}
	})
}

// fuzzRects carves a, b and r of d dimensions out of twelve fuzzed
// values, (lo, extent) per rectangle for two dimensions; dimension i
// reuses the two sets alternately, shifted so higher dimensions are not
// copies of the first two. ok is false for a non-finite or huge value.
func fuzzRects(d int, v []float64) (a, b, r Rect, ok bool) {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
			return a, b, r, false
		}
	}
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
	return mk(v[0], v[1], v[6], v[7]), mk(v[2], v[3], v[8], v[9]), mk(v[4], v[5], v[10], v[11]), true
}

// FuzzPairKernel checks the one domination predicate on rectangles of
// one to six dimensions carved out of the fuzzed coordinates, in
// several argument orders (ties included):
//   - one PairKernel, Reset for each (b, r) in turn, returns the verdict
//     of a fresh one for every a, under L1, L2, L3, L2.5 and L∞ and both
//     criteria;
//   - for p = 1 and p = 2, Relate is exactly the big.Rat sign of the two
//     criterion sums on the stored coordinates: Dominates iff the forward
//     sum is negative, else NeverCloser iff the reverse sum is at most 0.
func FuzzPairKernel(f *testing.F) {
	neg0 := math.Copysign(0, -1)
	// a, b, r as (lo, extent) per dimension; dimension count in dim,
	// norm and criterion in sel.
	f.Add(uint8(2), uint8(1), 0.0, 1.0, 3.0, 1.0, 1.5, 0.5, 0.0, 0.5, 0.0, 0.5, 0.0, 5.0) // generic
	f.Add(uint8(1), uint8(1), 1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0) // zero-extent points
	f.Add(uint8(2), uint8(1), 0.0, 1.0, 1.0, 1.0, 2.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0) // touching
	f.Add(uint8(3), uint8(0), 0.0, 4.0, 1.0, 2.0, 1.5, 1.0, 0.0, 4.0, 1.0, 2.0, 1.5, 1.0) // nested
	f.Add(uint8(4), uint8(1), 0.5, 1.0, 0.5, 1.0, 0.5, 1.0, 0.5, 1.0, 0.5, 1.0, 0.5, 1.0) // identical
	f.Add(uint8(2), uint8(2), -3.0, 0.0, 4.0, 0.0, 0.0, 0.0, -1.0, 0.0, 2.0, 0.0, 0.0, 0.0)
	f.Add(uint8(2), uint8(1), neg0, 0.0, 0.0, 0.0, 0.0, neg0, 0.0, neg0, neg0, 0.0, 0.0, 0.0) // ±0
	f.Add(uint8(2), uint8(1), 0.0, 0.0, 2.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)     // exact tie
	// Near ties on the decimal grid: a is b reflected through r, or b
	// turned ±90° about r — a tie in the reals that the stored doubles
	// break by less than the float sum's rounding error.
	rng := rand.New(rand.NewSource(7))
	dec := func() float64 { return float64(rng.Intn(11)) / 10 }
	for i := 0; i < 24; i++ {
		bx, by, rx, ry := rng.Intn(11), rng.Intn(11), rng.Intn(11), rng.Intn(11)
		var ax, ay int
		switch i % 3 {
		case 0:
			ax, ay = 2*rx-bx, 2*ry-by
		case 1:
			ax, ay = rx-(by-ry), ry+(bx-rx)
		default:
			ax, ay = rx+(by-ry), ry-(bx-rx)
		}
		x := func(k int) float64 { return float64(k) / 10 }
		f.Add(uint8(1), uint8(1), x(ax), 0.0, x(bx), 0.0, x(rx), 0.0, x(ay), 0.0, x(by), 0.0, x(ry), 0.0)
		// The same with a decimal-grid extent on R.
		f.Add(uint8(1), uint8(i%5), x(ax), 0.0, x(bx), 0.0, x(rx), dec(), x(ay), 0.0, x(by), 0.0, x(ry), 0.0)
	}
	// Random rectangles.
	for i := 0; i < 16; i++ {
		v := make([]float64, 12)
		for j := range v {
			v[j] = rng.Float64()*4 - 2
		}
		f.Add(uint8(i), uint8(i), v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], v[8], v[9], v[10], v[11])
	}
	norms := []Norm{L1, L2, {P: 3}, {P: 2.5}, LInf}
	f.Fuzz(func(t *testing.T, dim, sel uint8, a0, ae0, b0, be0, r0, re0, a1, ae1, b1, be1, r1, re1 float64) {
		a, b, r, ok := fuzzRects(int(dim%6)+1, []float64{a0, ae0, b0, be0, r0, re0, a1, ae1, b1, be1, r1, re1})
		if !ok {
			t.Skip()
		}
		n, crit := norms[int(sel)%len(norms)], Criterion(sel/uint8(len(norms))%2)
		var k PairKernel
		for _, c := range [][3]Rect{{a, b, r}, {b, a, r}, {a, r, b}, {a, a, r}, {a, b, a}} {
			a, b, r := c[0], c[1], c[2]
			want := relate(n, crit, a, b, r)
			k.Reset(n, crit, b, r)
			if got := k.Relate(a); got != want {
				t.Fatalf("%v %v: kernel %v, fresh kernel %v for a=%v b=%v r=%v", crit, n, got, want, a, b, r)
			}
			if crit != Optimal || n.P != 1 && n.P != 2 {
				continue
			}
			fwd, rev := ratCriterion(n.P, a, b, r), ratCriterion(n.P, b, a, r)
			exact := Unknown
			if fwd.Sign() < 0 {
				exact = Dominates
			} else if rev.Sign() <= 0 {
				exact = NeverCloser
			}
			if want != exact {
				t.Fatalf("L%g: Relate %v, exact sums %s / %s for a=%v b=%v r=%v",
					n.P, want, fwd.RatString(), rev.RatString(), a, b, r)
			}
		}
	})
}

// ratCriterion is the criterion sum
//
//	Σ_i max_{c ∈ {Rmin_i, Rmax_i}} MaxDist(X_i, c)^p − MinDist(Y_i, c)^p
//
// in rational arithmetic on the stored coordinates, for p = 1 or 2:
// MaxDist as the farther endpoint's distance, MinDist as the distance
// to the clamped corner.
func ratCriterion(p float64, x, y, r Rect) *big.Rat {
	rat := func(v float64) *big.Rat { return new(big.Rat).SetFloat64(v) }
	pow := func(u, v float64) *big.Rat {
		z := new(big.Rat).Sub(rat(u), rat(v))
		if p == 2 {
			return z.Mul(z, z)
		}
		return z.Abs(z)
	}
	sum := new(big.Rat)
	for i := range r.Min {
		var best *big.Rat
		for _, c := range []float64{r.Min[i], r.Max[i]} {
			far := pow(c, x.Min[i])
			if e := pow(c, x.Max[i]); e.Cmp(far) > 0 {
				far = e
			}
			near := pow(c, min(max(c, y.Min[i]), y.Max[i]))
			term := new(big.Rat).Sub(far, near)
			if best == nil || term.Cmp(best) > 0 {
				best = term
			}
		}
		sum.Add(sum, best)
	}
	return sum
}
