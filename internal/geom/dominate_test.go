package geom

import (
	"math"
	"math/rand"
	"testing"
)

// relate is the verdict of a fresh kernel for (b, r) on a.
func relate(n Norm, c Criterion, a, b, r Rect) Relation {
	var k PairKernel
	k.Reset(n, c, b, r)
	return k.Relate(a)
}

// dominates is the forward half of the Optimal kernel.
func dominates(n Norm, a, b, r Rect) bool { return relate(n, Optimal, a, b, r) == Dominates }

// sampledDominates exhaustively samples locations and checks whether
// every sampled world satisfies dist(a, r) < dist(b, r). It is the
// ground-truth oracle for the domination criteria (necessarily
// approximate, but a single counterexample disproves domination).
func sampledCounterexample(rng *rand.Rand, n Norm, a, b, r Rect, trials int) bool {
	for i := 0; i < trials; i++ {
		pa := randPointIn(rng, a)
		pb := randPointIn(rng, b)
		pr := randPointIn(rng, r)
		if n.Dist(pa, pr) >= n.Dist(pb, pr) {
			return true
		}
	}
	return false
}

func TestDominatesClearCase(t *testing.T) {
	// A sits right next to R, B is far away: A must dominate B.
	a, _ := NewRect(Point{0, 0}, Point{1, 1})
	r, _ := NewRect(Point{1.5, 0}, Point{2, 1})
	b, _ := NewRect(Point{10, 10}, Point{11, 11})
	if !dominates(L2, a, b, r) {
		t.Error("optimal criterion missed a clear domination")
	}
	if !DominatesMinMax(L2, a, b, r) {
		t.Error("min/max criterion missed a clear domination")
	}
	// And the converse direction must fail.
	if dominates(L2, b, a, r) {
		t.Error("B cannot dominate A here")
	}
}

func TestDominatesOverlapNeverDominates(t *testing.T) {
	// When A and B overlap there is a world where b == a, so strict
	// domination is impossible.
	a, _ := NewRect(Point{0, 0}, Point{2, 2})
	b, _ := NewRect(Point{1, 1}, Point{3, 3})
	r, _ := NewRect(Point{-5, -5}, Point{-4, -4})
	if dominates(L2, a, b, r) {
		t.Error("overlapping rectangles cannot strictly dominate")
	}
}

// The figure-1 style case where the optimal criterion prunes but
// min/max does not: A and B on opposite sides of an elongated R. With R
// wide, MinDist(B,R) < MaxDist(A,R) even though for every fixed r in R,
// A is closer.
func TestOptimalStrongerThanMinMax(t *testing.T) {
	// A and B are flat segments on the x-axis; R is a tall vertical
	// strip between them, closer to A in x for every fixed location.
	// The y-offset of R is shared by both distances (it cancels in the
	// per-dimension criterion) but inflates MaxDist(A, R) enough to
	// defeat the min/max criterion.
	a, _ := NewRect(Point{0, 0}, Point{0.1, 0})
	b, _ := NewRect(Point{3, 0}, Point{3.1, 0})
	r, _ := NewRect(Point{1, 0}, Point{1.2, 5})
	optimal := dominates(L2, a, b, r)
	minmax := DominatesMinMax(L2, a, b, r)
	if !optimal {
		t.Fatal("optimal criterion should detect domination in this configuration")
	}
	if minmax {
		t.Fatal("test configuration is supposed to defeat the min/max criterion")
	}
}

// Property: the criteria are sound — whenever they claim domination, or
// that A is never closer, no sampled world contradicts it.
func TestDominationSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	norms := []Norm{L1, L2, {P: 3}}
	detected, never := 0, 0
	for trial := 0; trial < 3000; trial++ {
		d := 1 + rng.Intn(3)
		a := randRect(rng, d, 3)
		b := randRect(rng, d, 3)
		r := randRect(rng, d, 3)
		for _, n := range norms {
			switch relate(n, Optimal, a, b, r) {
			case Dominates:
				detected++
				if sampledCounterexample(rng, n, a, b, r, 50) {
					t.Fatalf("optimal criterion false positive: n=%v a=%v b=%v r=%v", n, a, b, r)
				}
			case NeverCloser:
				never++
				for i := 0; i < 50; i++ {
					pa, pb, pr := randPointIn(rng, a), randPointIn(rng, b), randPointIn(rng, r)
					if n.Dist(pa, pr) < n.Dist(pb, pr) {
						t.Fatalf("NeverCloser, but a=%v is closer to r=%v than b=%v", pa, pr, pb)
					}
				}
			}
			if DominatesMinMax(n, a, b, r) {
				if sampledCounterexample(rng, n, a, b, r, 50) {
					t.Fatalf("min/max criterion false positive: n=%v a=%v b=%v r=%v", n, a, b, r)
				}
			}
		}
	}
	if detected == 0 || never == 0 {
		t.Errorf("property test exercised %d dominations and %d NeverCloser verdicts", detected, never)
	}
}

// Property: min/max domination implies optimal domination (the optimal
// criterion detects a superset of cases).
func TestMinMaxImpliesOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	implied := 0
	for trial := 0; trial < 5000; trial++ {
		d := 1 + rng.Intn(3)
		a := randRect(rng, d, 3)
		b := randRect(rng, d, 3)
		r := randRect(rng, d, 3)
		if DominatesMinMax(L2, a, b, r) {
			implied++
			if !dominates(L2, a, b, r) {
				t.Fatalf("min/max detected but optimal did not: a=%v b=%v r=%v", a, b, r)
			}
		}
	}
	if implied == 0 {
		t.Error("property test never exercised a min/max positive")
	}
}

// Property: Corollary 2 — Dominates(A,B,R) implies !Dominates(B,A,R).
func TestDominationAsymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 3000; trial++ {
		d := 1 + rng.Intn(3)
		a := randRect(rng, d, 3)
		b := randRect(rng, d, 3)
		r := randRect(rng, d, 3)
		if dominates(L2, a, b, r) && dominates(L2, b, a, r) {
			t.Fatalf("mutual domination is impossible: a=%v b=%v r=%v", a, b, r)
		}
	}
}

// For certain (point) objects the optimal criterion must be exact:
// domination holds iff dist(a,r) < dist(b,r).
func TestDominatesExactOnPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 2000; trial++ {
		d := 1 + rng.Intn(3)
		pa, pb, pr := randPoint(rng, d), randPoint(rng, d), randPoint(rng, d)
		a, b, r := PointRect(pa), PointRect(pb), PointRect(pr)
		want := L2.Dist(pa, pr) < L2.Dist(pb, pr)
		if got := dominates(L2, a, b, r); got != want {
			t.Fatalf("point-object domination: got %v want %v (a=%v b=%v r=%v)", got, want, pa, pb, pr)
		}
	}
}

func TestCriterionRelateAndString(t *testing.T) {
	a, _ := NewRect(Point{0, 0}, Point{1, 1})
	r, _ := NewRect(Point{1.5, 0}, Point{2, 1})
	b, _ := NewRect(Point{10, 10}, Point{11, 11})
	for _, c := range []Criterion{Optimal, MinMax} {
		if got := relate(L2, c, a, b, r); got != Dominates {
			t.Errorf("%v kernel: a = %v on a clear case", c, got)
		}
		if got := relate(L2, c, b, a, r); got != NeverCloser {
			t.Errorf("%v kernel: b = %v on a clear case", c, got)
		}
	}
	if Optimal.String() != "Optimal" || MinMax.String() != "MinMax" {
		t.Error("Criterion.String mismatch")
	}
	if Criterion(99).String() != "Unknown" {
		t.Error("unknown criterion string")
	}
}

func TestDominatesLInfFallsBackToMinMax(t *testing.T) {
	a, _ := NewRect(Point{0, 0}, Point{1, 1})
	r, _ := NewRect(Point{1.5, 0}, Point{2, 1})
	b, _ := NewRect(Point{10, 10}, Point{11, 11})
	if dominates(LInf, a, b, r) != DominatesMinMax(LInf, a, b, r) {
		t.Error("LInf must use the min/max criterion")
	}
}

func BenchmarkDominatesOptimal(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	ra := randRect(rng, 2, 1)
	rb := randRect(rng, 2, 1)
	rr := randRect(rng, 2, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dominates(L2, ra, rb, rr)
	}
}

func BenchmarkDominatesMinMax(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	ra := randRect(rng, 2, 1)
	rb := randRect(rng, 2, 1)
	rr := randRect(rng, 2, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DominatesMinMax(L2, ra, rb, rr)
	}
}

// The 128-bit integer path of exactSign agrees with big.Rat on random
// rectangles whose coordinates span few enough bits to take it: decimal
// grids, dyadic grids and ties (a, b and r drawn from the same few
// values), in one to three dimensions.
func TestExactSignIntegerPath(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	grids := []func() float64{
		func() float64 { return float64(rng.Intn(11)) / 10 },
		func() float64 { return float64(rng.Intn(9)-4) / 8 },
		func() float64 { return float64(rng.Intn(3)) * 1e-3 },
	}
	for trial := 0; trial < 3000; trial++ {
		g, d := grids[trial%len(grids)], 1+rng.Intn(3)
		mk := func() Rect {
			r := Rect{Min: make(Point, d), Max: make(Point, d)}
			for i := range r.Min {
				r.Min[i], r.Max[i] = g(), g()
				if r.Max[i] < r.Min[i] {
					r.Min[i], r.Max[i] = r.Max[i], r.Min[i]
				}
			}
			return r
		}
		a, b, r := mk(), mk(), mk()
		for _, p := range []float64{1, 2} {
			got, ok := exactSign(p, a, b, r)
			if want := ratSign(p, a, b, r); !ok || got != want {
				t.Fatalf("p=%g: exactSign = %d (ok %v), big.Rat %d for a=%v b=%v r=%v", p, got, ok, want, a, b, r)
			}
		}
	}
}

// Sums that overflow, underflow or meet a non-finite coordinate leave
// the float filter undecided; the exact path decides the finite ones and
// answers Unknown for the rest.
func TestRelateExtremeCoordinates(t *testing.T) {
	pt := func(x float64) Rect { return PointRect(Point{x}) }
	tiny := math.SmallestNonzeroFloat64
	for _, c := range []struct {
		name    string
		a, b, r Rect
		want    Relation
	}{
		{"squares overflow", pt(1e200), pt(3e200), pt(0), Dominates},
		{"squares overflow, reversed", pt(3e200), pt(1e200), pt(0), NeverCloser},
		{"subnormal tie", pt(0), pt(2 * tiny), pt(tiny), NeverCloser},
		{"subnormal", pt(2 * tiny), pt(0), pt(3 * tiny), Dominates},
		{"infinite reference", pt(0), pt(1), Rect{Min: Point{math.Inf(-1)}, Max: Point{0}}, Unknown},
	} {
		for _, p := range []Norm{L1, L2} {
			if got := relate(p, Optimal, c.a, c.b, c.r); got != c.want {
				t.Errorf("%s under L%g: %v, want %v", c.name, p.P, got, c.want)
			}
		}
	}
}
