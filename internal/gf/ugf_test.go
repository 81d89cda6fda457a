package gf

import (
	"math/rand"
	"testing"
)

// TestUGFPaperExample3 reproduces Example 3 of the paper verbatim:
// PLB(X1)=20%, PUB(X1)=50%, PLB(X2)=60%, PUB(X2)=80% gives
// F² = 0.12x² + 0.34x + 0.1 + 0.22xy + 0.16y + 0.06y², hence
// P(Σ=2) ∈ [12%, 40%], P(Σ=1) ∈ [34%, 78%], P(Σ=0) ∈ [10%, 32%].
func TestUGFPaperExample3(t *testing.T) {
	f, ref := NewUGF(), newRefUGF(0)
	for _, iv := range []Interval{{LB: 0.2, UB: 0.5}, {LB: 0.6, UB: 0.8}} {
		f.Multiply(iv)
		ref.Multiply(iv)
	}

	coeffs := []struct {
		i, j int
		want float64
	}{
		{2, 0, 0.12}, {1, 0, 0.34}, {0, 0, 0.10},
		{1, 1, 0.22}, {0, 1, 0.16}, {0, 2, 0.06},
	}
	for _, c := range coeffs {
		if got := ref.Coefficient(c.i, c.j); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("c_{%d,%d} = %g, want %g", c.i, c.j, got, c.want)
		}
	}

	bounds := []struct {
		k      int
		lb, ub float64
	}{
		{2, 0.12, 0.40}, {1, 0.34, 0.78}, {0, 0.10, 0.32},
	}
	for _, b := range bounds {
		for _, iv := range []Interval{f.Bound(b.k), ref.Bound(b.k)} {
			if !almostEqual(iv.LB, b.lb, 1e-12) || !almostEqual(iv.UB, b.ub, 1e-12) {
				t.Errorf("Bound(%d) = [%g, %g], want [%g, %g]", b.k, iv.LB, iv.UB, b.lb, b.ub)
			}
		}
	}
}

// masses returns the total mass of the UGF's polynomials for X and X+Y.
func masses(f *UGF) (x, xy float64) {
	for k := 0; k <= f.N(); k++ {
		a, b, _ := f.Terms(k)
		x, xy = x+a, xy+b
	}
	return x, xy
}

func TestUGFTotalMassInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	f, ref := NewUGF(), newRefUGF(0)
	for i := 0; i < 40; i++ {
		lb := rng.Float64()
		ub := lb + rng.Float64()*(1-lb)
		f.Multiply(Interval{LB: lb, UB: ub})
		ref.Multiply(Interval{LB: lb, UB: ub})
		if !almostEqual(ref.TotalMass(), 1, 1e-9) {
			t.Fatalf("after %d factors reference mass = %g", i+1, ref.TotalMass())
		}
		if x, xy := masses(f); !almostEqual(x, 1, 1e-9) || !almostEqual(xy, 1, 1e-9) {
			t.Fatalf("after %d factors masses = %g, %g", i+1, x, xy)
		}
	}
}

// Property: for exact intervals (LB == UB) the UGF degenerates to the
// regular Poisson binomial generating function.
func TestUGFDegeneratesToPoissonBinomial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(15)
		ps := make([]float64, n)
		f := NewUGF()
		for i := range ps {
			ps[i] = rng.Float64()
			f.Multiply(Exact(ps[i]))
		}
		want := PoissonBinomial(ps)
		for k := 0; k <= n; k++ {
			iv := f.Bound(k)
			if !almostEqual(iv.LB, want[k], 1e-9) || !almostEqual(iv.UB, want[k], 1e-9) {
				t.Fatalf("k=%d: UGF [%g, %g] vs exact %g", k, iv.LB, iv.UB, want[k])
			}
		}
	}
}

// Property (the central soundness property of Section IV-C): for any
// admissible instantiation p_i ∈ [LB_i, UB_i], the true Poisson
// binomial probability lies within the UGF bounds, for point
// probabilities and for tails.
func TestUGFBoundsContainTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(10)
		ivs := make([]Interval, n)
		ps := make([]float64, n)
		f := NewUGF()
		for i := range ivs {
			lb := rng.Float64()
			ub := lb + rng.Float64()*(1-lb)
			ivs[i] = Interval{LB: lb, UB: ub}
			ps[i] = lb + rng.Float64()*(ub-lb)
			f.Multiply(ivs[i])
		}
		truth := PoissonBinomial(ps)
		truthCDF := CDF(truth)
		for k := 0; k <= n; k++ {
			if !f.Bound(k).Contains(truth[k], 1e-9) {
				t.Fatalf("P(Σ=%d)=%g outside UGF bound %+v", k, truth[k], f.Bound(k))
			}
			if !f.CDFBound(k).Contains(truthCDF[k], 1e-9) {
				t.Fatalf("P(Σ<%d)=%g outside UGF CDF bound %+v", k, truthCDF[k], f.CDFBound(k))
			}
		}
	}
}

// Property: the truncated UGF yields exactly the same bounds as the
// full UGF for every count below kMax (the Section VI merging argument).
func TestTruncatedUGFMatchesFullBelowK(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(25)
		kMax := 1 + rng.Intn(8)
		full := NewUGF()
		trunc := NewTruncatedUGF(kMax)
		ivs := make([]Interval, n)
		for i := range ivs {
			lb := rng.Float64()
			ub := lb + rng.Float64()*(1-lb)
			ivs[i] = Interval{LB: lb, UB: ub}
			full.Multiply(ivs[i])
			trunc.Multiply(ivs[i])
		}
		for k := 0; k < kMax && k <= n; k++ {
			fb, tb := full.Bound(k), trunc.Bound(k)
			if !almostEqual(fb.LB, tb.LB, 1e-9) || !almostEqual(fb.UB, tb.UB, 1e-9) {
				t.Fatalf("n=%d kMax=%d k=%d: full [%g,%g] vs trunc [%g,%g]",
					n, kMax, k, fb.LB, fb.UB, tb.LB, tb.UB)
			}
			fc, tc := full.CDFBound(k+1), trunc.CDFBound(k+1)
			if !almostEqual(fc.LB, tc.LB, 1e-9) || !almostEqual(fc.UB, tc.UB, 1e-9) {
				t.Fatalf("n=%d kMax=%d CDF k=%d: full [%g,%g] vs trunc [%g,%g]",
					n, kMax, k+1, fc.LB, fc.UB, tc.LB, tc.UB)
			}
		}
		// The merge rules the truncation replaced kept all the mass.
		ref := newRefUGF(kMax)
		ref.MultiplyAll(ivs)
		if !almostEqual(ref.TotalMass(), 1, 1e-9) {
			t.Fatalf("truncated reference mass = %g", ref.TotalMass())
		}
	}
}

func TestUGFBoundsSliceAndAccessors(t *testing.T) {
	f := NewUGF()
	f.Multiply(Interval{LB: 0.2, UB: 0.5})
	f.Multiply(Interval{LB: 0.6, UB: 0.8})
	bs := f.Bounds()
	if len(bs) != 3 {
		t.Fatalf("Bounds len = %d", len(bs))
	}
	if f.N() != 2 {
		t.Errorf("N = %d", f.N())
	}
	if x, xy, x0 := f.Terms(-1); x != 0 || xy != 0 || x0 != 0 {
		t.Errorf("out-of-range terms = %g, %g, %g", x, xy, x0)
	}
	tr := NewTruncatedUGF(2)
	tr.Multiply(Interval{LB: 0.2, UB: 0.5})
	tr.Multiply(Interval{LB: 0.6, UB: 0.8})
	tr.Multiply(Interval{LB: 0.1, UB: 0.9})
	if bs := tr.Bounds(); len(bs) != 2 {
		t.Errorf("truncated Bounds len = %d, want 2", len(bs))
	}
	if lb := tr.LowerBound(5); lb != 0 {
		t.Errorf("LowerBound beyond kMax = %g", lb)
	}
	if ub := tr.UpperBound(5); ub != 1 {
		t.Errorf("UpperBound beyond kMax = %g", ub)
	}
}

func TestNewTruncatedUGFPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for kMax <= 0")
		}
	}()
	NewTruncatedUGF(0)
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{LB: 0.2, UB: 0.5}
	if !almostEqual(iv.Width(), 0.3, 1e-12) {
		t.Errorf("Width = %g", iv.Width())
	}
	if !iv.Contains(0.3, 0) || iv.Contains(0.6, 0) {
		t.Error("Contains misbehaves")
	}
	if e := Exact(0.4); e.LB != 0.4 || e.UB != 0.4 {
		t.Error("Exact misbehaves")
	}
}

func BenchmarkPoissonBinomial(b *testing.B) {
	rng := rand.New(rand.NewSource(90))
	ps := make([]float64, 200)
	for i := range ps {
		ps[i] = rng.Float64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PoissonBinomial(ps)
	}
}

func BenchmarkUGFFull(b *testing.B) {
	rng := rand.New(rand.NewSource(91))
	ivs := make([]Interval, 60)
	for i := range ivs {
		lb := rng.Float64()
		ivs[i] = Interval{LB: lb, UB: lb + rng.Float64()*(1-lb)}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := NewUGF()
		f.MultiplyAll(ivs)
	}
}

func BenchmarkUGFTruncatedK5(b *testing.B) {
	rng := rand.New(rand.NewSource(92))
	ivs := make([]Interval, 60)
	for i := range ivs {
		lb := rng.Float64()
		ivs[i] = Interval{LB: lb, UB: lb + rng.Float64()*(1-lb)}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := NewTruncatedUGF(5)
		f.MultiplyAll(ivs)
	}
}

// TestUGFResetReuse: a UGF rewound with Reset — to another truncation,
// after a larger product — gives bit-identical bounds to a fresh one;
// refinement expands every partition pair through one reused UGF.
func TestUGFResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	reused := NewUGF()
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(12)
		kMax := rng.Intn(6) - 1 // -1 and 0 both mean untruncated
		ivs := make([]Interval, n)
		for i := range ivs {
			lb := rng.Float64()
			ivs[i] = Interval{LB: lb, UB: lb + rng.Float64()*(1-lb)}
		}
		fresh := NewUGF()
		if kMax > 0 {
			fresh = NewTruncatedUGF(kMax)
		}
		fresh.MultiplyAll(ivs)
		reused.Reset(kMax)
		reused.MultiplyAll(ivs)
		if reused.N() != n {
			t.Fatalf("trial %d: N = %d after Reset and %d factors", trial, reused.N(), n)
		}
		for k := 0; k <= n+1; k++ {
			if reused.Bound(k) != fresh.Bound(k) || reused.CDFBound(k) != fresh.CDFBound(k) {
				t.Fatalf("trial %d kMax=%d k=%d: reused %+v %+v, fresh %+v %+v",
					trial, kMax, k, reused.Bound(k), reused.CDFBound(k), fresh.Bound(k), fresh.CDFBound(k))
			}
		}
	}
}
