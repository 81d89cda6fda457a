package gf

import (
	"math/rand"
	"testing"
)

// twoGF is the two-regular-GF baseline ([3]'s discussion): bounds on
// P(Σ = k) by differencing two tail bounds,
//
//	P(Σ = k) = P(Σ < k+1) − P(Σ < k)
//	         ∈ [max(0, LB_cdf(k+1) − UB_cdf(k)), min(1, UB_cdf(k+1) − LB_cdf(k))],
//
// where each tail is bracketed by the Poisson binomials at the interval
// ends — the UGF's own CDF bounds. package exp's ablation reads its
// baseline the same way.
func twoGF(f *UGF, k int) Interval {
	lo, hi := f.CDFBound(k), f.CDFBound(k+1)
	lb := max(hi.LB-lo.UB, 0)
	return Interval{LB: lb, UB: max(min(hi.UB-lo.LB, 1), lb)}
}

// Property: the differenced two-GF intervals contain the true
// probabilities for any admissible instantiation.
func TestCDFBoundsContainTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(10)
		ivs := make([]Interval, n)
		ps := make([]float64, n)
		for i := range ivs {
			lb := rng.Float64()
			ub := lb + rng.Float64()*(1-lb)
			ivs[i] = Interval{LB: lb, UB: ub}
			ps[i] = lb + rng.Float64()*(ub-lb)
		}
		f := NewUGF()
		f.MultiplyAll(ivs)
		truth := PoissonBinomial(ps)
		truthCDF := CDF(truth)
		for k := 0; k <= n; k++ {
			if !twoGF(f, k).Contains(truth[k], 1e-9) {
				t.Fatalf("P(Σ=%d)=%g outside CDF-derived bound %+v", k, truth[k], twoGF(f, k))
			}
			if !f.CDFBound(k).Contains(truthCDF[k], 1e-9) {
				t.Fatalf("P(Σ<%d)=%g outside tail bound %+v", k, truthCDF[k], f.CDFBound(k))
			}
		}
	}
}

// Property (the paper's tightness claim, extended version [3]): the UGF
// point-probability bounds are never looser than the two-regular-GF
// bounds, and are strictly tighter in typical instances. The upper
// bounds agree in exact arithmetic; the gap is the lower bound c_{k,0}.
func TestUGFTighterThanCDFBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	strictlyTighter := 0
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(10)
		f := NewUGF()
		for i := 0; i < n; i++ {
			lb := rng.Float64()
			ub := lb + rng.Float64()*(1-lb)
			f.Multiply(Interval{LB: lb, UB: ub})
		}
		for k := 0; k <= n; k++ {
			u, c := f.Bound(k), twoGF(f, k)
			if u.LB < c.LB-1e-9 || u.UB > c.UB+1e-9 {
				t.Fatalf("k=%d: UGF [%g,%g] looser than CDF bounds [%g,%g]",
					k, u.LB, u.UB, c.LB, c.UB)
			}
			if u.Width() < c.Width()-1e-9 {
				strictlyTighter++
			}
		}
	}
	if strictlyTighter == 0 {
		t.Error("UGF was never strictly tighter; ablation claim not exercised")
	}
}

func TestCDFBoundsEdges(t *testing.T) {
	f := NewUGF()
	f.Multiply(Interval{LB: 0.5, UB: 0.5})
	if got := f.CDFBound(0); got.LB != 0 || got.UB != 0 {
		t.Errorf("P(Σ<0) = %+v, want [0,0]", got)
	}
	if got := f.CDFBound(5); !almostEqual(got.LB, 1, 1e-12) || !almostEqual(got.UB, 1, 1e-12) {
		t.Errorf("P(Σ<5) = %+v, want [1,1]", got)
	}
	// Exact intervals collapse point bounds to the exact value.
	if got := twoGF(f, 1); !almostEqual(got.LB, 0.5, 1e-12) || !almostEqual(got.UB, 0.5, 1e-12) {
		t.Errorf("Bound(1) = %+v, want [0.5, 0.5]", got)
	}
}
