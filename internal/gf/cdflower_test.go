package gf

import (
	"math/rand"
	"testing"
)

// randomFactors draws n probability intervals; about a third are
// certain ([0,0] or [1,1]) or exact, the cases refinement produces for
// decided influence objects.
func randomFactors(rng *rand.Rand, n int) []Interval {
	ivs := make([]Interval, n)
	for i := range ivs {
		switch rng.Intn(9) {
		case 0:
			ivs[i] = Exact(0)
		case 1:
			ivs[i] = Exact(1)
		case 2:
			ivs[i] = Exact(rng.Float64())
		default:
			lb := rng.Float64()
			ivs[i] = Interval{LB: lb, UB: lb + rng.Float64()*(1-lb)}
		}
	}
	return ivs
}

func product(kMax int, ivs []Interval) *UGF {
	f := NewUGF()
	if kMax > 0 {
		f = NewTruncatedUGF(kMax)
	}
	f.MultiplyAll(ivs)
	return f
}

// TestCDFLowerBoundTightAndSound: Σ_{i+j<k} c_{i,j} is at least the
// column sum Σ_{x<k} c_{x,0} it replaced, never exceeds the Poisson
// binomial tail at any admissible instantiation of the p_i — both
// endpoints and random interior points — and is the same number on a
// truncated UGF for every k ≤ kMax.
func TestCDFLowerBoundTightAndSound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(12)
		ivs := randomFactors(rng, n)
		f := product(0, ivs)
		points := [][]float64{make([]float64, n), make([]float64, n)}
		for i, iv := range ivs {
			points[0][i], points[1][i] = iv.LB, iv.UB
		}
		for p := 0; p < 6; p++ {
			ps := make([]float64, n)
			for i, iv := range ivs {
				ps[i] = iv.LB + rng.Float64()*(iv.UB-iv.LB)
			}
			points = append(points, ps)
		}
		for k := 0; k <= n+2; k++ {
			lb := f.CDFLowerBound(k)
			column := 0.0
			for x := 0; x < k; x++ {
				column += f.LowerBound(x)
			}
			if lb < column-1e-12 {
				t.Fatalf("trial %d k=%d: bound %g below the column sum %g", trial, k, lb, column)
			}
			for _, ps := range points {
				if truth := tail(PoissonBinomial(ps), k); lb > truth+1e-9 {
					t.Fatalf("trial %d k=%d: bound %g above P(Σ<k)=%g at %v in %v", trial, k, lb, truth, ps, ivs)
				}
			}
		}
		kMax := 1 + rng.Intn(n+2)
		trunc := product(kMax, ivs)
		for k := 0; k <= kMax; k++ {
			if got, want := trunc.CDFLowerBound(k), f.CDFLowerBound(k); !almostEqual(got, want, 1e-12) {
				t.Fatalf("trial %d kMax=%d k=%d: truncated %g, full %g", trial, kMax, k, got, want)
			}
		}
		// Past kMax a truncated UGF answers at kMax: still a lower bound.
		if got, want := trunc.CDFLowerBound(kMax+3), trunc.CDFLowerBound(kMax); got != want {
			t.Fatalf("trial %d: CDFLowerBound(kMax+3) = %g, CDFLowerBound(kMax) = %g", trial, got, want)
		}
	}
}

// tail returns P(Σ < k) from a PDF.
func tail(pdf []float64, k int) float64 {
	sum := 0.0
	for x := 0; x < k && x < len(pdf); x++ {
		sum += pdf[x]
	}
	return sum
}

// TestCDFLowerBoundCountsImpossibleMass: eleven factors of which three
// are [0,0] can never reach ten, so P(Σ < 10) = 1 — the column sum
// reported only the mass that is certain of its exact count.
func TestCDFLowerBoundCountsImpossibleMass(t *testing.T) {
	ivs := []Interval{Exact(0), Exact(0), Exact(0)}
	for i := 0; i < 8; i++ {
		ivs = append(ivs, Interval{LB: 0.1, UB: 0.9})
	}
	for _, kMax := range []int{0, 10} {
		f := product(kMax, ivs)
		if got := f.CDFLowerBound(10); !almostEqual(got, 1, 1e-12) {
			t.Fatalf("kMax=%d: P(Σ<10) ≥ %g, want 1", kMax, got)
		}
		if got := f.CDFLowerBound(8); got > 0.99 {
			t.Fatalf("kMax=%d: P(Σ<8) ≥ %g although eight factors may all succeed", kMax, got)
		}
	}
}

// TestCertainFactorsAreNeutral: a product with its [0,0] factors dropped
// and its [1,1] factors turned into a count shift (truncation reduced by
// the shift) has the bounds of the full product, for every k — what
// lets refinement keep decided influence objects out of the generating
// function.
func TestCertainFactorsAreNeutral(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(10)
		ivs := randomFactors(rng, n)
		kMax := rng.Intn(n + 3) // 0 = untruncated
		full := product(kMax, ivs)
		var rest []Interval
		shift := 0
		for _, iv := range ivs {
			switch {
			case iv.UB == 0:
			case iv.LB == 1:
				shift++
			default:
				rest = append(rest, iv)
			}
		}
		hi := n // largest k whose bounds are meaningful
		if kMax > 0 && kMax-1 < hi {
			hi = kMax - 1
		}
		var reduced *UGF
		if kMax == 0 || shift < kMax {
			reduced = product(max(kMax-shift, 0), rest)
		}
		for k := 0; k <= hi+1; k++ {
			var b, c Interval // all tracked counts impossible, or k below the shift
			if reduced != nil && k >= shift {
				b, c = reduced.Bound(k-shift), reduced.CDFBound(k-shift)
			}
			if fb := full.Bound(k); k <= hi && (!almostEqual(fb.LB, b.LB, 1e-12) || !almostEqual(fb.UB, b.UB, 1e-12)) {
				t.Fatalf("trial %d kMax=%d k=%d: full Bound %+v, reduced %+v (%v)", trial, kMax, k, fb, b, ivs)
			}
			if fc := full.CDFBound(k); !almostEqual(fc.LB, c.LB, 1e-12) || !almostEqual(fc.UB, c.UB, 1e-12) {
				t.Fatalf("trial %d kMax=%d k=%d: full CDFBound %+v, reduced %+v (%v)", trial, kMax, k, fc, c, ivs)
			}
		}
	}
}
