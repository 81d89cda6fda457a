package gf

import (
	"math"
	"math/rand"
	"testing"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// bruteForcePoissonBinomial enumerates all 2^N outcomes; usable for
// small N as the ground truth.
func bruteForcePoissonBinomial(ps []float64) []float64 {
	n := len(ps)
	out := make([]float64, n+1)
	for mask := 0; mask < 1<<n; mask++ {
		p := 1.0
		ones := 0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				p *= ps[i]
				ones++
			} else {
				p *= 1 - ps[i]
			}
		}
		out[ones] += p
	}
	return out
}

// TestPoissonBinomialPaperExample2 reproduces Example 2 of the paper:
// P(X1)=0.2, P(X2)=0.1, P(X3)=0.3. The paper prints P(Σ=1)=0.418 and
// P(Σ<2)=0.922, which is an arithmetic slip: the x-coefficient of
// F³ = (0.72 + 0.26x)(0.7 + 0.3x) is 0.26·0.7 + 0.72·0.3 = 0.398
// (brute-force enumeration over the 2³ worlds agrees, see
// TestPoissonBinomialMatchesBruteForce). We assert the correct values.
func TestPoissonBinomialPaperExample2(t *testing.T) {
	coef := PoissonBinomial([]float64{0.2, 0.1, 0.3})
	if !almostEqual(coef[0], 0.504, 1e-12) {
		t.Errorf("P(Σ=0) = %g, want 0.504", coef[0])
	}
	if !almostEqual(coef[1], 0.398, 1e-12) {
		t.Errorf("P(Σ=1) = %g, want 0.398", coef[1])
	}
	cdf := CDF(coef)
	if !almostEqual(cdf[2], 0.902, 1e-12) {
		t.Errorf("P(Σ<2) = %g, want 0.902", cdf[2])
	}
	want := bruteForcePoissonBinomial([]float64{0.2, 0.1, 0.3})
	for k := range want {
		if !almostEqual(coef[k], want[k], 1e-12) {
			t.Errorf("P(Σ=%d) = %g, brute force says %g", k, coef[k], want[k])
		}
	}
}

func TestPoissonBinomialMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(11)
		ps := make([]float64, n)
		for i := range ps {
			ps[i] = rng.Float64()
		}
		got := PoissonBinomial(ps)
		want := bruteForcePoissonBinomial(ps)
		for k := range want {
			if !almostEqual(got[k], want[k], 1e-9) {
				t.Fatalf("n=%d k=%d: got %g want %g", n, k, got[k], want[k])
			}
		}
	}
}

func TestPoissonBinomialMassSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		ps := make([]float64, n)
		for i := range ps {
			ps[i] = rng.Float64()
		}
		sum := 0.0
		for _, c := range PoissonBinomial(ps) {
			sum += c
		}
		if !almostEqual(sum, 1, 1e-9) {
			t.Fatalf("mass = %g", sum)
		}
	}
}

func TestPoissonBinomialEdgeCases(t *testing.T) {
	if got := PoissonBinomial(nil); len(got) != 1 || got[0] != 1 {
		t.Errorf("empty product = %v", got)
	}
	got := PoissonBinomial([]float64{1, 1, 0})
	if !almostEqual(got[2], 1, 1e-12) {
		t.Errorf("deterministic sum: %v", got)
	}
}

func TestPoissonBinomialTruncatedMatchesPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		ps := make([]float64, n)
		for i := range ps {
			ps[i] = rng.Float64()
		}
		full := PoissonBinomial(ps)
		for _, k := range []int{1, 2, 5, n, n + 3} {
			tr := PoissonBinomialTruncated(ps, k)
			for j := range tr {
				if !almostEqual(tr[j], full[j], 1e-9) {
					t.Fatalf("truncated[%d] = %g, full = %g", j, tr[j], full[j])
				}
			}
			if want := minInt(k, n+1); len(tr) != want {
				t.Fatalf("truncated len = %d, want %d", len(tr), want)
			}
		}
	}
	if PoissonBinomialTruncated([]float64{0.5}, 0) != nil {
		t.Error("kMax=0 should return nil")
	}
}

func TestValidateProbPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p > 1")
		}
	}()
	PoissonBinomial([]float64{1.5})
}

// CDF accumulates coefficients into P(Σ X_i < k) for each k, i.e.
// out[k] = Σ_{j<k} coef[j]. out has len(coef)+1 entries and out[len]
// is the total mass.
func CDF(coef []float64) []float64 {
	out := make([]float64, len(coef)+1)
	sum := 0.0
	for k, c := range coef {
		out[k] = sum
		sum += c
	}
	out[len(coef)] = sum
	return out
}

func TestCDF(t *testing.T) {
	cdf := CDF([]float64{0.5, 0.3, 0.2})
	want := []float64{0, 0.5, 0.8, 1.0}
	for i := range want {
		if !almostEqual(cdf[i], want[i], 1e-12) {
			t.Errorf("cdf[%d] = %g, want %g", i, cdf[i], want[i])
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
