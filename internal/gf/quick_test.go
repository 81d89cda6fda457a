package gf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// quickProbs converts arbitrary fuzz input into a valid probability
// vector of bounded length.
func quickProbs(raw []float64) []float64 {
	if len(raw) > 24 {
		raw = raw[:24]
	}
	out := make([]float64, len(raw))
	for i, v := range raw {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0.5
		}
		out[i] = math.Abs(math.Mod(v, 1))
	}
	return out
}

// Property: the Poisson binomial expansion has unit mass and its mean
// equals the sum of the success probabilities (linearity of
// expectation) for arbitrary probability vectors.
func TestQuickPoissonBinomialMassAndMean(t *testing.T) {
	f := func(raw []float64) bool {
		ps := quickProbs(raw)
		coef := PoissonBinomial(ps)
		mass, mean, want := 0.0, 0.0, 0.0
		for k, c := range coef {
			mass += c
			mean += float64(k) * c
		}
		for _, p := range ps {
			want += p
		}
		return math.Abs(mass-1) < 1e-9 && math.Abs(mean-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: UGF bounds are always ordered (LB <= UB), its polynomials
// have total mass one, and the definite masses sum to at most one.
func TestQuickUGFStructure(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Rand:     rand.New(rand.NewSource(77)),
	}
	f := func(raw []float64, seed int64) bool {
		ps := quickProbs(raw)
		rng := rand.New(rand.NewSource(seed))
		u := NewUGF()
		for _, lb := range ps {
			ub := lb + rng.Float64()*(1-lb)
			u.Multiply(Interval{LB: lb, UB: ub})
		}
		if x, xy := masses(u); math.Abs(x-1) > 1e-9 || math.Abs(xy-1) > 1e-9 {
			return false
		}
		definite := 0.0
		for k := 0; k <= len(ps); k++ {
			iv := u.Bound(k)
			if iv.LB > iv.UB+1e-12 || iv.LB < -1e-12 || iv.UB > 1+1e-12 {
				return false
			}
			definite += iv.LB
		}
		return definite <= 1+1e-9
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: CDF bounds are monotone in k, for the UGF in full and
// truncated (whose CDF bounds are also the two-GF baseline's) and for
// the 2-D reference.
func TestQuickCDFMonotone(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Rand:     rand.New(rand.NewSource(78)),
	}
	f := func(raw []float64, seed int64) bool {
		ps := quickProbs(raw)
		rng := rand.New(rand.NewSource(seed))
		ivs := make([]Interval, len(ps))
		for i, lb := range ps {
			ivs[i] = Interval{LB: lb, UB: lb + rng.Float64()*(1-lb)}
		}
		u, tr, ref := NewUGF(), NewTruncatedUGF(1+rng.Intn(8)), newRefUGF(0)
		u.MultiplyAll(ivs)
		tr.MultiplyAll(ivs)
		ref.MultiplyAll(ivs)
		var prev [3]Interval
		for k := 0; k <= len(ps)+1; k++ {
			for i, c := range [3]Interval{u.CDFBound(k), tr.CDFBound(k), ref.CDFBound(k)} {
				if c.LB < prev[i].LB-1e-12 || c.UB < prev[i].UB-1e-12 {
					return false
				}
				prev[i] = c
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
