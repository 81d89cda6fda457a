// Package gf implements the generating-function machinery of Section IV
// of the paper: the classical generating function over independent
// Bernoulli variables (the Poisson binomial distribution, following Li,
// Saha and Deshpande [19]) and the paper's Uncertain Generating
// Functions (UGFs), which operate on probability *intervals* instead of
// exact probabilities. Both are products of linear factors expanded by
// one kernel, O(N) per factor: O(N²) for a full expansion and O(k·N)
// when only the counts below k are needed (Section VI's truncation).
package gf

import "fmt"

// PoissonBinomial expands the generating function
//
//	F(x) = Π_i (1 − p_i + p_i·x)
//
// and returns its coefficients: out[k] = P(Σ X_i = k) for independent
// Bernoulli variables X_i with P(X_i = 1) = p_i. The expansion costs
// O(N²) time and O(N) space.
func PoissonBinomial(ps []float64) []float64 {
	coef := make([]float64, 1, len(ps)+1)
	coef[0] = 1
	for _, p := range ps {
		validateProb(p)
		coef = mulLinear(coef, 1-p, p, 0)
	}
	return coef
}

// PoissonBinomialTruncated computes only the first kMax coefficients
// P(Σ X_i = k) for k < kMax, dropping higher-degree terms as Section
// IV-C describes ("this cost can be reduced to O(k·N), by simply
// dropping the summands c_j x^j where j ≥ k"). The returned slice has
// min(kMax, N+1) entries; they equal the untruncated prefix exactly.
func PoissonBinomialTruncated(ps []float64, kMax int) []float64 {
	if kMax <= 0 {
		return nil
	}
	coef := make([]float64, 1, kMax)
	coef[0] = 1
	for _, p := range ps {
		validateProb(p)
		coef = mulLinear(coef, 1-p, p, kMax)
	}
	return coef
}

// mulLinear multiplies the polynomial with coefficients p by (a + b·z)
// in place and returns it, one degree longer unless kMax > 0 and it
// already holds kMax terms: truncation drops every term of degree
// kMax or more, which never feeds a lower one.
func mulLinear(p []float64, a, b float64, kMax int) []float64 {
	if kMax <= 0 || len(p) < kMax {
		p = append(p, 0)
	}
	for k := len(p) - 1; k > 0; k-- {
		p[k] = p[k]*a + p[k-1]*b
	}
	p[0] *= a
	return p
}

// validateProb panics on a probability outside [0, 1] (up to 1e-9). The
// panic marks a programmer error, not bad input: probabilities reach
// this package from package domination's interval bounds and package
// mc's sample masses, never from the wire.
func validateProb(p float64) {
	if p < -1e-9 || p > 1+1e-9 {
		panic(fmt.Sprintf("gf: probability %g out of [0,1]", p))
	}
}

// validateInterval panics on an [lb, ub] probability interval that is
// out of range or inverted. Like validateProb it guards a programmer
// error: intervals come from domination.Bounds, never from the wire.
func validateInterval(lb, ub float64) {
	validateProb(lb)
	validateProb(ub)
	if lb > ub+1e-12 {
		panic(fmt.Sprintf("gf: inverted probability interval [%g, %g]", lb, ub))
	}
}
