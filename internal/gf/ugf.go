package gf

// This file implements Uncertain Generating Functions (Section IV-C of
// the paper).
//
// A UGF bounds the distribution of a sum Σ of independent Bernoulli
// variables whose success probabilities are only known as intervals
// [LB_i, UB_i]. The paper expands
//
//	F^N = Π_i [LB_i·x + (UB_i−LB_i)·y + (1−UB_i)] = Σ_{i,j} c_{i,j} x^i y^j:
//
// each variable is, independently, a success for sure (x, probability
// LB_i), possibly one (y, UB_i−LB_i) or surely none (1, 1−UB_i). With X
// counting the x states and Y the y states, c_{i,j} = P(X = i, Y = j)
// and Σ lies in [X, X+Y]. Every bound Lemma 4 reads off the c_{i,j}
// depends on one of three 1-D distributions only:
//
//	P(Σ = k) ≥ c_{k,0}                 = P(X = k, Y = 0)
//	P(Σ = k) ≤ Σ_{i≤k, i+j≥k} c_{i,j}  = P(X ≤ k) − P(X+Y < k)
//	P(Σ < k) ≥ Σ_{i+j<k} c_{i,j}       = P(X+Y < k)
//	P(Σ < k) ≤ Σ_{i<k} c_{i,j}         = P(X < k)
//
// X is Poisson binomial over the LB_i, X+Y over the UB_i, and
// P(X = k, Y = 0) is the z^k coefficient of Π_i (1−UB_i + LB_i·z). So a
// UGF is three polynomials, each multiplied by one linear factor per
// variable: O(N) per factor and O(N²) for the full expansion. The
// bounds of the counts below k read no term of degree k or more, so
// truncating at kMax just drops those terms and costs O(k·N)
// (Section VI's reduction, without its merge rules).

// Interval is a conservative/progressive probability bound pair.
type Interval struct {
	// LB <= UB; both in [0, 1].
	LB, UB float64
}

// Width returns UB − LB, the residual uncertainty of the interval. The
// paper's Figure 6(b)/7 "uncertainty" metric is the sum of widths over
// the domination-count PDF.
func (iv Interval) Width() float64 { return iv.UB - iv.LB }

// Contains reports whether p lies within the closed interval, up to eps.
func (iv Interval) Contains(p, eps float64) bool {
	return p >= iv.LB-eps && p <= iv.UB+eps
}

// Exact returns the degenerate interval [p, p].
func Exact(p float64) Interval { return Interval{LB: p, UB: p} }

// UGF is an uncertain generating function under expansion. The zero
// value is not usable; construct with NewUGF or NewTruncatedUGF, or
// Reset it.
type UGF struct {
	// kMax > 0 keeps only the terms of degree below kMax: all that the
	// bounds of P(Σ = k) for k < kMax and of P(Σ < k) for k ≤ kMax read.
	// kMax == 0 means no truncation.
	kMax int
	// n is the number of factors multiplied in so far.
	n int
	// x, xy and x0 hold the coefficients of Π(1−LB_i + LB_i·z),
	// Π(1−UB_i + UB_i·z) and Π(1−UB_i + LB_i·z): P(X = k), P(X+Y = k)
	// and P(X = k, Y = 0). Reset keeps their storage, which is what lets
	// a query session expand every partition pair through one UGF
	// without allocating.
	x, xy, x0 []float64
}

// NewUGF returns the neutral UGF F⁰ = 1 with no truncation.
func NewUGF() *UGF {
	f := &UGF{}
	f.Reset(0)
	return f
}

// NewTruncatedUGF returns the neutral UGF that tracks only the state
// needed to bound P(Σ = x) for x < kMax. kMax <= 0 panics: it is a
// programmer error, since callers ask for truncation only with a
// positive Options.KMax.
func NewTruncatedUGF(kMax int) *UGF {
	if kMax <= 0 {
		panic("gf: NewTruncatedUGF requires kMax > 0")
	}
	f := &UGF{}
	f.Reset(kMax)
	return f
}

// Reset rewinds the UGF to the neutral element F⁰ = 1 with the given
// truncation bound (kMax <= 0 disables truncation), retaining the
// coefficient storage of previous expansions. A reset-and-reused UGF
// produces bit-identical bounds to a freshly constructed one.
func (f *UGF) Reset(kMax int) {
	f.kMax, f.n = max(kMax, 0), 0
	f.x = append(f.x[:0], 1)
	f.xy = append(f.xy[:0], 1)
	f.x0 = append(f.x0[:0], 1)
}

// N returns the number of factors multiplied into the UGF so far.
func (f *UGF) N() int { return f.n }

// Multiply folds one more Bernoulli factor with probability interval iv
// into the UGF: F ← F · [LB·x + (UB−LB)·y + (1−UB)].
func (f *UGF) Multiply(iv Interval) {
	validateInterval(iv.LB, iv.UB)
	f.n++
	f.x = mulLinear(f.x, 1-iv.LB, iv.LB, f.kMax)
	f.xy = mulLinear(f.xy, 1-iv.UB, iv.UB, f.kMax)
	f.x0 = mulLinear(f.x0, 1-iv.UB, iv.LB, f.kMax)
}

// MultiplyAll folds a sequence of probability intervals into the UGF.
func (f *UGF) MultiplyAll(ivs []Interval) {
	for _, iv := range ivs {
		f.Multiply(iv)
	}
}

// Terms returns the degree-k coefficients of the three polynomials,
// P(X = k), P(X+Y = k) and P(X = k, Y = 0), or zeros past the tracked
// degree. With running sums over k they give every bound in one pass.
func (f *UGF) Terms(k int) (x, xy, x0 float64) {
	if k < 0 || k >= len(f.x) {
		return 0, 0, 0
	}
	return f.x[k], f.xy[k], f.x0[k]
}

// below returns Σ_{j<k} p[j].
func below(p []float64, k int) float64 {
	sum := 0.0
	for j := 0; j < k && j < len(p); j++ {
		sum += p[j]
	}
	return sum
}

// LowerBound returns the conservative bound c_{k,0} of P(Σ = k). For a
// truncated UGF the value is only meaningful for k < kMax.
func (f *UGF) LowerBound(k int) float64 {
	_, _, x0 := f.Terms(k)
	return x0
}

// UpperBound returns the progressive bound P(X ≤ k) − P(X+Y < k) of
// P(Σ = k), clamped to [LowerBound(k), 1], and 0 for a count outside
// [0, N]. For a truncated UGF the value is only meaningful for k < kMax.
func (f *UGF) UpperBound(k int) float64 {
	switch {
	case f.kMax > 0 && k >= f.kMax:
		return 1
	case k < 0 || k > f.n:
		return 0
	}
	return min(max(below(f.x, k+1)-below(f.xy, k), f.LowerBound(k)), 1)
}

// Bound returns the [LB, UB] interval for P(Σ = k).
func (f *UGF) Bound(k int) Interval {
	return Interval{LB: f.LowerBound(k), UB: f.UpperBound(k)}
}

// Bounds returns the bound intervals for all k in [0, n]. For a
// truncated UGF only entries below kMax are meaningful and the slice is
// cut there.
func (f *UGF) Bounds() []Interval {
	hi := f.n
	if f.kMax > 0 && f.kMax < hi+1 {
		hi = f.kMax - 1
	}
	out := make([]Interval, hi+1)
	for k := range out {
		out[k] = f.Bound(k)
	}
	return out
}

// CDFBound returns the [LB, UB] interval for P(Σ < k): [P(X+Y < k),
// P(X < k)], capped at 1, with the lower end kept at or below the
// upper. A truncated UGF answers a k past kMax with its bounds at kMax
// widened to 1 above, which is still sound.
func (f *UGF) CDFBound(k int) Interval {
	if f.kMax > 0 && k > f.kMax {
		return Interval{LB: f.CDFBound(f.kMax).LB, UB: 1}
	}
	ub := min(below(f.x, k), 1)
	return Interval{LB: min(below(f.xy, k), ub), UB: ub}
}

// CDFLowerBound returns the conservative bound P(X+Y < k) of P(Σ < k):
// every world with X+Y < k has Σ < k.
func (f *UGF) CDFLowerBound(k int) float64 { return f.CDFBound(k).LB }

// CDFUpperBound returns the progressive bound P(X < k) of P(Σ < k):
// every world with Σ < k has X < k.
func (f *UGF) CDFUpperBound(k int) float64 { return f.CDFBound(k).UB }
