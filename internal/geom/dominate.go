package geom

// This file implements the spatial domination criteria of Section III-A.
//
// Domination is the core predicate of the framework: object A dominates
// object B with respect to reference R when every possible location of A
// is closer to every possible location of R than every possible location
// of B is. On rectangular uncertainty regions the predicate can be
// decided geometrically, without integrating any PDF.

// Dominates reports whether rectangle a completely dominates rectangle b
// w.r.t. reference rectangle r under norm n, i.e. whether
// PDom(A, B, R) = 1 (Corollary 1 of the paper).
//
// It uses the optimal decision criterion of Emrich et al. [15]:
//
//	sum_i  max_{ri in {Rmin_i, Rmax_i}} ( MaxDist(A_i, ri)^p − MinDist(B_i, ri)^p )  <  0
//
// which — unlike the min/max criterion — accounts for the dependency of
// dist(A, R) and dist(B, R) through the single (unknown) location of R.
// The criterion is tight: it detects domination if and only if it holds.
//
// For the maximum norm (LInf) the per-dimension sum decomposition does
// not apply and the conservative min/max criterion is used instead.
func Dominates(n Norm, a, b, r Rect) bool {
	if n.IsInf() {
		return DominatesMinMax(n, a, b, r)
	}
	if n.P == 2 {
		return criterionSumL2(a, b, r) < 0
	}
	return criterionSum(n, a, b, r) < 0
}

// criterionSum evaluates the left-hand side of the optimal criterion
// for an arbitrary finite exponent.
func criterionSum(n Norm, a, b, r Rect) float64 {
	sum := 0.0
	for i := range r.Min {
		lo := dimTerm(n, a, b, r.Min[i], i)
		hi := dimTerm(n, a, b, r.Max[i], i)
		if hi > lo {
			sum += hi
		} else {
			sum += lo
		}
	}
	return sum
}

// dimTerm evaluates MaxDist(A_i, ri)^p − MinDist(B_i, ri)^p for one
// dimension i and one candidate corner coordinate ri of R. The
// conversions keep the two powers individually rounded on platforms
// that would otherwise fuse the subtraction into a multiply-add.
func dimTerm(n Norm, a, b Rect, ri float64, i int) float64 {
	maxA := IntervalMaxDist(a.Min[i], a.Max[i], ri)
	minB := IntervalMinDist(b.Min[i], b.Max[i], ri)
	return float64(powP(maxA, n.P)) - float64(powP(minB, n.P))
}

// criterionSumL2 is criterionSum for p = 2 with the per-dimension term
// written out: the same operations in the same order, so the sum is
// bit-identical on finite coordinates (FuzzDominatesL2), but without a
// call in the loop — IDCA refinement spends most of its time here, and
// math.Max is an assembly routine the compiler never inlines.
func criterionSumL2(a, b, r Rect) float64 {
	// Reslicing to the common dimension lets the compiler drop the
	// bounds checks inside the loop.
	d := len(r.Min)
	rmax, amin, amax, bmin, bmax := r.Max[:d], a.Min[:d], a.Max[:d], b.Min[:d], b.Max[:d]
	sum := 0.0
	for i, rlo := range r.Min {
		lo := l2Term(amin[i], amax[i], bmin[i], bmax[i], rlo)
		hi := l2Term(amin[i], amax[i], bmin[i], bmax[i], rmax[i])
		if hi > lo {
			sum += hi
		} else {
			sum += lo
		}
	}
	return sum
}

// l2Term is dimTerm for p = 2 on bare coordinates, small enough to be
// inlined into criterionSumL2's loop.
func l2Term(alo, ahi, blo, bhi, ri float64) float64 {
	maxA, d := ri-alo, ahi-ri
	if maxA < 0 {
		maxA = -maxA
	}
	if d < 0 {
		d = -d
	}
	if d > maxA {
		maxA = d
	}
	minB := 0.0
	if ri < blo {
		minB = blo - ri
	} else if ri > bhi {
		minB = ri - bhi
	}
	return float64(maxA*maxA) - float64(minB*minB)
}

// DominatesMinMax reports whether a dominates b w.r.t. r according to
// the classical min/max criterion: MaxDist(A, R) < MinDist(B, R).
// The criterion is correct but not tight; Dominates detects a strict
// superset of the cases (the gap is what Figure 6 of the paper
// measures).
func DominatesMinMax(n Norm, a, b, r Rect) bool {
	return a.MaxDistRect(n, r) < b.MinDistRect(n, r)
}

// Criterion selects which complete-domination decision procedure the
// filter step of the algorithm uses. It is the independent variable of
// the paper's Figure 6 experiment.
type Criterion int

const (
	// Optimal is the tight criterion of Corollary 1 (default).
	Optimal Criterion = iota
	// MinMax is the classical min/max-distance criterion.
	MinMax
)

// String returns the display name used in the experiment output.
func (c Criterion) String() string {
	switch c {
	case Optimal:
		return "Optimal"
	case MinMax:
		return "MinMax"
	default:
		return "Unknown"
	}
}

// Decide applies the selected criterion.
func (c Criterion) Decide(n Norm, a, b, r Rect) bool {
	if c == MinMax {
		return DominatesMinMax(n, a, b, r)
	}
	return Dominates(n, a, b, r)
}

// powP raises a non-negative base to the norm exponent, with fast paths
// for the common p = 1 and p = 2 cases.
func powP(x, p float64) float64 {
	switch p {
	case 1:
		return x
	case 2:
		return x * x
	default:
		return powFloat(x, p)
	}
}
