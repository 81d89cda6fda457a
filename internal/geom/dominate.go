package geom

import (
	"cmp"
	"math"
	"math/big"
	"math/bits"
)

// This file implements the spatial domination criteria of Section III-A.
//
// Domination is the core predicate of the framework: object A dominates
// object B with respect to reference R when every possible location of A
// is closer to every possible location of R than every possible location
// of B is. On rectangular uncertainty regions the predicate can be
// decided geometrically, without integrating any PDF.

// Relation is the three-valued verdict of the complete-domination
// predicate for a triple (A, B, R) of rectangles.
type Relation uint8

const (
	// Unknown: neither Dominates nor NeverCloser could be established.
	Unknown Relation = iota
	// Dominates: every location of A is strictly closer to every
	// location of R than every location of B — PDom(A, B, R) = 1.
	Dominates
	// NeverCloser: no location of A is strictly closer to a location of
	// R than a location of B — PDom(A, B, R) = 0 under DomCount's strict
	// "closer than".
	NeverCloser
)

// Criterion selects which complete-domination decision procedure the
// filter and refinement steps of the algorithm use. It is the
// independent variable of the paper's Figure 6 experiment. Either one
// is applied through a PairKernel: Dominates needs A strictly closer
// than B in every world, the strict "closer than" of DomCount;
// NeverCloser needs A at best as close as B in every world, so that A
// never counts. Under Optimal with L1 or L2 both verdicts are
// exact on the stored float64 coordinates (a float sum decides outside
// its derived rounding-error bound, an exact evaluation inside it);
// MinMax compares MaxDist and MinDist in floating point, strictly both
// ways.
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

// relateMinMax is PairKernel.Relate for the generic comparison of
// MaxDist and MinDist.
func relateMinMax(n Norm, a, b, r Rect) Relation {
	switch {
	case DominatesMinMax(n, a, b, r):
		return Dominates
	case DominatesMinMax(n, b, a, r):
		return NeverCloser
	}
	return Unknown
}

// DominatesMinMax reports whether a dominates b w.r.t. r according to
// the classical min/max criterion: MaxDist(A, R) < MinDist(B, R).
// The criterion is correct but not tight; Optimal detects a strict
// superset of the cases (the gap is what Figure 6 of the paper
// measures).
func DominatesMinMax(n Norm, a, b, r Rect) bool {
	return a.MaxDistRect(n, r) < b.MinDistRect(n, r)
}

// PairKernel decides the complete-domination relation of any number of
// rectangles A to one pair (B, R) under one norm and criterion: the one
// geometric predicate every bound and every filter decision rests on.
// Reset builds it once per pair — per (target, reference) in the filter
// step, per (B′, R′) partition pair in IDCA refinement (Section IV-E) —
// and Relate decides each A.
//
// Optimal with a finite exponent p uses the criterion of Emrich et al.
// [15] (Corollary 1 of the paper), a sum over dimensions i with one
// term per dimension:
//
//	forward  Σ_i max_{ri ∈ {Rmin_i, Rmax_i}} MaxDist(A_i, ri)^p − MinDist(B_i, ri)^p  < 0  ⇒ Dominates
//	reverse  Σ_i max_{ri ∈ {Rmin_i, Rmax_i}} MaxDist(B_i, ri)^p − MinDist(A_i, ri)^p  ≤ 0  ⇒ NeverCloser
//
// Unlike the min/max criterion it accounts for the dependency of
// dist(A, R) and dist(B, R) through the single location of R, and it is
// tight: the maximum over the closed rectangles is attained, so the
// forward sum is negative exactly when A dominates and the reverse sum
// is at most zero exactly when A is never strictly closer. For each
// dimension and each R corner, MinDist(B_i, ri)^p (forward sum) and
// MaxDist(B_i, ri)^p (reverse sum) are constants of the pair, so Relate
// computes only the A terms, and the reverse sum only when the forward
// one does not decide.
//
// Each sum is evaluated in floating point together with a bound on its
// rounding error, a small multiple of ε·Σ(MaxDist^p + MinDist^p) over
// both corners of every dimension (errScale). The float sum decides only
// when its magnitude exceeds that bound. Below it, p = 1 and p = 2 are
// decided by an exact evaluation on the stored coordinates, so the
// verdict is exactly the sign of the criterion on the float64 inputs;
// any other p answers Unknown, which is sound but not tight.
//
// MinMax, and every criterion under the maximum norm (for which the
// per-dimension decomposition does not apply), compare MaxDist and
// MinDist as DominatesMinMax does, in both directions.
//
// The zero value is ready for Reset; up to four dimensions need no
// allocation.
type PairKernel struct {
	n Norm
	// minMax selects the generic comparison (MinMax or L∞).
	minMax bool
	b, r   Rect
	d      int
	inline [4]pairTerm
	spill  []pairTerm // the terms when d exceeds inline
	// minB and maxB sum the hoisted powers over dimensions and corners:
	// the B′ halves of the forward and reverse error bounds.
	minB, maxB float64
	scale      float64
}

// pairTerm is one dimension of a (B′, R′) pair: R′'s two corner
// coordinates and B′'s distance powers at each.
type pairTerm struct {
	rlo, rhi       float64
	minBlo, minBhi float64 // MinDist(B′_i, ri)^p at ri = rlo, rhi
	maxBlo, maxBhi float64 // MaxDist(B′_i, ri)^p
}

// Reset builds the kernel for the pair (b, r) under norm n and
// criterion c.
func (k *PairKernel) Reset(n Norm, c Criterion, b, r Rect) {
	k.n, k.minMax, k.b, k.r = n, c == MinMax || n.IsInf(), b, r
	if k.minMax {
		return
	}
	k.d = len(r.Min)
	if k.d > len(k.inline) && cap(k.spill) < k.d {
		k.spill = make([]pairTerm, k.d)
	}
	terms := k.terms()
	bmin, bmax, rmax := b.Min[:k.d], b.Max[:k.d], r.Max[:k.d]
	k.minB, k.maxB = 0, 0
	for i, rlo := range r.Min {
		t := &terms[i]
		t.rlo, t.rhi = rlo, rmax[i]
		t.minBlo, t.minBhi = IntervalMinDist(bmin[i], bmax[i], t.rlo), IntervalMinDist(bmin[i], bmax[i], t.rhi)
		t.maxBlo, t.maxBhi = maxDist(bmin[i], bmax[i], t.rlo), maxDist(bmin[i], bmax[i], t.rhi)
		if n.P == 2 {
			t.minBlo, t.minBhi, t.maxBlo, t.maxBhi = sq(t.minBlo), sq(t.minBhi), sq(t.maxBlo), sq(t.maxBhi)
		} else {
			t.minBlo, t.minBhi = powP(t.minBlo, n.P), powP(t.minBhi, n.P)
			t.maxBlo, t.maxBhi = powP(t.maxBlo, n.P), powP(t.maxBhi, n.P)
		}
		k.minB += t.minBlo + t.minBhi
		k.maxB += t.maxBlo + t.maxBhi
	}
	k.scale = errScale(n.P, k.d)
}

// terms returns the kernel's per-dimension terms.
func (k *PairKernel) terms() []pairTerm {
	if k.d <= len(k.inline) {
		return k.inline[:k.d]
	}
	return k.spill[:k.d]
}

// Relate returns the relation of a to the kernel's pair (b, r).
func (k *PairKernel) Relate(a Rect) Relation {
	if k.minMax {
		return relateMinMax(k.n, a, k.b, k.r)
	}
	p, terms := k.n.P, k.terms()
	s, m := k.forward(terms, a.Min, a.Max)
	if e := bound(m+k.minB, k.scale); s < -e || !(s > e) && exactly(p, true, a, k.b, k.r) {
		return Dominates
	}
	// MinDist(A_i, ri) <= MaxDist(A_i, ri), so the forward sum's A half
	// bounds the reverse sum's too.
	s = k.reverse(terms, a.Min, a.Max)
	if e := bound(m+k.maxB, k.scale); s < -e || !(s > e) && exactly(p, false, k.b, a, k.r) {
		return NeverCloser
	}
	return Unknown
}

// forward returns the forward criterion sum over the kernel's terms for
// the A′ corners amin, amax, and the A′ half of its magnitude:
// MaxDist(A′_i, ri)^p summed over dimensions and corners. The p = 2
// loop is forwardTerm written out — the same operations in the same
// order, without a call or a power switch per term (FuzzDominatesL2
// holds the two to the same bits).
func (k *PairKernel) forward(terms []pairTerm, amin, amax []float64) (s, m float64) {
	// Reslicing to the common dimension lets the compiler drop the
	// bounds checks inside the loops.
	amin, amax = amin[:len(terms)], amax[:len(terms)]
	if k.n.P != 2 {
		for i := range terms {
			x, y := terms[i].forwardTerm(k.n.P, amin[i], amax[i])
			s, m = s+x, m+y
		}
		return s, m
	}
	for i := range terms {
		t := &terms[i]
		lo, hi := sq(maxDist(amin[i], amax[i], t.rlo)), sq(maxDist(amin[i], amax[i], t.rhi))
		s, m = s+max2(lo-t.minBlo, hi-t.minBhi), m+(lo+hi)
	}
	return s, m
}

// reverse returns the reverse criterion sum over the kernel's terms for
// the A′ corners amin, amax, written out for p = 2 as forward is.
func (k *PairKernel) reverse(terms []pairTerm, amin, amax []float64) (s float64) {
	amin, amax = amin[:len(terms)], amax[:len(terms)]
	if k.n.P != 2 {
		for i := range terms {
			s += terms[i].reverseTerm(k.n.P, amin[i], amax[i])
		}
		return s
	}
	for i := range terms {
		t := &terms[i]
		lo, hi := sq(IntervalMinDist(amin[i], amax[i], t.rlo)), sq(IntervalMinDist(amin[i], amax[i], t.rhi))
		s += max2(t.maxBlo-lo, t.maxBhi-hi)
	}
	return s
}

// forwardTerm returns dimension i's forward term, max over the two
// corners of MaxDist(A_i, ri)^p − MinDist(B_i, ri)^p, and the A half of
// its magnitude, MaxDist(A_i, ri)^p summed over both corners, for any
// finite exponent.
func (t *pairTerm) forwardTerm(p, alo, ahi float64) (term, mag float64) {
	lo := powP(IntervalMaxDist(alo, ahi, t.rlo), p)
	hi := powP(IntervalMaxDist(alo, ahi, t.rhi), p)
	return max2(lo-t.minBlo, hi-t.minBhi), lo + hi
}

// reverseTerm returns dimension i's reverse term, max over the two
// corners of MaxDist(B_i, ri)^p − MinDist(A_i, ri)^p.
func (t *pairTerm) reverseTerm(p, alo, ahi float64) float64 {
	lo := powP(IntervalMinDist(alo, ahi, t.rlo), p)
	hi := powP(IntervalMinDist(alo, ahi, t.rhi), p)
	return max2(t.maxBlo-lo, t.maxBhi-hi)
}

// maxDist is IntervalMaxDist for lo <= hi, written to inline: of x − lo
// and hi − x, which sum to hi − lo >= 0, the larger is never below the
// other's magnitude, and rounding keeps that order. The two agree up to
// the sign of a zero, which no power or comparison here can see.
func maxDist(lo, hi, x float64) float64 { return max2(x-lo, hi-x) }

// max2 picks the larger of two terms; on a tie (or a NaN in hi) the
// first.
func max2(lo, hi float64) float64 {
	if hi > lo {
		return hi
	}
	return lo
}

// sq squares x, rounded on its own: the conversion keeps platforms
// that fuse multiply-adds from merging it into the subtraction that
// follows.
func sq(x float64) float64 { return float64(x * x) }

// powP raises a non-negative base to the norm exponent, rounded on its
// own, with fast paths for the common p = 2 and p = 1 cases.
func powP(x, p float64) float64 {
	if p == 2 {
		return sq(x)
	}
	if p == 1 {
		return x
	}
	return powFloat(x, p)
}

// errScale returns the factor that turns a criterion sum's magnitude
// Σ(MaxDist^p + MinDist^p), over both corners of d dimensions, into a
// bound on the sum's rounding error. For p = 2 each power carries at
// most 3 roundings (a difference and a square) and each term one more
// (the subtraction), so a term is off by at most 4.02ε times its two
// powers; picking the larger corner term is off by at most the larger
// of the two errors, and summing d terms adds (d−1)ε times their
// magnitudes. The total is below (d + 4)ε times the magnitude, rounded
// itself with a relative error below 4(d+1)ε; twice that, with ε =
// 2⁻⁵³, is (d+4)·2⁻⁵² — and p = 1 (one rounding per power) is covered
// by the same factor. For other exponents math.Pow contributes well
// under (2p + 4096)ε per power over the whole float64 range. The reverse
// sum's MinDist(A_i, ri)^p never exceeds MaxDist(A_i, ri)^p, so the
// forward sum's A half stands in for its own.
func errScale(p float64, d int) float64 {
	if p == 1 || p == 2 {
		return float64(d+4) * 0x1p-52
	}
	return (float64(d) + 2*p + 4096) * 0x1p-52
}

// bound returns the rounding-error bound of a criterion sum with
// magnitude mag. The absolute term covers the error of squares and
// powers that underflow, a few units of 2⁻¹⁰⁷⁴ each.
func bound(mag, scale float64) float64 { return mag*scale + 0x1p-1000 }

// exactly reports whether the criterion sum over (x, y, r) — with x
// the MaxDist side and y the MinDist side — is negative (strict) or at
// most zero (!strict), evaluated exactly on the stored coordinates; it
// is false where exactSign has no exact evaluation.
func exactly(p float64, strict bool, x, y, r Rect) bool {
	sign, ok := exactSign(p, x, y, r)
	return ok && (sign < 0 || !strict && sign == 0)
}

// exactSign returns the sign of the criterion sum
//
//	Σ_i max_{ri ∈ {Rmin_i, Rmax_i}} MaxDist(X_i, ri)^p − MinDist(Y_i, ri)^p
//
// evaluated exactly on the stored coordinates, for p = 1 and p = 2 and
// finite coordinates; ok is false otherwise. It is the slow path of
// PairKernel.Relate, taken only when the float sum is within its
// rounding error of zero (or NaN), as it is at every tie. Every float64 is an integer
// multiple of a power of two, so when the coordinates span at most 60
// bits from the lowest set bit of any of them to the highest, they scale
// to int64s and the sum is taken in 128-bit integers; wider spans, and
// more than 16 dimensions, take big.Rat.
func exactSign(p float64, x, y, r Rect) (sign int, ok bool) {
	if p != 1 && p != 2 {
		return 0, false
	}
	// lo is the least exponent of a set bit, hi one past the greatest.
	lo, hi := math.MaxInt, math.MinInt
	for _, rc := range [3]Rect{x, y, r} {
		for _, side := range [2]Point{rc.Min, rc.Max} {
			for _, v := range side {
				if !finite(v) {
					return 0, false
				}
				if v != 0 {
					m, e := mantExp(math.Abs(v))
					lo, hi = min(lo, e), max(hi, e+bits.Len64(uint64(m)))
				}
			}
		}
	}
	if hi > lo && hi-lo > 60 || len(r.Min) > 16 {
		return ratSign(p, x, y, r), true
	}
	// scale maps v to the integer v·2^−lo.
	scale := func(v float64) int64 {
		if v == 0 {
			return 0
		}
		m, e := mantExp(v)
		return m << (e - lo)
	}
	pow := func(v int64) int128 {
		if p == 1 {
			return int128{lo: uint64(v)}
		}
		h, l := bits.Mul64(uint64(v), uint64(v))
		return int128{hi: int64(h), lo: l}
	}
	var sum int128
	for i := range r.Min {
		xlo, xhi, ylo, yhi := scale(x.Min[i]), scale(x.Max[i]), scale(y.Min[i]), scale(y.Max[i])
		var best int128
		for c, ri := range [2]int64{scale(r.Min[i]), scale(r.Max[i])} {
			t := pow(max(ri-xlo, xhi-ri)).sub(pow(max(ylo-ri, ri-yhi, 0)))
			if c == 0 || t.cmp(best) > 0 {
				best = t
			}
		}
		sum = sum.add(best)
	}
	return sum.sign(), true
}

// mantExp returns the odd integer m and the exponent e with v = m·2^e,
// for finite v != 0.
func mantExp(v float64) (m int64, e int) {
	b := math.Float64bits(v)
	m, e = int64(b&(1<<52-1)), int(b>>52&0x7ff)
	if e == 0 {
		e = 1 // subnormal
	} else {
		m |= 1 << 52
	}
	e -= 1075
	tz := bits.TrailingZeros64(uint64(m))
	m, e = m>>tz, e+tz
	if b>>63 != 0 {
		m = -m
	}
	return m, e
}

// int128 is a two's-complement 128-bit integer: hi·2^64 + lo.
type int128 struct {
	hi int64
	lo uint64
}

func (a int128) add(b int128) int128 {
	lo, c := bits.Add64(a.lo, b.lo, 0)
	return int128{a.hi + b.hi + int64(c), lo}
}

func (a int128) sub(b int128) int128 {
	lo, c := bits.Sub64(a.lo, b.lo, 0)
	return int128{a.hi - b.hi - int64(c), lo}
}

func (a int128) cmp(b int128) int {
	switch {
	case a.hi != b.hi:
		return cmp.Compare(a.hi, b.hi)
	default:
		return cmp.Compare(a.lo, b.lo)
	}
}

func (a int128) sign() int { return a.cmp(int128{}) }

// ratSign is exactSign in rational arithmetic, for any span.
func ratSign(p float64, x, y, r Rect) int {
	rat := func(v float64) *big.Rat { return new(big.Rat).SetFloat64(v) }
	// dist returns |u − v| exactly.
	dist := func(u, v float64) *big.Rat {
		d := rat(u)
		return d.Abs(d.Sub(d, rat(v)))
	}
	pow := func(z *big.Rat) *big.Rat {
		if p == 2 {
			z.Mul(z, z)
		}
		return z
	}
	sum := new(big.Rat)
	for i := range r.Min {
		var best *big.Rat
		for _, ri := range [2]float64{r.Min[i], r.Max[i]} {
			maxX := dist(ri, x.Min[i])
			if e := dist(x.Max[i], ri); e.Cmp(maxX) > 0 {
				maxX = e
			}
			minY := new(big.Rat)
			if ri < y.Min[i] {
				minY = dist(y.Min[i], ri)
			} else if ri > y.Max[i] {
				minY = dist(ri, y.Max[i])
			}
			t := pow(maxX)
			t.Sub(t, pow(minY))
			if best == nil || t.Cmp(best) > 0 {
				best = t
			}
		}
		sum.Add(sum, best)
	}
	return sum.Sign()
}

func finite(v float64) bool { return v-v == 0 }
