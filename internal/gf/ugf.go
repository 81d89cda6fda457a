package gf

// This file implements Uncertain Generating Functions (Section IV-C of
// the paper).
//
// A UGF tracks the distribution of a sum of independent Bernoulli
// variables whose success probabilities are only known as intervals
// [PLB_i, PUB_i]. Each factor contributes three terms:
//
//	PLB_i · x                    — X_i = 1 for sure (at least)
//	(1 − PUB_i) · 1              — X_i = 0 for sure (at least)
//	(PUB_i − PLB_i) · y          — unknown
//
// so that F^N = Π_i [PLB_i·x + (PUB_i−PLB_i)·y + (1−PUB_i)]
//             = Σ_{i,j} c_{i,j} x^i y^j.
//
// Coefficient c_{i,j} is the probability that the sum is definitely at
// least i and possibly up to i+j. From the expansion,
//
//	lower bound of P(Σ = k):  c_{k,0}
//	upper bound of P(Σ = k):  Σ_{i ≤ k, i+j ≥ k} c_{i,j}
//
// (Lemma 4). The full expansion has O(N²) coefficients and costs O(N³);
// when only P(Σ = x) for x < k is needed (kNN/RkNN predicates), the
// truncated form merges all coefficients that are equivalent below k
// and costs O(k²·N) (Section VI).

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
// value is not usable; construct with NewUGF or NewTruncatedUGF.
type UGF struct {
	// kMax > 0 caps the tracked state space: exponents of x are capped
	// at kMax and exponents of y at kMax−i, merging overflow mass. The
	// merged representation yields exactly the same bounds for every
	// P(Σ = x) with x < kMax as the full expansion (Section VI).
	// kMax == 0 means no truncation.
	kMax int
	// n is the number of factors multiplied in so far.
	n int
	// c holds the triangular coefficient matrix: c[i][j] is the
	// coefficient of x^i y^j. Row i exists for i <= degX(); row i has
	// entries for j <= degY(i).
	c [][]float64
	// Multiply ping-pongs between two flat backing buffers (rows of c
	// are sub-slices of buf[cur]), so a warmed-up UGF expands factors
	// without allocating. Reset rewinds to the neutral element while
	// keeping the buffers, which is what lets a query session reuse one
	// UGF across every partition pair it expands.
	rows [2][][]float64
	buf  [2][]float64
	cur  int
}

// NewUGF returns the neutral UGF F⁰ = 1 with no truncation.
func NewUGF() *UGF {
	return &UGF{c: [][]float64{{1}}}
}

// NewTruncatedUGF returns the neutral UGF that tracks only the state
// needed to bound P(Σ = x) for x < kMax.
func NewTruncatedUGF(kMax int) *UGF {
	if kMax <= 0 {
		panic("gf: NewTruncatedUGF requires kMax > 0")
	}
	return &UGF{kMax: kMax, c: [][]float64{{1}}}
}

// Reset rewinds the UGF to the neutral element F⁰ = 1 with the given
// truncation bound (kMax <= 0 disables truncation), retaining the
// coefficient storage of previous expansions. A reset-and-reused UGF
// produces bit-identical bounds to a freshly constructed one; after a
// warm-up it multiplies factors without allocating.
func (f *UGF) Reset(kMax int) {
	if kMax < 0 {
		kMax = 0
	}
	f.kMax = kMax
	f.n = 0
	w := 1 - f.cur
	buf := f.buf[w]
	if cap(buf) < 1 {
		buf = make([]float64, 1)
	}
	buf = buf[:1]
	buf[0] = 1
	rows := f.rows[w][:0]
	rows = append(rows, buf[0:1:1])
	f.rows[w], f.buf[w] = rows, buf
	f.c = rows
	f.cur = w
}

// N returns the number of factors multiplied into the UGF so far.
func (f *UGF) N() int { return f.n }

// degX returns the largest tracked exponent of x.
func (f *UGF) degX() int {
	if f.kMax > 0 && f.n > f.kMax {
		return f.kMax
	}
	return f.n
}

// degY returns the largest tracked exponent of y in row i.
func (f *UGF) degY(i int) int {
	if f.kMax > 0 {
		if i >= f.kMax {
			return 0
		}
		if f.n-i > f.kMax-i {
			return f.kMax - i
		}
	}
	return f.n - i
}

// Multiply folds one more Bernoulli factor with probability interval iv
// into the UGF: F ← F · [LB·x + (UB−LB)·y + (1−UB)].
func (f *UGF) Multiply(iv Interval) {
	validateInterval(iv.LB, iv.UB)
	pX := iv.LB         // definite domination mass
	pY := iv.UB - iv.LB // unknown mass
	p0 := 1 - iv.UB     // definite non-domination mass

	f.n++
	nx := f.degX()
	total := 0
	for i := 0; i <= nx; i++ {
		total += f.degY(i) + 1
	}
	// Carve the next triangle out of the idle backing buffer; the old
	// coefficients live in the other one, so reading while scattering is
	// safe. The first few calls grow the buffers; afterwards Multiply is
	// allocation-free.
	w := 1 - f.cur
	buf := f.buf[w]
	if cap(buf) < total {
		buf = make([]float64, total)
	} else {
		buf = buf[:total]
		clear(buf)
	}
	rows := f.rows[w][:0]
	off := 0
	for i := 0; i <= nx; i++ {
		l := f.degY(i) + 1
		rows = append(rows, buf[off:off+l:off+l])
		off += l
	}
	f.rows[w], f.buf[w] = rows, buf
	next := rows
	// Scatter every old coefficient into the three destination cells,
	// clamping indexes into the truncated state space.
	for i, row := range f.c {
		for j, v := range row {
			if v == 0 {
				continue
			}
			if p0 > 0 {
				f.add(next, i, j, v*p0)
			}
			if pX > 0 {
				f.add(next, i+1, j, v*pX)
			}
			if pY > 0 {
				f.add(next, i, j+1, v*pY)
			}
		}
	}
	f.c = next
	f.cur = w
}

// add accumulates mass into cell (i, j) of dst, applying the Section VI
// merge rules when the UGF is truncated: i is capped at kMax with j
// forced to 0, and j is capped at kMax−i.
func (f *UGF) add(dst [][]float64, i, j int, v float64) {
	if f.kMax > 0 {
		if i >= f.kMax {
			i, j = f.kMax, 0
		} else if j > f.kMax-i {
			j = f.kMax - i
		}
	}
	dst[i][j] += v
}

// MultiplyAll folds a sequence of probability intervals into the UGF.
func (f *UGF) MultiplyAll(ivs []Interval) {
	for _, iv := range ivs {
		f.Multiply(iv)
	}
}

// Coefficient returns c_{i,j}; zero for untracked cells.
func (f *UGF) Coefficient(i, j int) float64 {
	if i < 0 || j < 0 || i >= len(f.c) || j >= len(f.c[i]) {
		return 0
	}
	return f.c[i][j]
}

// LowerBound returns the conservative bound c_{k,0} of P(Σ = k). For a
// truncated UGF the value is only meaningful for k < kMax.
func (f *UGF) LowerBound(k int) float64 {
	if f.kMax > 0 && k >= f.kMax {
		return 0
	}
	return f.Coefficient(k, 0)
}

// UpperBound returns the progressive bound Σ_{i≤k, i+j≥k} c_{i,j} of
// P(Σ = k). For a truncated UGF the value is only meaningful for
// k < kMax.
func (f *UGF) UpperBound(k int) float64 {
	if f.kMax > 0 && k >= f.kMax {
		return 1
	}
	sum := 0.0
	for i := 0; i <= k && i < len(f.c); i++ {
		for j := max(0, k-i); j < len(f.c[i]); j++ {
			sum += f.c[i][j]
		}
	}
	return sum
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

// CDFLowerBound returns a conservative bound of P(Σ < k): the mass of
// all coefficients whose largest possible count stays below k,
// Σ_{i+j<k} c_{i,j}. By Lemma 4 c_{i,j} is mass whose sum lies in
// [i, i+j], so every such world has Σ < k; the Section VI merge only
// touches cells with i+j ≥ kMax, so a truncated UGF gives the same value
// as the full one for every k ≤ kMax (larger k are answered at kMax,
// which is still conservative).
func (f *UGF) CDFLowerBound(k int) float64 {
	if f.kMax > 0 && k > f.kMax {
		k = f.kMax
	}
	sum := 0.0
	for i := 0; i < k && i < len(f.c); i++ {
		row := f.c[i]
		for j := 0; j < k-i && j < len(row); j++ {
			sum += row[j]
		}
	}
	if sum > 1 {
		return 1
	}
	return sum
}

// CDFUpperBound returns a progressive bound of P(Σ < k): the total mass
// of all coefficients whose definite count is below k, Σ_{i<k, j} c_{i,j}.
func (f *UGF) CDFUpperBound(k int) float64 {
	sum := 0.0
	for i := 0; i < k && i < len(f.c); i++ {
		for _, v := range f.c[i] {
			sum += v
		}
	}
	if sum > 1 {
		return 1
	}
	return sum
}

// CDFBound returns the [LB, UB] interval for P(Σ < k).
func (f *UGF) CDFBound(k int) Interval {
	return Interval{LB: f.CDFLowerBound(k), UB: f.CDFUpperBound(k)}
}

// TotalMass returns the sum of all tracked coefficients; it is 1 up to
// floating-point error after any number of multiplications (useful as a
// sanity invariant).
func (f *UGF) TotalMass() float64 {
	sum := 0.0
	for _, row := range f.c {
		for _, v := range row {
			sum += v
		}
	}
	return sum
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
