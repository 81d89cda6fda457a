package gf

import (
	"math"
	"math/rand"
	"testing"
)

// refUGF is the two-dimensional expansion the UGF replaced, kept as the
// reference its three 1-D polynomials are checked against: the full
// coefficient matrix c_{i,j} of
//
//	F^N = Π_i [LB_i·x + (UB_i−LB_i)·y + (1−UB_i)] = Σ_{i,j} c_{i,j} x^i y^j
//
// with Lemma 4's bounds read straight off the cells, and Section VI's
// truncation as merge rules. It costs O(N³) in full and O(k²·N)
// truncated. Its sums add each row first and then the row totals, which
// keeps their rounding error linear in N + k (see ugfTol).
type refUGF struct {
	// kMax > 0 caps exponents of x at kMax and of y at kMax−i, merging
	// the overflow mass; 0 means no truncation.
	kMax int
	n    int
	// c[i][j] is the coefficient of x^i y^j; row i exists for
	// i <= degX() and holds entries for j <= degY(i).
	c [][]float64
}

func newRefUGF(kMax int) *refUGF {
	return &refUGF{kMax: kMax, c: [][]float64{{1}}}
}

// degX returns the largest tracked exponent of x.
func (f *refUGF) degX() int {
	if f.kMax > 0 && f.n > f.kMax {
		return f.kMax
	}
	return f.n
}

// degY returns the largest tracked exponent of y in row i.
func (f *refUGF) degY(i int) int {
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

// Multiply scatters every coefficient into its three successors:
// F ← F · [LB·x + (UB−LB)·y + (1−UB)].
func (f *refUGF) Multiply(iv Interval) {
	validateInterval(iv.LB, iv.UB)
	pX, pY, p0 := iv.LB, iv.UB-iv.LB, 1-iv.UB
	f.n++
	next := make([][]float64, f.degX()+1)
	for i := range next {
		next[i] = make([]float64, f.degY(i)+1)
	}
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
}

// add accumulates mass into cell (i, j), applying the Section VI merge
// rules when truncated: i is capped at kMax with j forced to 0, and j
// is capped at kMax−i.
func (f *refUGF) add(dst [][]float64, i, j int, v float64) {
	if f.kMax > 0 {
		if i >= f.kMax {
			i, j = f.kMax, 0
		} else if j > f.kMax-i {
			j = f.kMax - i
		}
	}
	dst[i][j] += v
}

func (f *refUGF) MultiplyAll(ivs []Interval) {
	for _, iv := range ivs {
		f.Multiply(iv)
	}
}

// Coefficient returns c_{i,j}; zero for untracked cells.
func (f *refUGF) Coefficient(i, j int) float64 {
	if i < 0 || j < 0 || i >= len(f.c) || j >= len(f.c[i]) {
		return 0
	}
	return f.c[i][j]
}

// rowSum returns Σ_{lo ≤ j < hi} c_{i,j}.
func (f *refUGF) rowSum(i, lo, hi int) float64 {
	sum := 0.0
	for j := max(lo, 0); j < hi && j < len(f.c[i]); j++ {
		sum += f.c[i][j]
	}
	return sum
}

// LowerBound returns c_{k,0}, 0 at and past a truncation.
func (f *refUGF) LowerBound(k int) float64 {
	if f.kMax > 0 && k >= f.kMax {
		return 0
	}
	return f.Coefficient(k, 0)
}

// UpperBound returns Σ_{i≤k, i+j≥k} c_{i,j}, 1 at and past a truncation.
func (f *refUGF) UpperBound(k int) float64 {
	if f.kMax > 0 && k >= f.kMax {
		return 1
	}
	sum := 0.0
	for i := 0; i <= k && i < len(f.c); i++ {
		sum += f.rowSum(i, k-i, len(f.c[i]))
	}
	return sum
}

func (f *refUGF) Bound(k int) Interval {
	return Interval{LB: f.LowerBound(k), UB: f.UpperBound(k)}
}

// CDFLowerBound returns Σ_{i+j<k} c_{i,j}, answered at kMax past a
// truncation.
func (f *refUGF) CDFLowerBound(k int) float64 {
	if f.kMax > 0 && k > f.kMax {
		k = f.kMax
	}
	sum := 0.0
	for i := 0; i < k && i < len(f.c); i++ {
		sum += f.rowSum(i, 0, k-i)
	}
	return min(sum, 1)
}

// CDFUpperBound returns Σ_{i<k} c_{i,j}.
func (f *refUGF) CDFUpperBound(k int) float64 {
	sum := 0.0
	for i := 0; i < k && i < len(f.c); i++ {
		sum += f.rowSum(i, 0, len(f.c[i]))
	}
	return min(sum, 1)
}

func (f *refUGF) CDFBound(k int) Interval {
	return Interval{LB: f.CDFLowerBound(k), UB: f.CDFUpperBound(k)}
}

// TotalMass returns the sum of all tracked coefficients: 1 up to
// rounding after any number of multiplications.
func (f *refUGF) TotalMass() float64 {
	sum := 0.0
	for i, row := range f.c {
		sum += f.rowSum(i, 0, len(row))
	}
	return sum
}

// ugfTol is the rounding bound FuzzUGFReference holds the two forms to
// for n factors and count k: 24·(n+k)·u with u = 2⁻⁵³. Every compared
// value is a sum of nonnegative products that adds to at most 1, so a
// relative error per product bounds the absolute error of the value:
//   - the 1-D form passes a DP coefficient through ≤ 3 roundings per
//     factor (1−p, the product, the add); a CDF read adds ≤ k more, and
//     the point upper bound differences two reads: ≤ (6n + 2k + 1)·u.
//     Its clamps (to 1, LB ≤ UB) bind only by rounding, so they at most
//     double that: ≤ (12n + 4k + 2)·u.
//   - the reference passes a cell through ≤ 6 roundings per factor (1−UB
//     or UB−LB, the product, ≤ 4 adds into a merged cell), then row
//     sums of ≤ n+1 cells and a sum of ≤ k+1 row totals: ≤ (7n + k)·u.
//
// Together (19n + 5k + 2)·u ≤ 24·(n+k)·u for n ≥ 1; with no factor both
// forms are exact. γ_m = m·u/(1−m·u) and underflow (≤ 2⁻¹⁰⁷⁴ per
// operation) fit in the slack.
func ugfTol(n, k int) float64 { return 24 * float64(n+k) * 0x1p-53 }

// fuzzIntervals draws n intervals of one shape: uniform, adversarial
// ends (0, 1, equal ends, near ½), or all near ½.
func fuzzIntervals(rng *rand.Rand, n int, shape uint8) []Interval {
	ivs := make([]Interval, n)
	for i := range ivs {
		var lb, ub float64
		switch shape % 3 {
		case 0:
			lb = rng.Float64()
			ub = lb + rng.Float64()*(1-lb)
		case 1:
			ends := []float64{0, 1, 0.5, 0.5 - 0x1p-40, 0.5 + 0x1p-40, rng.Float64()}
			lb, ub = ends[rng.Intn(len(ends))], ends[rng.Intn(len(ends))]
			if rng.Intn(3) == 0 {
				ub = lb
			}
		default:
			lb = 0.5 + (rng.Float64()-0.5)*0x1p-20
			ub = 0.5 + (rng.Float64()-0.5)*0x1p-20
		}
		if lb > ub {
			lb, ub = ub, lb
		}
		ivs[i] = Interval{LB: lb, UB: ub}
	}
	return ivs
}

// FuzzUGFReference: the three 1-D polynomials give the 2-D reference's
// bounds within ugfTol, for every count the truncation keeps, with
// point and CDF bounds ordered and CDF bounds monotone in k.
func FuzzUGFReference(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(0), uint8(0))
	f.Add(int64(2), uint8(40), uint8(3), uint8(1))
	f.Add(int64(3), uint8(33), uint8(12), uint8(2))
	f.Add(int64(4), uint8(1), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, kRaw, shape uint8) {
		n, kMax := int(nRaw)%48, int(kRaw)%13
		ivs := fuzzIntervals(rand.New(rand.NewSource(seed)), n, shape)
		u := NewUGF()
		if kMax > 0 {
			u = NewTruncatedUGF(kMax)
		}
		ref := newRefUGF(kMax)
		u.MultiplyAll(ivs)
		ref.MultiplyAll(ivs)
		hi := n + 2 // CDF counts checked; point counts stop one short
		if kMax > 0 {
			hi = kMax
		}
		var prev Interval
		for k := 0; k <= hi; k++ {
			c, rc := u.CDFBound(k), ref.CDFBound(k)
			tol := ugfTol(n, k)
			if math.Abs(c.LB-rc.LB) > tol || math.Abs(c.UB-rc.UB) > tol {
				t.Fatalf("k=%d: CDF bound %+v, reference %+v (tol %g) on %v", k, c, rc, tol, ivs)
			}
			if c.LB > c.UB || c.LB < prev.LB || c.UB < prev.UB {
				t.Fatalf("k=%d: CDF bound %+v after %+v: not ordered and monotone", k, c, prev)
			}
			prev = c
			if k == hi {
				break
			}
			b, rb := u.Bound(k), ref.Bound(k)
			if math.Abs(b.LB-rb.LB) > tol || math.Abs(b.UB-rb.UB) > tol {
				t.Fatalf("k=%d: bound %+v, reference %+v (tol %g) on %v", k, b, rb, tol, ivs)
			}
			if b.LB > b.UB {
				t.Fatalf("k=%d: bound %+v not ordered", k, b)
			}
		}
	})
}
