package geom

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned rectangle (hyper-rectangle), the uncertainty
// region bounding an uncertain object's PDF (Definition 1 of the paper).
// Min and Max hold the lower and upper corner; Min[i] <= Max[i] must
// hold in every dimension. A degenerate rectangle with Min == Max
// represents a certain point.
type Rect struct {
	Min, Max Point
}

// NewRect builds a rectangle from two corner points, validating shape.
func NewRect(min, max Point) (Rect, error) {
	if len(min) != len(max) {
		return Rect{}, fmt.Errorf("geom: corner dimension mismatch %d vs %d", len(min), len(max))
	}
	for i := range min {
		if min[i] > max[i] {
			return Rect{}, fmt.Errorf("geom: inverted extent in dim %d: [%g, %g]", i, min[i], max[i])
		}
	}
	return Rect{Min: min.Clone(), Max: max.Clone()}, nil
}

// PointRect returns the degenerate rectangle covering exactly p.
func PointRect(p Point) Rect {
	return Rect{Min: p.Clone(), Max: p.Clone()}
}

// RectAround returns the rectangle centered at c with the given total
// extent (side length) per dimension.
func RectAround(c Point, extent []float64) Rect {
	min := make(Point, len(c))
	max := make(Point, len(c))
	for i := range c {
		h := extent[i] / 2
		min[i] = c[i] - h
		max[i] = c[i] + h
	}
	return Rect{Min: min, Max: max}
}

// Dim returns the dimensionality of the rectangle.
func (r Rect) Dim() int { return len(r.Min) }

// Clone returns an independent copy of r.
func (r Rect) Clone() Rect {
	return Rect{Min: r.Min.Clone(), Max: r.Max.Clone()}
}

// Center returns the midpoint of the rectangle.
func (r Rect) Center() Point {
	c := make(Point, len(r.Min))
	for i := range r.Min {
		c[i] = (r.Min[i] + r.Max[i]) / 2
	}
	return c
}

// Extent returns the side length in dimension i.
func (r Rect) Extent(i int) float64 { return r.Max[i] - r.Min[i] }

// MaxExtent returns the largest side length over all dimensions.
func (r Rect) MaxExtent() float64 {
	max := 0.0
	for i := range r.Min {
		if e := r.Extent(i); e > max {
			max = e
		}
	}
	return max
}

// Area returns the d-dimensional volume of the rectangle.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Min {
		a *= r.Extent(i)
	}
	return a
}

// Contains reports whether p lies inside the closed rectangle.
func (r Rect) Contains(p Point) bool {
	for i := range r.Min {
		if p[i] < r.Min[i] || p[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	for i := range r.Min {
		if s.Min[i] < r.Min[i] || s.Max[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether the two closed rectangles overlap.
func (r Rect) Intersects(s Rect) bool {
	for i := range r.Min {
		if r.Max[i] < s.Min[i] || s.Max[i] < r.Min[i] {
			return false
		}
	}
	return true
}

// Bounds returns the minimum bounding rectangle of the points stored
// sample-major in coords with stride dim, in one pass and one
// allocation. coords must hold at least one point.
func Bounds(dim int, coords []float64) Rect {
	corners := make(Point, 2*dim)
	lo, hi := corners[:dim:dim], corners[dim:]
	copy(lo, coords[:dim])
	copy(hi, coords[:dim])
	for off := dim; off < len(coords); off += dim {
		for j, c := range coords[off : off+dim] {
			// The built-ins order -0 below +0, as Union's math.Min does.
			lo[j] = min(lo[j], c)
			hi[j] = max(hi[j], c)
		}
	}
	return Rect{Min: lo, Max: hi}
}

// Union returns the minimum bounding rectangle of r and s.
func (r Rect) Union(s Rect) Rect {
	min := make(Point, len(r.Min))
	max := make(Point, len(r.Min))
	for i := range r.Min {
		min[i] = math.Min(r.Min[i], s.Min[i])
		max[i] = math.Max(r.Max[i], s.Max[i])
	}
	return Rect{Min: min, Max: max}
}

// Equal reports whether r and s are identical.
func (r Rect) Equal(s Rect) bool {
	return r.Min.Equal(s.Min) && r.Max.Equal(s.Max)
}

// String renders the rectangle as "[min .. max]".
func (r Rect) String() string {
	return fmt.Sprintf("[%v .. %v]", r.Min, r.Max)
}

// IntervalMinDist returns the minimal distance between the 1-D interval
// [lo, hi] and the 1-D point x. It is zero when x lies inside.
func IntervalMinDist(lo, hi, x float64) float64 {
	switch {
	case x < lo:
		return lo - x
	case x > hi:
		return x - hi
	default:
		return 0
	}
}

// IntervalMaxDist returns the maximal distance between the 1-D interval
// [lo, hi] and the 1-D point x.
func IntervalMaxDist(lo, hi, x float64) float64 {
	return math.Max(math.Abs(x-lo), math.Abs(hi-x))
}

// The four distance kernels below are the hottest functions of the
// whole query path (Nearby orderings, kNN preselection, shard routing).
// Each accumulates its per-dimension separation terms directly instead
// of materializing temporary corner points, so they are allocation-free;
// the per-term operations mirror Norm.Dist exactly, keeping results
// bit-identical to the corner-point formulation.

// minSep returns the (non-negative) separation of r and s in dimension
// i: zero when their extents overlap there.
func (r Rect) minSep(s Rect, i int) float64 {
	switch {
	case s.Max[i] < r.Min[i]:
		return r.Min[i] - s.Max[i]
	case r.Max[i] < s.Min[i]:
		return s.Min[i] - r.Max[i]
	default:
		return 0
	}
}

// maxSep returns the largest possible separation of r and s in
// dimension i (farthest-corner pair).
func (r Rect) maxSep(s Rect, i int) float64 {
	return math.Max(math.Abs(s.Max[i]-r.Min[i]), math.Abs(r.Max[i]-s.Min[i]))
}

// MinDist returns the minimal Lp distance between the rectangle and a
// point: the distance to the closest possible location inside r.
func (r Rect) MinDist(n Norm, p Point) float64 {
	if n.IsInf() {
		max := 0.0
		for i := range p {
			if d := math.Abs(p[i] - clamp(p[i], r.Min[i], r.Max[i])); d > max {
				max = d
			}
		}
		return max
	}
	if n.P == 2 {
		sum := 0.0
		for i := range p {
			d := p[i] - clamp(p[i], r.Min[i], r.Max[i])
			sum += d * d
		}
		return math.Sqrt(sum)
	}
	if n.P == 1 {
		sum := 0.0
		for i := range p {
			sum += math.Abs(p[i] - clamp(p[i], r.Min[i], r.Max[i]))
		}
		return sum
	}
	sum := 0.0
	for i := range p {
		sum += math.Pow(math.Abs(p[i]-clamp(p[i], r.Min[i], r.Max[i])), n.P)
	}
	return math.Pow(sum, 1/n.P)
}

// farCorner returns the coordinate of the corner of r farthest from
// p[i] in dimension i.
func (r Rect) farCorner(p Point, i int) float64 {
	if math.Abs(p[i]-r.Min[i]) > math.Abs(p[i]-r.Max[i]) {
		return r.Min[i]
	}
	return r.Max[i]
}

// MaxDist returns the maximal Lp distance between the rectangle and a
// point: the distance to the farthest corner of r.
func (r Rect) MaxDist(n Norm, p Point) float64 {
	if n.IsInf() {
		max := 0.0
		for i := range p {
			if d := math.Abs(p[i] - r.farCorner(p, i)); d > max {
				max = d
			}
		}
		return max
	}
	if n.P == 2 {
		sum := 0.0
		for i := range p {
			d := p[i] - r.farCorner(p, i)
			sum += d * d
		}
		return math.Sqrt(sum)
	}
	if n.P == 1 {
		sum := 0.0
		for i := range p {
			sum += math.Abs(p[i] - r.farCorner(p, i))
		}
		return sum
	}
	sum := 0.0
	for i := range p {
		sum += math.Pow(math.Abs(p[i]-r.farCorner(p, i)), n.P)
	}
	return math.Pow(sum, 1/n.P)
}

// MinDistRect returns the minimal Lp distance between two rectangles:
// zero when they intersect.
func (r Rect) MinDistRect(n Norm, s Rect) float64 {
	if n.IsInf() {
		max := 0.0
		for i := range r.Min {
			if d := r.minSep(s, i); d > max {
				max = d
			}
		}
		return max
	}
	if n.P == 2 {
		sum := 0.0
		for i := range r.Min {
			d := r.minSep(s, i)
			sum += d * d
		}
		return math.Sqrt(sum)
	}
	if n.P == 1 {
		sum := 0.0
		for i := range r.Min {
			sum += r.minSep(s, i)
		}
		return sum
	}
	sum := 0.0
	for i := range r.Min {
		sum += math.Pow(r.minSep(s, i), n.P)
	}
	return math.Pow(sum, 1/n.P)
}

// MaxDistRect returns the maximal Lp distance between two rectangles.
func (r Rect) MaxDistRect(n Norm, s Rect) float64 {
	if n.IsInf() {
		max := 0.0
		for i := range r.Min {
			if d := r.maxSep(s, i); d > max {
				max = d
			}
		}
		return max
	}
	if n.P == 2 {
		sum := 0.0
		for i := range r.Min {
			d := r.maxSep(s, i)
			sum += d * d
		}
		return math.Sqrt(sum)
	}
	if n.P == 1 {
		sum := 0.0
		for i := range r.Min {
			sum += r.maxSep(s, i)
		}
		return sum
	}
	sum := 0.0
	for i := range r.Min {
		sum += math.Pow(r.maxSep(s, i), n.P)
	}
	return math.Pow(sum, 1/n.P)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
