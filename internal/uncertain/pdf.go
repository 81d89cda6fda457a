package uncertain

import (
	"fmt"
	"math"
	"math/rand"

	"probprune/internal/geom"
)

// PDF is a continuous probability density over a bounded uncertainty
// region (Definition 1 of the paper). Implementations must guarantee
// that Sample never draws a point outside Bounds — the bounded-region
// assumption everything downstream relies on.
type PDF interface {
	// Bounds returns the uncertainty region R_i with f(x) = 0 outside.
	Bounds() geom.Rect
	// Sample draws one position according to the density into dst,
	// which has the density's dimensionality.
	Sample(rng *rand.Rand, dst geom.Point)
}

// UniformBox is the uniform density over a rectangle — the synthetic
// workload's object model.
type UniformBox struct {
	Rect geom.Rect
}

// Bounds implements PDF.
func (u UniformBox) Bounds() geom.Rect { return u.Rect }

// Sample implements PDF.
func (u UniformBox) Sample(rng *rand.Rand, dst geom.Point) {
	for i := range dst {
		dst[i] = u.Rect.Min[i] + rng.Float64()*(u.Rect.Max[i]-u.Rect.Min[i])
	}
}

// TruncatedGaussian is an axis-independent Gaussian centered at Mean
// with per-dimension standard deviation Sigma, truncated to Region by
// rejection (the paper's iceberg objects: Gaussian noise with the PDF
// tails cut at the uncertainty region, Section VII). Truncation plus
// renormalization is the standard strategy the paper cites for
// unbounded densities.
type TruncatedGaussian struct {
	Mean   geom.Point
	Sigma  []float64
	Region geom.Rect
}

// Bounds implements PDF.
func (g TruncatedGaussian) Bounds() geom.Rect { return g.Region }

// Sample implements PDF. Rejection sampling with a clamping fallback
// keeps the draw O(1) in expectation even for extreme truncation.
func (g TruncatedGaussian) Sample(rng *rand.Rand, dst geom.Point) {
	const maxRejects = 64
	for try := 0; try < maxRejects; try++ {
		for i := range dst {
			dst[i] = g.Mean[i] + rng.NormFloat64()*g.Sigma[i]
		}
		if g.Region.Contains(dst) {
			return
		}
	}
	// Extremely truncated: clamp a draw into the region. This slightly
	// biases mass onto the boundary, which is acceptable for a density
	// whose region captures a negligible tail.
	for i := range dst {
		v := g.Mean[i] + rng.NormFloat64()*g.Sigma[i]
		dst[i] = math.Max(g.Region.Min[i], math.Min(g.Region.Max[i], v))
	}
}

// Mixture is a finite mixture of component densities — the general
// correlated, arbitrarily-shaped object PDF of Section I-A.
type Mixture struct {
	Components []PDF
	// Weights are the mixture coefficients; they must be positive and
	// are normalized at sampling time.
	Weights []float64
}

// Bounds implements PDF: the union of the component regions.
func (m Mixture) Bounds() geom.Rect {
	b := m.Components[0].Bounds()
	for _, c := range m.Components[1:] {
		b = b.Union(c.Bounds())
	}
	return b
}

// Sample implements PDF.
func (m Mixture) Sample(rng *rand.Rand, dst geom.Point) {
	total := 0.0
	for _, w := range m.Weights {
		total += w
	}
	u := rng.Float64() * total
	acc := 0.0
	for i, w := range m.Weights {
		acc += w
		if u < acc {
			m.Components[i].Sample(rng, dst)
			return
		}
	}
	m.Components[len(m.Components)-1].Sample(rng, dst)
}

// PointMass is the degenerate density of a certain object.
type PointMass struct {
	At geom.Point
}

// Bounds implements PDF.
func (p PointMass) Bounds() geom.Rect { return geom.PointRect(p.At) }

// Sample implements PDF.
func (p PointMass) Sample(rng *rand.Rand, dst geom.Point) { copy(dst, p.At) }

// Realize materializes a continuous density into a sample-model Object
// with n equally weighted samples — the discretization step the paper's
// evaluation applies to continuous data (Section VII-A).
func Realize(id int, pdf PDF, n int, rng *rand.Rand) (*Object, error) {
	if n <= 0 {
		return nil, fmt.Errorf("uncertain: Realize needs n > 0, got %d", n)
	}
	bounds := pdf.Bounds()
	d := bounds.Dim()
	coords := make([]float64, n*d)
	for off := 0; off < len(coords); off += d {
		s := geom.Point(coords[off : off+d : off+d])
		pdf.Sample(rng, s)
		if !bounds.Contains(s) {
			return nil, fmt.Errorf("uncertain: PDF sample %v escapes bounds %v", s, bounds)
		}
	}
	return NewFlatObject(id, d, coords, nil)
}
