// Package uncertain implements the paper's uncertainty model (Section
// I-A): multi-attribute objects whose attribute values are random
// variables with a (minimally) bounded density, represented by a
// rectangular uncertainty region plus a probability distribution inside
// it.
//
// Following Section VII-A of the paper ("our approach relies on the
// same uncertainty model (default: 1000 samples/object)"), the primary
// representation is the discrete sample model: an object is a finite
// set of weighted alternative positions. Continuous densities (uniform,
// truncated Gaussian, mixtures) are provided as PDF implementations and
// are realized into sample objects; this mirrors how the paper's
// evaluation treats continuous data and gives the test suite an exact
// ground truth (on the sample model, exhaustive enumeration is exact).
//
// The package also provides the kd-tree object decomposition of Section
// V used by the iterative refinement: median-bisection partitions whose
// probability mass is known exactly.
package uncertain

import (
	"fmt"
	"math"
	"math/rand"

	"probprune/internal/geom"
)

// Object is an uncertain database object under the discrete sample
// model: it is located at exactly one of its samples, sample i with
// probability Weights[i] (possible-world semantics). Weights sum to 1;
// a nil Weights means uniform.
type Object struct {
	// ID identifies the object within its database.
	ID int
	// MBR is the minimum bounding rectangle of the samples — the
	// object's uncertainty region.
	MBR geom.Rect
	// Coords holds the alternative positions in one array, sample-major
	// with stride Dim(): sample i is Coords[i*Dim() : (i+1)*Dim()]. Read
	// a sample through Sample.
	Coords []float64
	// Weights holds the probability of each sample; nil means uniform.
	Weights []float64
	// Existence implements the existential uncertainty of Section I-A
	// (∫ f < 1): the probability that the object exists in the database
	// at all. The position distribution is conditional on existence.
	// The zero value means certain existence (1); use SetExistence to
	// configure. Existential uncertainty is supported for candidate
	// objects; query targets and references are interpreted as existing.
	Existence float64
}

// ExistenceProb returns the probability that the object exists,
// mapping the zero value of Existence to certain existence.
func (o *Object) ExistenceProb() float64 {
	if o.Existence == 0 {
		return 1
	}
	return o.Existence
}

// SetExistence configures existential uncertainty; p must be in (0, 1].
func (o *Object) SetExistence(p float64) error {
	if p <= 0 || p > 1 || math.IsNaN(p) {
		return fmt.Errorf("uncertain: existence probability %g outside (0, 1]", p)
	}
	o.Existence = p
	return nil
}

// NewObject builds an object from alternative positions with uniform
// weights, computing the bounding region.
func NewObject(id int, samples []geom.Point) (*Object, error) {
	return NewWeightedObject(id, samples, nil)
}

// NewWeightedObject builds an object from weighted alternative
// positions, copying them into one flat array; see NewFlatObject for
// the rules on coordinates and weights.
func NewWeightedObject(id int, samples []geom.Point, weights []float64) (*Object, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("uncertain: object %d has no samples", id)
	}
	d := samples[0].Dim()
	coords := make([]float64, 0, len(samples)*d)
	for _, s := range samples {
		if s.Dim() != d {
			return nil, fmt.Errorf("uncertain: object %d mixes dimensionalities %d and %d", id, d, s.Dim())
		}
		coords = append(coords, s...)
	}
	return NewFlatObject(id, d, coords, weights)
}

// NewFlatObject builds an object from coords, its alternative positions
// stored sample-major with stride dim, and takes ownership of coords.
// weights may be nil (uniform); otherwise it must have one finite,
// non-negative entry per sample, with a positive sum (it is
// renormalized into a fresh slice to absorb rounding). Coordinates
// must be finite: a NaN would make the bounding region unequal to
// itself, and an index could never find the object again to remove it.
func NewFlatObject(id, dim int, coords, weights []float64) (*Object, error) {
	if dim < 1 {
		return nil, fmt.Errorf("uncertain: object %d has dimensionality %d", id, dim)
	}
	if len(coords) == 0 {
		return nil, fmt.Errorf("uncertain: object %d has no samples", id)
	}
	if len(coords)%dim != 0 {
		return nil, fmt.Errorf("uncertain: object %d has %d coordinates, not a multiple of dimensionality %d", id, len(coords), dim)
	}
	n := len(coords) / dim
	for i, c := range coords {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("uncertain: object %d sample %d has non-finite coordinate %g", id, i/dim, c)
		}
	}
	if weights != nil {
		if len(weights) != n {
			return nil, fmt.Errorf("uncertain: object %d has %d samples but %d weights", id, n, len(weights))
		}
		sum := 0.0
		for _, w := range weights {
			if !(w >= 0) || math.IsInf(w, 1) {
				return nil, fmt.Errorf("uncertain: object %d has invalid weight %g", id, w)
			}
			sum += w
		}
		if sum <= 0 || math.IsInf(sum, 1) {
			return nil, fmt.Errorf("uncertain: object %d has total weight %g", id, sum)
		}
		norm := make([]float64, n)
		for i, w := range weights {
			norm[i] = w / sum
		}
		weights = norm
	}
	return &Object{ID: id, MBR: geom.Bounds(dim, coords), Coords: coords, Weights: weights}, nil
}

// PointObject builds a certain (degenerate) object located exactly at p.
func PointObject(id int, p geom.Point) *Object {
	return &Object{ID: id, MBR: geom.PointRect(p), Coords: p.Clone()}
}

// Dim returns the dimensionality of the object's space.
func (o *Object) Dim() int { return o.MBR.Dim() }

// NumSamples returns the number of alternative positions.
func (o *Object) NumSamples() int { return len(o.Coords) / o.Dim() }

// Sample returns alternative position i as a read-only view into
// Coords; it does not allocate.
func (o *Object) Sample(i int) geom.Point {
	d := o.Dim()
	return o.Coords[i*d : (i+1)*d : (i+1)*d]
}

// Weight returns the probability of sample i.
func (o *Object) Weight(i int) float64 {
	if o.Weights == nil {
		return 1 / float64(o.NumSamples())
	}
	return o.Weights[i]
}

// IsCertain reports whether the object has a single possible position.
func (o *Object) IsCertain() bool { return o.NumSamples() == 1 }

// Centroid returns the probability-weighted mean position (the expected
// location of the object).
func (o *Object) Centroid() geom.Point {
	c := make(geom.Point, o.Dim())
	for i := range o.NumSamples() {
		w := o.Weight(i)
		for j, x := range o.Sample(i) {
			c[j] += w * x
		}
	}
	return c
}

// Draw returns a random sample index according to the weights.
func (o *Object) Draw(rng *rand.Rand) int {
	if o.Weights == nil {
		return rng.Intn(o.NumSamples())
	}
	u := rng.Float64()
	acc := 0.0
	for i, w := range o.Weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(o.Weights) - 1
}

// Resample returns a new object with n samples drawn (with replacement)
// from o's distribution, with uniform weights. It is how the experiment
// harness derives smaller-sample variants of a dataset (Figure 5/7).
func (o *Object) Resample(n int, rng *rand.Rand) *Object {
	d := o.Dim()
	coords := make([]float64, n*d)
	for i := 0; i < n; i++ {
		copy(coords[i*d:], o.Sample(o.Draw(rng)))
	}
	out, err := NewFlatObject(o.ID, d, coords, nil)
	if err != nil {
		panic(err) // unreachable: n >= 1 enforced by caller, samples valid
	}
	return out
}

// Database is an ordered collection of uncertain objects, indexed by
// position. Object IDs are conventionally their positions but the
// algorithms only rely on pointer identity.
type Database []*Object

// Dim returns the dimensionality of the database's space (0 if empty).
func (db Database) Dim() int {
	if len(db) == 0 {
		return 0
	}
	return db[0].Dim()
}

// MaxExtent returns the largest uncertainty-region side length over all
// objects — the paper's "maximum extension of objects" x-axis in
// Figure 6(a).
func (db Database) MaxExtent() float64 {
	max := 0.0
	for _, o := range db {
		if e := o.MBR.MaxExtent(); e > max {
			max = e
		}
	}
	return max
}
