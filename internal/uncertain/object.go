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
// model: it is located at exactly one of Samples, with probability
// Weights[i] (possible-world semantics). Weights sum to 1; a nil
// Weights means uniform.
type Object struct {
	// ID identifies the object within its database.
	ID int
	// MBR is the minimum bounding rectangle of the samples — the
	// object's uncertainty region.
	MBR geom.Rect
	// Samples holds the alternative positions.
	Samples []geom.Point
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
// positions. weights may be nil (uniform); otherwise it must have one
// non-negative entry per sample, summing to 1 (it is renormalized to
// absorb rounding). Sample coordinates must be finite: a NaN would make
// the bounding region unequal to itself, and an index could never find
// the object again to remove it.
func NewWeightedObject(id int, samples []geom.Point, weights []float64) (*Object, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("uncertain: object %d has no samples", id)
	}
	for i, s := range samples {
		for _, c := range s {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return nil, fmt.Errorf("uncertain: object %d sample %d has non-finite coordinate %g", id, i, c)
			}
		}
	}
	d := samples[0].Dim()
	mbr := geom.PointRect(samples[0])
	for _, s := range samples[1:] {
		if s.Dim() != d {
			return nil, fmt.Errorf("uncertain: object %d mixes dimensionalities %d and %d", id, d, s.Dim())
		}
		mbr = mbr.Union(geom.PointRect(s))
	}
	if weights != nil {
		if len(weights) != len(samples) {
			return nil, fmt.Errorf("uncertain: object %d has %d samples but %d weights", id, len(samples), len(weights))
		}
		sum := 0.0
		for _, w := range weights {
			if w < 0 || math.IsNaN(w) {
				return nil, fmt.Errorf("uncertain: object %d has negative weight %g", id, w)
			}
			sum += w
		}
		if sum <= 0 {
			return nil, fmt.Errorf("uncertain: object %d has zero total weight", id)
		}
		norm := make([]float64, len(weights))
		for i, w := range weights {
			norm[i] = w / sum
		}
		weights = norm
	}
	return &Object{ID: id, MBR: mbr, Samples: samples, Weights: weights}, nil
}

// PointObject builds a certain (degenerate) object located exactly at p.
func PointObject(id int, p geom.Point) *Object {
	return &Object{ID: id, MBR: geom.PointRect(p), Samples: []geom.Point{p.Clone()}}
}

// Dim returns the dimensionality of the object's space.
func (o *Object) Dim() int { return o.MBR.Dim() }

// NumSamples returns the number of alternative positions.
func (o *Object) NumSamples() int { return len(o.Samples) }

// Weight returns the probability of sample i.
func (o *Object) Weight(i int) float64 {
	if o.Weights == nil {
		return 1 / float64(len(o.Samples))
	}
	return o.Weights[i]
}

// IsCertain reports whether the object has a single possible position.
func (o *Object) IsCertain() bool { return len(o.Samples) == 1 }

// Centroid returns the probability-weighted mean position (the expected
// location of the object).
func (o *Object) Centroid() geom.Point {
	c := make(geom.Point, o.Dim())
	for i, s := range o.Samples {
		w := o.Weight(i)
		for j := range c {
			c[j] += w * s[j]
		}
	}
	return c
}

// Draw returns a random sample index according to the weights.
func (o *Object) Draw(rng *rand.Rand) int {
	if o.Weights == nil {
		return rng.Intn(len(o.Samples))
	}
	u := rng.Float64()
	acc := 0.0
	for i, w := range o.Weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(o.Samples) - 1
}

// Resample returns a new object with n samples drawn (with replacement)
// from o's distribution, with uniform weights. It is how the experiment
// harness derives smaller-sample variants of a dataset (Figure 5/7).
func (o *Object) Resample(n int, rng *rand.Rand) *Object {
	samples := make([]geom.Point, n)
	for i := range samples {
		samples[i] = o.Samples[o.Draw(rng)].Clone()
	}
	out, err := NewObject(o.ID, samples)
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
