// Package mc implements the comparison partner of the paper's
// evaluation (Section VII-A): the Monte-Carlo / sampling based
// computation of the probabilistic domination count.
//
// The approach adapts Lian & Chen's exact algorithm for discrete
// distributions [21] as the paper describes: for every sample r of the
// uncertain reference R and every sample b of the target B, the
// domination indicators of the candidates become mutually independent
// Bernoulli variables (the dependence runs only through the shared b
// and r, which are now fixed), so the per-world domination count PDF is
// the Poisson binomial expanded by a regular generating function. The
// final PDF is the weighted average over all (b, r) sample pairs.
//
// On the discrete sample model this computation is EXACT — the package
// therefore doubles as the ground truth oracle of the test suite. Its
// cost, however, is what Figure 5 of the paper shows: quadratic in the
// per-object sample count on top of the generating-function cost, which
// is why the paper's pruning framework wins.
package mc

import (
	"math/rand"
	"sort"

	"probprune/internal/geom"
	"probprune/internal/gf"
	"probprune/internal/uncertain"
)

// DomCountPDF computes the domination count PDF of B w.r.t. R over the
// given candidate objects: out[k] = P(exactly k candidates are closer
// to R than B). On the discrete sample model the result is exact.
//
// kMax > 0 restricts the computation to the coefficients k < kMax (the
// prefix needed by kNN-style predicates), reducing the
// generating-function cost from O(C²) to O(C·kMax) per sample pair; the
// returned slice then has min(kMax, C+1) entries whose values equal the
// untruncated prefix.
func DomCountPDF(n geom.Norm, cands []*uncertain.Object, b, r *uncertain.Object, kMax int) []float64 {
	c := len(cands)
	outLen := c + 1
	if kMax > 0 && kMax < outLen {
		outLen = kMax
	}
	out := make([]float64, outLen)
	if c == 0 {
		out[0] = 1
		return out
	}

	// dists[i] holds the candidate-i sample distances to the current
	// reference sample, sorted, paired with the cumulative weight below
	// each position for O(log S) probability lookups.
	type candDists struct {
		d []float64 // sorted distances
		w []float64 // cumulative weight: w[j] = P(dist < d[j+1]) prefix
	}
	dists := make([]candDists, c)
	for i, a := range cands {
		dists[i].d = make([]float64, a.NumSamples())
		dists[i].w = make([]float64, a.NumSamples())
	}
	ps := make([]float64, c)

	for ir := range r.NumSamples() {
		rs, wr := r.Sample(ir), r.Weight(ir)
		// Per reference sample: sort each candidate's distances once.
		for i, a := range cands {
			cd := &dists[i]
			for j := range cd.d {
				cd.d[j] = n.Dist(a.Sample(j), rs)
			}
			if a.Weights == nil {
				sort.Float64s(cd.d)
				uw := 1 / float64(len(cd.d))
				acc := 0.0
				for j := range cd.w {
					acc += uw
					cd.w[j] = acc
				}
			} else {
				idx := make([]int, len(cd.d))
				for j := range idx {
					idx[j] = j
				}
				sort.Slice(idx, func(x, y int) bool { return cd.d[idx[x]] < cd.d[idx[y]] })
				sd := make([]float64, len(idx))
				acc := 0.0
				for j, id := range idx {
					sd[j] = cd.d[id]
					acc += a.Weights[id]
					cd.w[j] = acc
				}
				cd.d = sd
			}
		}
		for ib := range b.NumSamples() {
			w := wr * b.Weight(ib)
			dbr := n.Dist(b.Sample(ib), rs)
			for i := range cands {
				// An existentially uncertain candidate dominates only in
				// the worlds where it exists (independent of position).
				ps[i] = cands[i].ExistenceProb() * massBelow(dists[i].d, dists[i].w, dbr)
			}
			var pdf []float64
			if kMax > 0 {
				pdf = gf.PoissonBinomialTruncated(ps, kMax)
			} else {
				pdf = gf.PoissonBinomial(ps)
			}
			for k := 0; k < len(pdf) && k < outLen; k++ {
				out[k] += w * pdf[k]
			}
		}
	}
	return out
}

// massBelow returns the probability mass of distances strictly below x,
// given sorted distances d and cumulative weights w.
func massBelow(d, w []float64, x float64) float64 {
	// First index with d[i] >= x; mass strictly below is w[i-1].
	i := sort.SearchFloat64s(d, x)
	if i == 0 {
		return 0
	}
	return w[i-1]
}

// PDom computes the exact probabilistic domination PDom(A, B, R) on the
// discrete sample model: the probability that A is closer to R than B.
func PDom(n geom.Norm, a, b, r *uncertain.Object) float64 {
	total := 0.0
	for ir := range r.NumSamples() {
		rs, wr := r.Sample(ir), r.Weight(ir)
		// Sort A's distances once per reference sample.
		type wd struct {
			d, w float64
		}
		ds := make([]wd, a.NumSamples())
		for j := range ds {
			ds[j] = wd{d: n.Dist(a.Sample(j), rs), w: a.Weight(j)}
		}
		sort.Slice(ds, func(x, y int) bool { return ds[x].d < ds[y].d })
		d := make([]float64, len(ds))
		w := make([]float64, len(ds))
		acc := 0.0
		for j, e := range ds {
			d[j] = e.d
			acc += e.w
			w[j] = acc
		}
		for ib := range b.NumSamples() {
			total += wr * b.Weight(ib) * massBelow(d, w, n.Dist(b.Sample(ib), rs))
		}
	}
	return a.ExistenceProb() * total
}

// ExpectedRank computes the expected rank of B w.r.t. reference R over
// the candidates (Corollary 6): E[Rank] = Σ_k P(DomCount = k)·(k+1).
func ExpectedRank(n geom.Norm, cands []*uncertain.Object, b, r *uncertain.Object) float64 {
	pdf := DomCountPDF(n, cands, b, r, 0)
	e := 0.0
	for k, p := range pdf {
		e += p * float64(k+1)
	}
	return e
}

// Resample returns a database whose objects carry s fresh samples each,
// drawn with replacement from the original discrete distributions — the
// "draw a sufficiently large number S of samples from each object by
// Monte-Carlo-Sampling" preparation step of the comparison partner.
// The rng makes runs reproducible.
func Resample(db uncertain.Database, s int, rng *rand.Rand) uncertain.Database {
	out := make(uncertain.Database, len(db))
	for i, o := range db {
		out[i] = o.Resample(s, rng)
	}
	return out
}
