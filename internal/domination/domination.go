// Package domination computes conservative and progressive bounds on
// the probabilistic domination PDom(A, B, R) — the probability that
// uncertain object A is closer to uncertain reference R than uncertain
// object B is (Section III of the paper).
//
// The bounds avoid any PDF integration: given disjunctive
// decompositions of the objects into partitions with exactly known
// probability mass, Lemma 1 accumulates the mass of partition
// combinations for which the geometric domination criterion decides the
// relation, and Lemma 2 derives the upper bound from the reverse
// relation. When only A is decomposed while B and R stay whole, the
// resulting bounds for different candidates A_i are mutually
// independent (Lemma 3) — the property that lets the uncertain
// generating functions of package gf combine them into a domination
// count.
package domination

import (
	"probprune/internal/geom"
	"probprune/internal/gf"
	"probprune/internal/uncertain"
)

// Bounds computes the probability interval [PDomLB, PDomUB] for
// PDom(A, B, R) with A decomposed into aParts and B and R taken whole
// (as the rectangles b and r). This is the Lemma 3 setting: bounds
// computed this way are mutually independent across different
// candidates A_i, because B and R are not decomposed.
//
//	PDomLB = Σ_{A' : Dom(A', B, R)} P(A')
//	PDomUB = 1 − Σ_{A' : NeverCloser(A', B, R)} P(A')
//
// with Dom and NeverCloser the verdicts of one geom.PairKernel built
// for (b, r).
func Bounds(n geom.Norm, crit geom.Criterion, aParts []uncertain.Partition, b, r geom.Rect) gf.Interval {
	return BoundsWithExistence(n, crit, aParts, 1, b, r)
}

// BoundsWithExistence is Bounds for an existentially uncertain
// candidate: A exists with probability exist, and its position
// distribution (the decomposition) is conditional on existence. A
// non-existing object never dominates, so both bounds scale by exist —
// the Section I-A adaptation of the framework to ∫ f < 1.
func BoundsWithExistence(n geom.Norm, crit geom.Criterion, aParts []uncertain.Partition, exist float64, b, r geom.Rect) gf.Interval {
	var k geom.PairKernel
	k.Reset(n, crit, b, r)
	lb, notUB := 0.0, 0.0
	for _, ap := range aParts {
		switch k.Relate(ap.MBR) {
		case geom.Dominates:
			lb += ap.Prob
		case geom.NeverCloser:
			notUB += ap.Prob
		}
	}
	return FromMass(exist, lb, notUB)
}

// FromMass turns decided partition mass into the Lemma 3 interval: dom
// is the mass of A's partitions that dominate B, sub the mass of those B
// dominates, and an object that exists with probability exist dominates
// with probability in [exist·dom, exist·(1−sub)]. Callers that carry the
// two sums across refinement levels (core.Session) build their intervals
// here, so they agree with BoundsWithExistence on equal sums.
func FromMass(exist, dom, sub float64) gf.Interval {
	return clampInterval(exist*dom, exist*(1-sub))
}

// BoundsDecomposed computes the probability interval for PDom(A, B, R)
// with all three objects decomposed (the general Lemma 1 / Lemma 2
// form):
//
//	PDomLB = Σ_{A',B',R' : Dom(A',B',R')} P(A')·P(B')·P(R')
//	PDomUB = 1 − Σ_{A',B',R' : NeverCloser(A',B',R')} P(A')·P(B')·P(R')
//
// Bounds obtained this way are tighter than Bounds but are NOT mutually
// independent across candidates (Section IV-A): they must not be fed
// into a generating function directly. The iterative algorithm instead
// fixes one (B', R') pair at a time and calls Bounds per pair (Lemma
// 5 / Section IV-E).
func BoundsDecomposed(n geom.Norm, crit geom.Criterion, aParts, bParts, rParts []uncertain.Partition) gf.Interval {
	var k geom.PairKernel
	lb, notUB := 0.0, 0.0
	for _, bp := range bParts {
		for _, rp := range rParts {
			w := bp.Prob * rp.Prob
			k.Reset(n, crit, bp.MBR, rp.MBR)
			for _, ap := range aParts {
				switch k.Relate(ap.MBR) {
				case geom.Dominates:
					lb += w * ap.Prob
				case geom.NeverCloser:
					notUB += w * ap.Prob
				}
			}
		}
	}
	return clampInterval(lb, 1-notUB)
}

// clampInterval guards against floating-point drift taking the interval
// outside [0, 1] or inverting it.
func clampInterval(lb, ub float64) gf.Interval {
	if lb < 0 {
		lb = 0
	}
	if ub > 1 {
		ub = 1
	}
	if ub < lb {
		ub = lb
	}
	return gf.Interval{LB: lb, UB: ub}
}
