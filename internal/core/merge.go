package core

import (
	"probprune/internal/domination"
	"probprune/internal/geom"
	"probprune/internal/uncertain"
)

// This file makes the complete-domination filter step mergeable across
// database partitions — the primitive a sharded engine is built on.
//
// The filter of Section III-A classifies every database object
// independently of every other (ClassifyRole reads only the object, the
// target and the reference), so the filter outcome over a database is
// the disjoint union of the outcomes over any partition of it: complete
// dominator and pruned counts add, influence sets concatenate. Since
// newSession canonicalizes the influence set into object-ID order
// before any interval arithmetic touches it, a refinement run over the
// merged filter outcome is bit-identical to one over the monolithic
// filter — per-shard filters can be scattered over independent R-trees
// and gathered at a router with no loss of exactness and no extra
// refinement work.

// PartialFilter is the complete-domination filter outcome over one
// partition (shard) of the database: the mergeable "verdict" of the
// filter step. Merge partials with MergePartials and hand the union to
// RunMerged or NewSessionMerged.
type PartialFilter struct {
	// Dominators counts partition objects that dominate the target in
	// every possible world and certainly exist.
	Dominators int
	// Pruned counts partition objects completely dominated by the
	// target.
	Pruned int
	// Influence holds the partition objects whose domination relation
	// (or existence) remains uncertain.
	Influence []*uncertain.Object
}

// PartialFilterLinear runs the complete-domination filter over one
// database partition with a linear scan. The target and reference are
// skipped by identity, exactly as Run does.
func PartialFilterLinear(db uncertain.Database, target, reference *uncertain.Object, opts Options) PartialFilter {
	var pf PartialFilter
	n := opts.norm()
	for _, a := range db {
		if a == target || a == reference {
			continue
		}
		classifyInto(&pf, n, opts.Criterion, a, target, reference)
	}
	return pf
}

// PartialFilterWhole attempts to classify an entire partition wholesale
// from its bounding rectangle, without touching any object: when bounds
// is completely dominated by the target the whole partition is pruned
// by count; when it completely dominates — and allCertain reports that
// every resident object certainly exists (existentially uncertain
// dominators belong to the influence set) — the whole partition shifts
// the count; allCertain is called only then. The guard conditions
// mirror the per-node wholesale decisions of the indexed filter exactly
// (including the target/reference containment check that forces a
// descent to exclude the operands by identity), so taking the shortcut
// never changes the merged outcome. Returns ok = false when
// the partition needs an object-level filter.
func PartialFilterWhole(bounds geom.Rect, count int, allCertain func() bool, target, reference *uncertain.Object, opts Options) (PartialFilter, bool) {
	b, r := target.MBR, reference.MBR
	if bounds.ContainsRect(b) || bounds.ContainsRect(r) {
		return PartialFilter{}, false
	}
	switch domination.Classify(opts.norm(), opts.Criterion, bounds, b, r) {
	case domination.DominatedByTarget:
		return PartialFilter{Pruned: count}, true
	case domination.DominatesTarget:
		if allCertain() {
			return PartialFilter{Dominators: count}, true
		}
	}
	return PartialFilter{}, false
}

// MergePartials gathers per-partition filter outcomes into the filter
// outcome of the union: counts sum, influence sets concatenate and are
// brought into canonical (object ID) order — the same order
// newSession installs, so downstream bounds are bit-identical to a
// monolithic filter over the combined database. One partial is brought
// into canonical order in place and returned without a copy.
func MergePartials(parts ...PartialFilter) PartialFilter {
	if len(parts) == 1 {
		canonicalize(parts[0].Influence)
		return parts[0]
	}
	var out PartialFilter
	total := 0
	for _, p := range parts {
		out.Dominators += p.Dominators
		out.Pruned += p.Pruned
		total += len(p.Influence)
	}
	if total > 0 {
		out.Influence = make([]*uncertain.Object, 0, total)
		for _, p := range parts {
			out.Influence = append(out.Influence, p.Influence...)
		}
	}
	canonicalize(out.Influence)
	return out
}

// RunMerged executes IDCA refinement on a merged filter outcome: the
// cross-shard gather step. The result is bit-identical to Run (or
// RunIndexed) over the combined database, because classification is
// per-object and the influence order is canonical either way.
func RunMerged(target, reference *uncertain.Object, pf PartialFilter, opts Options) *Result {
	return newSession(target, reference, pf, opts).run()
}

// NewSessionMerged is NewSession seeded with a merged filter outcome:
// the filter phase is already done, Step drives refinement.
func NewSessionMerged(target, reference *uncertain.Object, pf PartialFilter, opts Options) *Session {
	return newSession(target, reference, pf, opts)
}
