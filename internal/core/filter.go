package core

import (
	"probprune/internal/geom"
	"probprune/internal/rtree"
	"probprune/internal/uncertain"
)

// Role classifies the contribution one database object makes to an IDCA
// run with a given target and reference: it either shifts the
// domination count in every possible world, can never contribute, or
// belongs to the influence set whose decompositions drive refinement.
// It is the per-object outcome of the complete-domination filter
// (Section III-A plus the existential-uncertainty rule of Section I-A),
// answered by Filter.Role, so that incremental maintainers (package cq)
// can decide — from MBRs alone — whether a mutated object could be part
// of a candidate's canonical influence set and therefore whether the
// candidate's persisted verdict is still valid.
type Role uint8

const (
	// RolePruned: the target dominates the object in every possible
	// world; it can never contribute to the count.
	RolePruned Role = iota
	// RoleDominator: the object dominates the target in every possible
	// world and certainly exists; it shifts the count PDF by one.
	RoleDominator
	// RoleInfluence: the domination relation is uncertain (or the
	// object's existence is); the object is an influence object.
	RoleInfluence
)

// String returns a short human-readable role name.
func (r Role) String() string {
	switch r {
	case RolePruned:
		return "pruned"
	case RoleDominator:
		return "dominator"
	default:
		return "influence"
	}
}

// Filter is the complete-domination filter step of Algorithm 1 for one
// (target, reference) pair: one geom.PairKernel built on (target.MBR,
// reference.MBR) decides every object, R-tree node and whole cut fed to
// it, and the filter accumulates the outcome — complete dominators,
// pruned objects and the influence set. The filter classifies every
// object on its own, so feeding it any partition of a database, piece by
// piece and by any mix of Scan, Walk and Whole, yields the outcome of
// the whole database: counts add, and the influence set is brought into
// canonical (object ID) order before refinement reads it. Session and
// Run then refine that outcome, bit-identically to a single scan.
//
// The zero value is ready for Reset; a Filter needs no allocation
// beyond its influence set.
type Filter struct {
	target, reference *uncertain.Object
	kernel            geom.PairKernel
	dominators        int
	pruned            int
	influence         []*uncertain.Object
}

// Reset starts an empty outcome for target and reference under opts'
// norm and criterion. The target and the reference are never counted:
// they are skipped by identity wherever they are fed to the filter.
func (f *Filter) Reset(target, reference *uncertain.Object, opts Options) {
	f.target, f.reference = target, reference
	f.kernel.Reset(opts.norm(), opts.Criterion, target.MBR, reference.MBR)
	f.dominators, f.pruned, f.influence = 0, 0, nil
}

// Role returns the role an object with uncertainty region a and
// existence probability exist plays in the filter's run. Two states of a
// database differ in a run's outcome only where Role differs (or where
// an influence object's interior distribution changed): a mutation whose
// old and new states are both RolePruned, or both RoleDominator, leaves
// the run's bounds bit-identical.
func (f *Filter) Role(a geom.Rect, exist float64) Role {
	return role(f.kernel.Relate(a), exist)
}

// role maps a verdict of the kernel to a role. An object that dominates
// only in the worlds where it exists cannot shift the count.
func role(rel geom.Relation, exist float64) Role {
	switch rel {
	case geom.NeverCloser:
		return RolePruned
	case geom.Dominates:
		if exist < 1 {
			return RoleInfluence
		}
		return RoleDominator
	}
	return RoleInfluence
}

// add records object a in role r.
func (f *Filter) add(a *uncertain.Object, r Role) {
	switch r {
	case RoleDominator:
		f.dominators++
	case RolePruned:
		f.pruned++
	default:
		f.influence = append(f.influence, a)
	}
}

// Scan feeds every object of db to the filter, one by one.
func (f *Filter) Scan(db uncertain.Database) {
	for _, a := range db {
		if a != f.target && a != f.reference {
			f.add(a, f.Role(a.MBR, a.ExistenceProb()))
		}
	}
}

// subtree decides a subtree with bounding rectangle mbr as a whole: the
// kernel's verdict, or Unknown when the target or the reference could
// live inside it and must be excluded by identity. (A subtree that
// contains the target overlaps it and never dominates, so only the
// reference needs the check in practice; both are tested for symmetry.)
func (f *Filter) subtree(mbr geom.Rect) geom.Relation {
	if mbr.ContainsRect(f.target.MBR) || mbr.ContainsRect(f.reference.MBR) {
		return geom.Unknown
	}
	return f.kernel.Relate(mbr)
}

// Walk feeds every object of index to the filter, deciding whole
// subtrees where the node MBR already settles the relation (the index
// integration of Section VIII): a dominated subtree is pruned by count;
// the objects of a dominating one skip their own test but each still
// passes the existence rule, so an existentially uncertain dominator
// joins the influence set.
func (f *Filter) Walk(index IndexTree) {
	// dominating marks the subtree being emitted by TakeSubtree. Walk is
	// a sequential DFS, and every node callback sets it.
	dominating := false
	index.Walk(
		func(mbr geom.Rect, count int) rtree.WalkAction {
			rel := f.subtree(mbr)
			dominating = rel == geom.Dominates
			switch rel {
			case geom.Dominates:
				return rtree.TakeSubtree
			case geom.NeverCloser:
				f.pruned += count
				return rtree.SkipSubtree
			}
			return rtree.Descend
		},
		func(_ geom.Rect, a *uncertain.Object) {
			if a == f.target || a == f.reference {
				return
			}
			rel := geom.Dominates
			if !dominating {
				rel = f.kernel.Relate(a.MBR)
			}
			f.add(a, role(rel, a.ExistenceProb()))
		},
	)
}

// Whole tries to decide a whole partition of count objects from its
// bounding rectangle, without touching any object — the cut-level form
// of Walk's node decisions, under the same guard. A dominated partition
// is pruned by count; a dominating one shifts the count by count only
// when allCertain reports that every resident object certainly exists
// (allCertain is called only then). It reports false, and records
// nothing, when the partition needs a Walk or a Scan.
func (f *Filter) Whole(bounds geom.Rect, count int, allCertain func() bool) bool {
	switch f.subtree(bounds) {
	case geom.NeverCloser:
		f.pruned += count
		return true
	case geom.Dominates:
		if allCertain() {
			f.dominators += count
			return true
		}
	}
	return false
}

// Run refines the filter's outcome to completion (see Session).
func (f *Filter) Run(opts Options) *Result { return f.Session(opts).run() }
