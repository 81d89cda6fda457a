package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"probprune/internal/geom"
)

// This file pins the flat-node tree to the original pointer-based
// implementation (preserved as refTree in reference_test.go): the same
// Insert/Delete/Bulk/Clone trace must yield bit-identical observable
// behavior — tree bounds, DFS enumeration order, Walk node sequence
// (MBRs, counts AND the effect of Skip/Take verdicts), intersection
// order and the full best-first Nearby stream including exact
// distances — on every live generation of a trace, so clones sharing
// pages copy-on-write are checked for isolation too. The query layers'
// determinism guarantees (canonical
// influence sets, oracle-equal sharded merging, bit-identical crash
// recovery) all reduce to this equivalence.

// eqObserve drains every observable traversal of a tree-like into a
// canonical transcript. Both implementations expose the same method
// set, so one generic function observes both.
type eqTree interface {
	Len() int
	Bounds() (geom.Rect, bool)
	CheckInvariants() error
	All(fn func(rect geom.Rect, value int))
	Walk(node func(mbr geom.Rect, count int) WalkAction, leaf func(rect geom.Rect, value int))
	SearchIntersect(query geom.Rect, fn func(rect geom.Rect, value int) bool)
	Nearby(dist DistFunc[int], iter func(rect geom.Rect, value int, d float64) bool)
}

func fmtRect(r geom.Rect) string {
	var sb strings.Builder
	for _, v := range r.Min {
		fmt.Fprintf(&sb, "%x,", math.Float64bits(v))
	}
	sb.WriteByte('|')
	for _, v := range r.Max {
		fmt.Fprintf(&sb, "%x,", math.Float64bits(v))
	}
	return sb.String()
}

// walkVerdict is a pure function of the node callback's inputs, so both
// trees receive identical verdicts at identical traversal positions —
// exercising SkipSubtree and TakeSubtree pruning, not just full
// descent.
func walkVerdict(mbr geom.Rect, count int) WalkAction {
	h := uint64(count)
	for _, v := range mbr.Min {
		h = h*1099511628211 + math.Float64bits(v)
	}
	switch h % 7 {
	case 0:
		return SkipSubtree
	case 1:
		return TakeSubtree
	default:
		return Descend
	}
}

// observe produces the canonical transcript of every read path.
func observe(t *testing.T, tr eqTree, windows []geom.Rect, probes []geom.Rect) string {
	t.Helper()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "len=%d\n", tr.Len())
	if b, ok := tr.Bounds(); ok {
		fmt.Fprintf(&sb, "bounds=%s\n", fmtRect(b))
	} else {
		sb.WriteString("bounds=none\n")
	}
	sb.WriteString("all:")
	tr.All(func(r geom.Rect, v int) { fmt.Fprintf(&sb, " %s=%d", fmtRect(r), v) })
	sb.WriteString("\nwalk:")
	tr.Walk(
		func(mbr geom.Rect, count int) WalkAction {
			a := walkVerdict(mbr, count)
			fmt.Fprintf(&sb, " n(%s,%d,%d)", fmtRect(mbr), count, a)
			return a
		},
		func(r geom.Rect, v int) { fmt.Fprintf(&sb, " l(%s,%d)", fmtRect(r), v) },
	)
	for wi, w := range windows {
		fmt.Fprintf(&sb, "\nsearch%d:", wi)
		tr.SearchIntersect(w, func(r geom.Rect, v int) bool {
			fmt.Fprintf(&sb, " %s=%d", fmtRect(r), v)
			return true
		})
	}
	for pi, p := range probes {
		fmt.Fprintf(&sb, "\nnear%d:", pi)
		// MaxDist values over MinDist node bounds — the asymmetric pair
		// the preselection filters use; ties are frequent with the
		// lattice coordinates the traces generate.
		tr.Nearby(
			func(mbr geom.Rect, _ int, leaf bool) float64 {
				if leaf {
					return mbr.MaxDistRect(geom.L2, p)
				}
				return mbr.MinDistRect(geom.L2, p)
			},
			func(r geom.Rect, v int, d float64) bool {
				fmt.Fprintf(&sb, " %d@%x", v, math.Float64bits(d))
				return true
			},
		)
	}
	return sb.String()
}

// latticeRect draws a rectangle on a coarse lattice so duplicate
// coordinates, zero-area rectangles and exact distance ties are common.
func latticeRect(rng *rand.Rand, dim int) geom.Rect {
	min := make(geom.Point, dim)
	max := make(geom.Point, dim)
	for i := 0; i < dim; i++ {
		a := float64(rng.Intn(40)) / 4
		b := a + float64(rng.Intn(8))/4
		min[i], max[i] = a, b
	}
	return geom.Rect{Min: min, Max: max}
}

type eqEntry struct {
	rect geom.Rect
	val  int
}

// eqGen is one live generation of a trace: a flat tree, the reference
// tree it must match, and the entries both hold.
type eqGen struct {
	flat  *Tree[int]
	ref   *refTree[int]
	model []eqEntry
}

// maxEqGens bounds the generations a trace keeps alive: the newest
// clone plus up to 3 earlier ones, all sharing pages copy-on-write.
const maxEqGens = 4

// runEquivalenceTrace drives both implementations through one op trace
// and compares transcripts after every step. A clone keeps its source
// alive as an earlier generation, each mutation goes to a randomly
// chosen live generation, and every live generation is re-observed
// after every step — so a write on one side of a clone that showed on
// the other (a page written in place while shared) diverges from the
// reference.
func runEquivalenceTrace(t *testing.T, seed int64, dim, steps int) {
	rng := rand.New(rand.NewSource(seed))
	gens := []*eqGen{{flat: New[int](), ref: newRefTree[int]()}}
	next := 0

	windows := []geom.Rect{latticeRect(rng, dim), latticeRect(rng, dim)}
	probes := []geom.Rect{latticeRect(rng, dim), latticeRect(rng, dim)}

	for step := 0; step < steps; step++ {
		g := gens[rng.Intn(len(gens))]
		switch op := rng.Intn(10); {
		case op < 6: // insert (biased: trees must grow)
			r := latticeRect(rng, dim)
			g.flat.Insert(r, next)
			g.ref.Insert(r, next)
			g.model = append(g.model, eqEntry{rect: r, val: next})
			next++
		case op < 8 && len(g.model) > 0: // delete random existing entry
			i := rng.Intn(len(g.model))
			e := g.model[i]
			if !g.flat.Delete(e.rect, e.val) || !g.ref.Delete(e.rect, e.val) {
				t.Fatalf("seed %d step %d: delete of existing entry failed", seed, step)
			}
			g.model = slices.Delete(g.model, i, i+1)
		case op == 8: // rebuild via STR bulk load
			items := make([]BulkItem[int], len(g.model))
			for i, e := range g.model {
				items[i] = BulkItem[int]{Rect: e.rect, Value: e.val}
			}
			g.flat = Bulk(items)
			g.ref = refBulk(items)
		default: // clone; the source stays live as an earlier generation
			gens = append(gens, &eqGen{flat: g.flat.Clone(), ref: g.ref.Clone(), model: slices.Clone(g.model)})
			if len(gens) > maxEqGens {
				gens = gens[1:]
			}
		}
		for gi, g := range gens {
			got := observe(t, g.flat, windows, probes)
			want := observe(t, g.ref, windows, probes)
			if got != want {
				t.Fatalf("seed %d step %d generation %d/%d: transcripts diverge\nflat: %.400s\nref:  %.400s", seed, step, gi, len(gens), got, want)
			}
		}
	}
}

// TestFlatTreeEquivalence: seeded randomized traces across dimensions
// and sizes. Each trace interleaves inserts, deletes (exercising
// condense/reinsert), bulk rebuilds and clones whose generations stay
// live and mutable side by side.
func TestFlatTreeEquivalence(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			dim := 2 + int(seed%2)
			steps := 120
			if testing.Short() {
				steps = 40
			}
			runEquivalenceTrace(t, seed, dim, steps)
		})
	}
}

// TestFlatTreeEquivalenceLarge: one long 2-D trace deep enough for a
// multi-level tree with root splits, collapses and large reinsertion
// cascades.
func TestFlatTreeEquivalenceLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	runEquivalenceTrace(t, 424242, 2, 700)
}

// FuzzFlatTreeEquivalence lets the native fuzzer search for divergent
// traces: the input bytes seed the trace generator.
func FuzzFlatTreeEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(60))
	f.Add(int64(77), uint8(3), uint8(90))
	f.Fuzz(func(t *testing.T, seed int64, dim, steps uint8) {
		d := 2 + int(dim%3)
		n := int(steps)%120 + 5
		runEquivalenceTrace(t, seed, d, n)
	})
}
