package domination

import (
	"math/rand"
	"testing"

	"probprune/internal/geom"
	"probprune/internal/mc"
	"probprune/internal/uncertain"
)

func randObj(rng *rand.Rand, id, n int, cx, cy, ext float64) *uncertain.Object {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{cx + (rng.Float64()-0.5)*ext, cy + (rng.Float64()-0.5)*ext}
	}
	o, err := uncertain.NewObject(id, pts)
	if err != nil {
		panic(err)
	}
	return o
}

// Property: for random uncertain objects, the Lemma 3 bounds at every
// decomposition level contain the exact PDom, and they tighten
// monotonically with the level.
func TestBoundsContainExactPDomAndTighten(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for trial := 0; trial < 30; trial++ {
		a := randObj(rng, 0, 64, rng.Float64()*4, rng.Float64()*4, 2)
		b := randObj(rng, 1, 64, rng.Float64()*4, rng.Float64()*4, 2)
		r := randObj(rng, 2, 64, rng.Float64()*4, rng.Float64()*4, 2)
		exact := mc.PDom(geom.L2, a, b, r)
		tree := uncertain.NewDecompTree(a, 0)
		prevWidth := 2.0
		for level := 0; level <= 7; level++ {
			iv := Bounds(geom.L2, geom.Optimal, tree.PartitionsAtLevel(level), b.MBR, r.MBR)
			if !iv.Contains(exact, 1e-9) {
				t.Fatalf("trial %d level %d: exact %g outside [%g, %g]",
					trial, level, exact, iv.LB, iv.UB)
			}
			if iv.Width() > prevWidth+1e-9 {
				t.Fatalf("trial %d level %d: bounds widened %g -> %g",
					trial, level-1, prevWidth, iv.Width())
			}
			prevWidth = iv.Width()
		}
	}
}

// Property: the general triple-decomposition bounds (Lemma 1/2) also
// contain the exact value and are at least as tight as the Lemma 3
// bounds at the same level.
func TestBoundsDecomposedTighterAndSound(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	strictly := 0
	for trial := 0; trial < 20; trial++ {
		a := randObj(rng, 0, 32, rng.Float64()*3, rng.Float64()*3, 2)
		b := randObj(rng, 1, 32, rng.Float64()*3, rng.Float64()*3, 2)
		r := randObj(rng, 2, 32, rng.Float64()*3, rng.Float64()*3, 2)
		exact := mc.PDom(geom.L2, a, b, r)
		ta := uncertain.NewDecompTree(a, 0)
		tb := uncertain.NewDecompTree(b, 0)
		trr := uncertain.NewDecompTree(r, 0)
		for level := 0; level <= 4; level++ {
			ap := ta.PartitionsAtLevel(level)
			single := Bounds(geom.L2, geom.Optimal, ap, b.MBR, r.MBR)
			triple := BoundsDecomposed(geom.L2, geom.Optimal, ap,
				tb.PartitionsAtLevel(level), trr.PartitionsAtLevel(level))
			if !triple.Contains(exact, 1e-9) {
				t.Fatalf("trial %d level %d: exact %g outside triple [%g, %g]",
					trial, level, exact, triple.LB, triple.UB)
			}
			if triple.LB < single.LB-1e-9 || triple.UB > single.UB+1e-9 {
				t.Fatalf("trial %d level %d: triple [%g, %g] looser than single [%g, %g]",
					trial, level, triple.LB, triple.UB, single.LB, single.UB)
			}
			if triple.Width() < single.Width()-1e-9 {
				strictly++
			}
		}
	}
	if strictly == 0 {
		t.Error("triple decomposition was never strictly tighter")
	}
}

func TestBoundsConvergeToExactAtFullDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	// Small sample counts so full depth reaches single-sample leaves;
	// with B and R also fully decomposed the bounds must collapse to
	// the exact probability (up to ties, which we avoid by continuous
	// random coordinates).
	a := randObj(rng, 0, 8, 0, 0, 2)
	b := randObj(rng, 1, 8, 1.5, 0, 2)
	r := randObj(rng, 2, 8, 0.5, 1, 2)
	exact := mc.PDom(geom.L2, a, b, r)
	ta := uncertain.NewDecompTree(a, 0)
	tb := uncertain.NewDecompTree(b, 0)
	trr := uncertain.NewDecompTree(r, 0)
	iv := BoundsDecomposed(geom.L2, geom.Optimal, ta.PartitionsAtLevel(6),
		tb.PartitionsAtLevel(6), trr.PartitionsAtLevel(6))
	if iv.Width() > 1e-9 {
		t.Fatalf("bounds did not collapse at full depth: [%g, %g]", iv.LB, iv.UB)
	}
	if !iv.Contains(exact, 1e-9) {
		t.Fatalf("collapsed bound %g misses exact %g", iv.LB, exact)
	}
}

// TestClassify: the three clear cases of the complete-domination
// verdict, as the bounds of an undecomposed object — near dominates the
// target ([1, 1]), the target dominates far ([0, 0]), and an overlap of
// the reference's distance range decides neither way ([0, 1]).
func TestClassify(t *testing.T) {
	mk := func(x0, x1 float64) geom.Rect {
		r, err := geom.NewRect(geom.Point{x0, 0}, geom.Point{x1, 1})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	whole := func(a geom.Rect) []uncertain.Partition { return []uncertain.Partition{{MBR: a, Prob: 1}} }
	a := mk(0, 1)
	b := mk(10, 11)
	r := mk(1.5, 2)
	c := mk(1.4, 2.4) // overlaps the reference's distance range
	for _, tc := range []struct {
		name           string
		a, target      geom.Rect
		wantLB, wantUB float64
	}{
		{"near", a, b, 1, 1},
		{"far", b, a, 0, 0},
		{"ambiguous", c, a, 0, 1},
	} {
		for _, crit := range []geom.Criterion{geom.Optimal, geom.MinMax} {
			got := Bounds(geom.L2, crit, whole(tc.a), tc.target, r)
			if got.LB != tc.wantLB || got.UB != tc.wantUB {
				t.Errorf("%s %v: bounds [%g, %g], want [%g, %g]", tc.name, crit, got.LB, got.UB, tc.wantLB, tc.wantUB)
			}
		}
	}
}

func TestBoundsWithMinMaxCriterionAreLooserButSound(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 20; trial++ {
		a := randObj(rng, 0, 32, rng.Float64()*3, rng.Float64()*3, 2)
		b := randObj(rng, 1, 32, rng.Float64()*3, rng.Float64()*3, 2)
		r := randObj(rng, 2, 32, rng.Float64()*3, rng.Float64()*3, 2)
		exact := mc.PDom(geom.L2, a, b, r)
		tree := uncertain.NewDecompTree(a, 0)
		for level := 0; level <= 4; level++ {
			parts := tree.PartitionsAtLevel(level)
			opt := Bounds(geom.L2, geom.Optimal, parts, b.MBR, r.MBR)
			mm := Bounds(geom.L2, geom.MinMax, parts, b.MBR, r.MBR)
			if !mm.Contains(exact, 1e-9) {
				t.Fatalf("min/max bounds unsound at level %d", level)
			}
			if opt.LB < mm.LB-1e-9 || opt.UB > mm.UB+1e-9 {
				t.Fatalf("optimal bounds looser than min/max at level %d", level)
			}
		}
	}
}
