package uncertain

import (
	"math"
	"math/rand"
	"testing"

	"probprune/internal/geom"
)

func randomObject(rng *rand.Rand, id, n, d int) *Object {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	o, err := NewObject(id, pts)
	if err != nil {
		panic(err)
	}
	return o
}

func TestDecompLevelZeroIsWholeObject(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	o := randomObject(rng, 0, 100, 2)
	tr := NewDecompTree(o, 0)
	parts := tr.PartitionsAtLevel(0)
	if len(parts) != 1 {
		t.Fatalf("level 0 has %d partitions", len(parts))
	}
	if !parts[0].MBR.Equal(o.MBR) || parts[0].Prob != 1 {
		t.Errorf("level 0 partition %+v", parts[0])
	}
	// Negative levels clamp to 0.
	if got := tr.PartitionsAtLevel(-3); len(got) != 1 {
		t.Errorf("negative level gave %d partitions", len(got))
	}
}

func TestDecompMedianSplitMass(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	o := randomObject(rng, 0, 256, 2)
	tr := NewDecompTree(o, 0)
	// Uniform weights and power-of-two sample counts: every level-h
	// partition has mass exactly 0.5^h, the Section V property.
	for h := 1; h <= 6; h++ {
		parts := tr.PartitionsAtLevel(h)
		if len(parts) != 1<<h {
			t.Fatalf("level %d has %d partitions, want %d", h, len(parts), 1<<h)
		}
		want := math.Pow(0.5, float64(h))
		for _, p := range parts {
			if !almostEqual(p.Prob, want, 1e-12) {
				t.Fatalf("level %d partition mass %g, want %g", h, p.Prob, want)
			}
		}
	}
}

func TestDecompInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(300)
		d := 1 + rng.Intn(3)
		o := randomObject(rng, trial, n, d)
		tr := NewDecompTree(o, 0)
		if err := tr.CheckInvariants(8); err != nil {
			t.Fatalf("n=%d d=%d: %v", n, d, err)
		}
	}
}

func TestDecompPartitionsDisjointInSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	o := randomObject(rng, 0, 97, 2) // odd count: uneven splits
	tr := NewDecompTree(o, 0)
	for h := 1; h <= 7; h++ {
		parts := tr.PartitionsAtLevel(h)
		// Each sample must fall inside at least one partition MBR and
		// total mass must be 1 (disjointness of the underlying sample
		// partition is structural; MBRs may touch).
		mass := 0.0
		for _, p := range parts {
			mass += p.Prob
		}
		if !almostEqual(mass, 1, 1e-9) {
			t.Fatalf("level %d mass = %g", h, mass)
		}
		for i := range o.NumSamples() {
			s := o.Sample(i)
			found := false
			for _, p := range parts {
				if p.MBR.Contains(s) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("sample %v not covered at level %d", s, h)
			}
		}
	}
}

func TestDecompWeightedMedian(t *testing.T) {
	// One heavy sample and several light ones: the split must keep both
	// sides non-empty and mass must be conserved.
	pts := []geom.Point{{0}, {1}, {2}, {3}}
	o, err := NewWeightedObject(0, pts, []float64{0.97, 0.01, 0.01, 0.01})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewDecompTree(o, 0)
	parts := tr.PartitionsAtLevel(1)
	if len(parts) != 2 {
		t.Fatalf("level 1 has %d partitions", len(parts))
	}
	if !almostEqual(parts[0].Prob+parts[1].Prob, 1, 1e-12) {
		t.Errorf("mass not conserved: %g + %g", parts[0].Prob, parts[1].Prob)
	}
	if err := tr.CheckInvariants(5); err != nil {
		t.Error(err)
	}
}

func TestDecompSingleSampleIsLeafForever(t *testing.T) {
	o := PointObject(0, geom.Point{1, 1})
	tr := NewDecompTree(o, 0)
	for h := 0; h <= 5; h++ {
		parts := tr.PartitionsAtLevel(h)
		if len(parts) != 1 || parts[0].Prob != 1 {
			t.Fatalf("level %d: %+v", h, parts)
		}
	}
}

func TestDecompCoincidentSamples(t *testing.T) {
	// All samples at the same position: zero-extent region, never split.
	pts := []geom.Point{{2, 2}, {2, 2}, {2, 2}}
	o, _ := NewObject(0, pts)
	tr := NewDecompTree(o, 0)
	for h := 0; h <= 4; h++ {
		if parts := tr.PartitionsAtLevel(h); len(parts) != 1 {
			t.Fatalf("level %d split a degenerate region", h)
		}
	}
}

func TestDecompHeightLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	o := randomObject(rng, 0, 1024, 2)
	tr := NewDecompTree(o, 3)
	if tr.MaxHeight() != 3 {
		t.Fatalf("MaxHeight = %d", tr.MaxHeight())
	}
	deep := tr.PartitionsAtLevel(10)
	atLimit := tr.PartitionsAtLevel(3)
	if len(deep) != len(atLimit) {
		t.Errorf("levels beyond the limit must clamp: %d vs %d", len(deep), len(atLimit))
	}
}

func TestDecompChildMBRsTighten(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	o := randomObject(rng, 0, 512, 2)
	tr := NewDecompTree(o, 0)
	objArea := o.MBR.Area()
	area := func(h int) float64 {
		total := 0.0
		for _, p := range tr.PartitionsAtLevel(h) {
			total += p.MBR.Area()
		}
		return total
	}
	// Tight child MBRs shrink aggregate area as the decomposition
	// refines. Level-to-level monotonicity is not guaranteed, but deep
	// levels must be far below the whole object for uniform data, and
	// single-sample leaves have zero area.
	if a8 := area(8); a8 > objArea*0.5 {
		t.Errorf("decomposition does not tighten: level-8 area %g vs object %g", a8, objArea)
	}
	if a10 := area(10); a10 != 0 {
		t.Errorf("single-sample leaves must have zero area, got %g", a10)
	}
}

func TestDecompObjectAccessor(t *testing.T) {
	o := PointObject(4, geom.Point{0})
	tr := NewDecompTree(o, 0)
	if tr.Object() != o {
		t.Error("Object accessor mismatch")
	}
}

// TestLevelWithChildren: the first-child table of level l maps every
// partition of level l−1 onto a run of one or two partitions of level l
// that carry exactly its mass inside its MBR; an only child is the
// parent itself (an unsplittable leaf standing in for its descendants);
// level 0 and levels beyond the height limit have no table, because the
// map is the identity there. Packing a level leaves it equal.
func TestLevelWithChildren(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, n := range []int{1, 3, 8, 13, 64} {
		o := randomObject(rng, n, n, 2)
		if n == 13 {
			copy(o.Sample(5), o.Sample(4)) // a repeated sample
		}
		const height = 5
		tr := NewDecompTree(o, height)
		prev, first := tr.LevelWithChildren(0)
		if first != nil {
			t.Fatalf("n=%d: level 0 has a child table", n)
		}
		for l := 1; l <= height; l++ {
			parts, first := tr.LevelWithChildren(l)
			if len(first) != len(prev)+1 || first[0] != 0 || int(first[len(prev)]) != len(parts) {
				t.Fatalf("n=%d level %d: table %v for %d parents, %d children", n, l, first, len(prev), len(parts))
			}
			for p, parent := range prev {
				kids := parts[first[p]:first[p+1]]
				switch len(kids) {
				case 1:
					if !kids[0].MBR.Equal(parent.MBR) || kids[0].Prob != parent.Prob {
						t.Fatalf("n=%d level %d: only child %+v of %+v is not the parent", n, l, kids[0], parent)
					}
				case 2:
					if !almostEqual(kids[0].Prob+kids[1].Prob, parent.Prob, 1e-12) {
						t.Fatalf("n=%d level %d: children carry %g of the parent's %g", n, l, kids[0].Prob+kids[1].Prob, parent.Prob)
					}
				default:
					t.Fatalf("n=%d level %d: parent %d has %d children", n, l, p, len(kids))
				}
				for _, kid := range kids {
					if !parent.MBR.ContainsRect(kid.MBR) {
						t.Fatalf("n=%d level %d: child %v escapes parent %v", n, l, kid.MBR, parent.MBR)
					}
				}
			}
			packed := PackPartitions(parts)
			for i := range parts {
				if !packed[i].MBR.Equal(parts[i].MBR) || packed[i].Prob != parts[i].Prob {
					t.Fatalf("n=%d level %d: packed partition %d differs", n, l, i)
				}
			}
			prev = parts
		}
		beyond, first := tr.LevelWithChildren(height + 2)
		if first != nil || len(beyond) != len(prev) {
			t.Fatalf("n=%d: level past the height limit has table %v, %d partitions (limit level has %d)", n, first, len(beyond), len(prev))
		}
	}
}
