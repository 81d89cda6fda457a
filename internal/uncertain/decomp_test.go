package uncertain

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
// level 0, a level in which nothing splits and levels beyond the height
// limit have no table, because the map is the identity there — such a
// level is the one above, the same slice.
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
			if first == nil {
				if len(parts) != len(prev) || &parts[0] != &prev[0] {
					t.Fatalf("n=%d level %d: no child table, but the level is not the one above", n, l)
				}
				continue
			}
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
			prev = parts
		}
		beyond, first := tr.LevelWithChildren(height + 2)
		if first != nil || len(beyond) != len(prev) {
			t.Fatalf("n=%d: level past the height limit has table %v, %d partitions (limit level has %d)", n, first, len(beyond), len(prev))
		}
	}
}

// TestDecompTreeMatchesReference runs the FuzzDecompTree check on
// random objects larger than the fuzzer builds: 64 and 1000 samples,
// uniform and weighted, in one to three dimensions.
func TestDecompTreeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	for trial := 0; trial < 12; trial++ {
		n := []int{64, 1000}[trial%2]
		o := randomObject(rng, trial, n, 1+trial%3)
		if trial%4 >= 2 {
			w := make([]float64, n)
			for i := range w {
				w[i] = rng.Float64()
			}
			var err error
			if o, err = NewFlatObject(trial, o.Dim(), o.Coords, w); err != nil {
				t.Fatal(err)
			}
		}
		checkAgainstReference(t, o, []int{0, 4, 12}[trial%3], trial%5)
	}
}

// FuzzDecompTree: the implicit DecompTree and the pointer tree it
// replaced (decomp_reference_test.go) agree at every level up to and
// past the leaf depth and the height limit — partitions bit for bit,
// child maps (nil standing for the identity) and CheckInvariants.
func FuzzDecompTree(f *testing.F) {
	for _, seed := range []struct {
		raw          []byte
		dim          uint8
		weights      []byte
		height, from uint8
	}{
		// Weighted ties straddling the cut: equal coordinates around the
		// mass median, the heavy sample among them.
		{[]byte{8, 8, 8, 8, 16, 16, 4}, 0, []byte{1, 1, 9, 1, 1, 1, 1}, 0, 0},
		{[]byte{8, 16, 8, 16, 8, 16, 8, 16}, 0, []byte{3, 1, 1, 3, 2, 2, 1, 1}, 0, 3},
		// Duplicate samples.
		{[]byte{20, 40, 20, 40, 20, 40, 60, 80, 60, 80}, 1, nil, 0, 0},
		// A zero-extent axis: every sample shares its y.
		{[]byte{4, 40, 8, 40, 12, 40, 16, 40, 20, 40, 24, 40}, 1, nil, 0, 0},
		// ±0 on the cut and on the bounds.
		{[]byte{0, 1, 2, 3, 1, 0, 3, 2, 40, 1}, 1, nil, 0, 0},
		// A single sample.
		{[]byte{44}, 0, nil, 0, 0},
		// Zero weights.
		{[]byte{4, 8, 12, 16, 20, 24, 28, 32}, 0, []byte{0, 5, 0, 0, 7, 0, 1, 0}, 0, 0},
		// Small height limits.
		{[]byte{9, 200, 37, 81, 120, 4, 66, 250, 13, 99, 180, 45}, 2, nil, 1, 0},
		{[]byte{9, 200, 37, 81, 120, 4, 66, 250, 13, 99, 180, 45}, 1, []byte{2, 7}, 2, 5},
	} {
		f.Add(seed.raw, seed.dim, seed.weights, seed.height, seed.from)
	}
	f.Fuzz(func(t *testing.T, raw []byte, dim uint8, weights []byte, height, from uint8) {
		d := 1 + int(dim%3)
		n := min(len(raw)/d, 256)
		if n == 0 {
			return
		}
		coords := make([]float64, n*d)
		for i := range coords {
			coords[i] = fuzzCoord(raw[i])
		}
		var w []float64
		if len(weights) > 0 {
			w = make([]float64, n)
			for i := range w {
				w[i] = float64(weights[i%len(weights)])
			}
		}
		o, err := NewFlatObject(0, d, coords, w)
		if err != nil {
			return // all weights zero
		}
		checkAgainstReference(t, o, int(height%12), int(from))
	})
}

// fuzzCoord maps a byte onto a grid of 64 values, so that ties and
// duplicate samples are common; an odd byte on zero is −0.
func fuzzCoord(b byte) float64 {
	v := float64(int8(b)>>2) / 4
	if v == 0 && b&1 == 1 {
		return math.Copysign(0, -1)
	}
	return v
}

// checkAgainstReference compares NewDecompTree(o, maxHeight) with the
// reference tree at every level through the height limit plus two,
// first requesting level from%(limit+3) so the trees also grow out of
// order.
func checkAgainstReference(t *testing.T, o *Object, maxHeight, from int) {
	t.Helper()
	tr, ref := NewDecompTree(o, maxHeight), newRefTree(o, maxHeight)
	last := tr.MaxHeight() + 2
	tr.LevelWithChildren(from % (last + 1))
	ref.LevelWithChildren(from % (last + 1))
	var prev []Partition
	for l := 0; l <= last; l++ {
		got, gotFirst := tr.LevelWithChildren(l)
		want, wantFirst := ref.LevelWithChildren(l)
		if len(got) != len(want) {
			t.Fatalf("level %d: %d partitions, reference %d", l, len(got), len(want))
		}
		for i := range got {
			if !samePartition(got[i], want[i]) {
				t.Fatalf("level %d partition %d: %v, reference %v", l, i, got[i], want[i])
			}
		}
		if gotFirst == nil && l > 0 && l <= tr.MaxHeight() {
			// Nothing split: the identity map over the level above.
			gotFirst = make([]int32, len(prev)+1)
			for i := range gotFirst {
				gotFirst[i] = int32(i)
			}
		}
		if !slices.Equal(gotFirst, wantFirst) || (gotFirst == nil) != (wantFirst == nil) {
			t.Fatalf("level %d: child map %v, reference %v", l, gotFirst, wantFirst)
		}
		prev = got
	}
	gotErr, wantErr := tr.CheckInvariants(last), ref.CheckInvariants(last)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("CheckInvariants: %v, reference %v", gotErr, wantErr)
	}
}

// samePartition reports whether two partitions are equal bit for bit.
func samePartition(a, b Partition) bool {
	if math.Float64bits(a.Prob) != math.Float64bits(b.Prob) || len(a.MBR.Min) != len(b.MBR.Min) {
		return false
	}
	for d := range a.MBR.Min {
		if math.Float64bits(a.MBR.Min[d]) != math.Float64bits(b.MBR.Min[d]) ||
			math.Float64bits(a.MBR.Max[d]) != math.Float64bits(b.MBR.Max[d]) {
			return false
		}
	}
	return true
}
