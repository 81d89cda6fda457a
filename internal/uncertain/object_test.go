package uncertain

import (
	"math"
	"math/rand"
	"testing"

	"probprune/internal/geom"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestNewObjectValidation(t *testing.T) {
	if _, err := NewObject(0, nil); err == nil {
		t.Error("empty object accepted")
	}
	if _, err := NewObject(0, []geom.Point{{1, 2}, {1}}); err == nil {
		t.Error("mixed dimensionality accepted")
	}
	o, err := NewObject(1, []geom.Point{{0, 0}, {2, 2}, {1, 3}})
	if err != nil {
		t.Fatalf("valid object rejected: %v", err)
	}
	want := geom.Rect{Min: geom.Point{0, 0}, Max: geom.Point{2, 3}}
	if !o.MBR.Equal(want) {
		t.Errorf("MBR = %v, want %v", o.MBR, want)
	}
	if o.NumSamples() != 3 || o.Dim() != 2 || o.IsCertain() {
		t.Error("basic accessors wrong")
	}
}

// TestNewObjectRejectsNonFinite: NaN and ±Inf coordinates are refused
// in any sample and axis, weighted or not — a NaN MBR never equals
// itself, so an index could not delete the object again — while finite
// objects, extreme magnitudes included, build exactly as before.
func TestNewObjectRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, pts := range [][]geom.Point{
			{{bad, .5}, {.5, .5}},
			{{.5, .5}, {.5, bad}},
		} {
			if o, err := NewObject(9999, pts); err == nil {
				t.Errorf("NewObject(%v) accepted, MBR %v", pts, o.MBR)
			}
			if _, err := NewWeightedObject(9999, pts, []float64{1, 1}); err == nil {
				t.Errorf("NewWeightedObject(%v) accepted", pts)
			}
		}
	}
	pts := []geom.Point{{-math.MaxFloat64, .5}, {.5, math.MaxFloat64}, {0, 0}}
	o, err := NewObject(1, pts)
	if err != nil {
		t.Fatalf("finite object rejected: %v", err)
	}
	want := geom.Rect{Min: geom.Point{-math.MaxFloat64, 0}, Max: geom.Point{.5, math.MaxFloat64}}
	if !o.MBR.Equal(want) || o.NumSamples() != 3 || o.Weights != nil {
		t.Errorf("finite object built as MBR %v, %d samples, weights %v", o.MBR, o.NumSamples(), o.Weights)
	}
}

func TestWeightedObjectValidationAndNormalization(t *testing.T) {
	pts := []geom.Point{{0, 0}, {1, 1}}
	if _, err := NewWeightedObject(0, pts, []float64{1}); err == nil {
		t.Error("weight count mismatch accepted")
	}
	if _, err := NewWeightedObject(0, pts, []float64{-1, 2}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewWeightedObject(0, pts, []float64{0, 0}); err == nil {
		t.Error("zero total weight accepted")
	}
	// Non-finite weights, or finite ones whose sum overflows, would
	// normalize to NaN or zero weights.
	for _, w := range [][]float64{{math.Inf(1), 1}, {1, math.Inf(-1)}, {math.NaN(), 1}, {math.MaxFloat64, math.MaxFloat64}} {
		if o, err := NewWeightedObject(0, pts, w); err == nil {
			t.Errorf("weights %v accepted as %v", w, o.Weights)
		}
	}
	o, err := NewWeightedObject(0, pts, []float64{2, 6})
	if err != nil {
		t.Fatalf("valid weighted object rejected: %v", err)
	}
	if !almostEqual(o.Weight(0), 0.25, 1e-12) || !almostEqual(o.Weight(1), 0.75, 1e-12) {
		t.Errorf("weights not normalized: %g, %g", o.Weight(0), o.Weight(1))
	}
}

func TestUniformWeight(t *testing.T) {
	o, _ := NewObject(0, []geom.Point{{0}, {1}, {2}, {3}})
	for i := 0; i < 4; i++ {
		if !almostEqual(o.Weight(i), 0.25, 1e-12) {
			t.Errorf("Weight(%d) = %g", i, o.Weight(i))
		}
	}
}

func TestPointObject(t *testing.T) {
	o := PointObject(7, geom.Point{1, 2})
	if !o.IsCertain() || o.ID != 7 {
		t.Error("PointObject must be certain with the given ID")
	}
	if !o.Centroid().Equal(geom.Point{1, 2}) {
		t.Errorf("Centroid = %v", o.Centroid())
	}
}

func TestCentroidWeighted(t *testing.T) {
	o, _ := NewWeightedObject(0, []geom.Point{{0, 0}, {4, 0}}, []float64{0.75, 0.25})
	if got := o.Centroid(); !almostEqual(got[0], 1, 1e-12) || got[1] != 0 {
		t.Errorf("Centroid = %v, want (1, 0)", got)
	}
}

func TestDrawFollowsWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	o, _ := NewWeightedObject(0, []geom.Point{{0}, {1}}, []float64{0.8, 0.2})
	counts := [2]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[o.Draw(rng)]++
	}
	if frac := float64(counts[0]) / n; math.Abs(frac-0.8) > 0.02 {
		t.Errorf("sample 0 drawn with frequency %g, want ~0.8", frac)
	}
}

func TestResample(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	o, _ := NewObject(3, []geom.Point{{0, 0}, {1, 1}, {2, 2}})
	r := o.Resample(50, rng)
	if r.NumSamples() != 50 || r.ID != 3 {
		t.Fatalf("Resample: n=%d id=%d", r.NumSamples(), r.ID)
	}
	if !o.MBR.ContainsRect(r.MBR) {
		t.Error("resampled MBR escapes the original")
	}
}

func TestDatabaseAccessors(t *testing.T) {
	var empty Database
	if empty.Dim() != 0 {
		t.Error("empty database Dim != 0")
	}
	db := Database{
		PointObject(0, geom.Point{0, 0}),
		mustObject(t, 1, []geom.Point{{0, 0}, {0.5, 3}}),
	}
	if db.Dim() != 2 {
		t.Errorf("Dim = %d", db.Dim())
	}
	if got := db.MaxExtent(); !almostEqual(got, 3, 1e-12) {
		t.Errorf("MaxExtent = %g", got)
	}
}

func mustObject(t *testing.T, id int, pts []geom.Point) *Object {
	t.Helper()
	o, err := NewObject(id, pts)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestSampleIsAView: Sample returns the sample's coordinates in place,
// capped so an append cannot spill into the next sample.
func TestSampleIsAView(t *testing.T) {
	o := mustObject(t, 0, []geom.Point{{1, 2}, {3, 4}, {5, 6}})
	if s := o.Sample(1); !s.Equal(geom.Point{3, 4}) || cap(s) != 2 || &s[0] != &o.Coords[2] {
		t.Fatalf("Sample(1) = %v (cap %d), not a capped view of Coords", s, cap(s))
	}
}
