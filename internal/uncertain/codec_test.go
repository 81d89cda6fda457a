package uncertain

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"probprune/internal/geom"
)

// sameBits reports whether two objects are bit-identical: ID,
// existence, MBR, coordinates and weights (nil-ness included).
func sameBits(a, b *Object) bool {
	eq := func(x, y []float64) bool {
		if len(x) != len(y) || (x == nil) != (y == nil) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	return a.ID == b.ID && math.Float64bits(a.Existence) == math.Float64bits(b.Existence) &&
		eq(a.MBR.Min, b.MBR.Min) && eq(a.MBR.Max, b.MBR.Max) &&
		eq(a.Coords, b.Coords) && eq(a.Weights, b.Weights)
}

// codecObjects covers the codec's shapes: uniform and weighted,
// certain and existential, one sample and many, 1-D to 3-D.
func codecObjects(t *testing.T) []*Object {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	weights := make([]float64, 64)
	for i := range weights {
		weights[i] = 0.1 + rng.Float64()
	}
	weighted, err := NewFlatObject(-7, 2, randomObject(rng, 0, 64, 2).Coords, weights)
	if err != nil {
		t.Fatal(err)
	}
	existential := randomObject(rng, 1<<40, 1000, 3)
	if err := existential.SetExistence(0.3); err != nil {
		t.Fatal(err)
	}
	return []*Object{
		PointObject(0, geom.Point{math.Copysign(0, -1), 1e300}),
		randomObject(rng, 1, 8, 1),
		weighted,
		existential,
	}
}

// TestObjectCodecRoundTrip: AppendObject then DecodeObject gives the
// object back bit for bit, consuming exactly the bytes written, with
// several objects back to back.
func TestObjectCodecRoundTrip(t *testing.T) {
	objs := codecObjects(t)
	var buf []byte
	for _, o := range objs {
		buf = AppendObject(buf, o)
	}
	for i, want := range objs {
		got, n, err := DecodeObject(buf)
		if err != nil {
			t.Fatalf("object %d: %v", i, err)
		}
		if !sameBits(got, want) {
			t.Fatalf("object %d decoded as %+v, want %+v", i, got, want)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d bytes left over", len(buf))
	}
}

// TestObjectCodecRejectsDamage: every strict prefix of an encoding is
// refused, and so are encodings of objects no constructor builds — a
// +Inf or negative weight, weights that do not sum to 1, a sample
// outside the MBR, a non-finite MBR, existence outside [0, 1], no
// samples, and a dimensionality beyond MaxCodecDim.
func TestObjectCodecRejectsDamage(t *testing.T) {
	for _, o := range codecObjects(t) {
		enc := AppendObject(nil, o)
		for n := range len(enc) {
			if _, _, err := DecodeObject(enc[:n]); err == nil {
				t.Fatalf("object %d: %d-byte prefix of %d decoded", o.ID, n, len(enc))
			}
		}
	}
	base := func() *Object {
		o, err := NewWeightedObject(3, []geom.Point{{0, 0}, {1, 2}}, []float64{1, 3})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	for _, tc := range []struct {
		name   string
		damage func(o *Object)
		want   string
	}{
		{"+Inf weight", func(o *Object) { o.Weights = []float64{math.Inf(1), 1} }, "invalid weight"},
		{"NaN weight", func(o *Object) { o.Weights = []float64{math.NaN(), 1} }, "invalid weight"},
		{"negative weight", func(o *Object) { o.Weights = []float64{-0.5, 1.5} }, "invalid weight"},
		{"weights sum to 0.5", func(o *Object) { o.Weights = []float64{0.25, 0.25} }, "sum to"},
		{"sample outside MBR", func(o *Object) { o.Coords[3] = 2.5 }, "outside its MBR"},
		{"NaN sample", func(o *Object) { o.Coords[0] = math.NaN() }, "outside its MBR"},
		{"infinite MBR", func(o *Object) { o.MBR.Max[0] = math.Inf(1) }, "MBR"},
		{"inverted MBR", func(o *Object) { o.MBR.Min[1] = 3 }, "MBR"},
		{"existence 1.5", func(o *Object) { o.Existence = 1.5 }, "existence"},
		{"NaN existence", func(o *Object) { o.Existence = math.NaN() }, "existence"},
		{"no samples", func(o *Object) { o.Coords, o.Weights = nil, nil }, "no samples"},
		{"2000 dimensions", func(o *Object) {
			o.MBR = geom.Rect{Min: make(geom.Point, 2000), Max: make(geom.Point, 2000)}
			o.Coords, o.Weights = make([]float64, 2000), nil
		}, "dimensionality"},
	} {
		o := base()
		tc.damage(o)
		if _, _, err := DecodeObject(AppendObject(nil, o)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decode error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestObjectCodecForgedCount: a forged sample count is refused against
// the bytes left, before anything is allocated for it.
func TestObjectCodecForgedCount(t *testing.T) {
	enc := AppendObject(nil, PointObject(1, geom.Point{0.5, 0.5}))
	// ID (1 byte), existence (8), dim (1), then the count byte: forge
	// it to a varint of 2^40.
	forged := append(append([]byte(nil), enc[:10]...), 0x80, 0x80, 0x80, 0x80, 0x80, 0x20)
	forged = append(forged, enc[11:]...)
	if _, _, err := DecodeObject(forged); err == nil || !strings.Contains(err.Error(), "exceeds remaining input") {
		t.Fatalf("forged sample count: error %v", err)
	}
}
