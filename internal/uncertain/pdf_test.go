package uncertain

import (
	"math"
	"math/rand"
	"testing"

	"probprune/internal/geom"
)

func TestUniformBoxSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	r, _ := geom.NewRect(geom.Point{1, 2}, geom.Point{3, 6})
	u := UniformBox{Rect: r}
	if !u.Bounds().Equal(r) {
		t.Error("Bounds mismatch")
	}
	var mean [2]float64
	const n = 20000
	for i := 0; i < n; i++ {
		p := draw(u, rng)
		if !r.Contains(p) {
			t.Fatalf("sample %v escapes %v", p, r)
		}
		mean[0] += p[0]
		mean[1] += p[1]
	}
	if math.Abs(mean[0]/n-2) > 0.05 || math.Abs(mean[1]/n-4) > 0.05 {
		t.Errorf("sample mean (%g, %g), want ~(2, 4)", mean[0]/n, mean[1]/n)
	}
}

func TestTruncatedGaussianSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	region, _ := geom.NewRect(geom.Point{-1, -1}, geom.Point{1, 1})
	g := TruncatedGaussian{Mean: geom.Point{0, 0}, Sigma: []float64{0.3, 0.3}, Region: region}
	var mean [2]float64
	const n = 10000
	for i := 0; i < n; i++ {
		p := draw(g, rng)
		if !region.Contains(p) {
			t.Fatalf("sample %v escapes %v", p, region)
		}
		mean[0] += p[0]
		mean[1] += p[1]
	}
	if math.Abs(mean[0]/n) > 0.02 || math.Abs(mean[1]/n) > 0.02 {
		t.Errorf("sample mean (%g, %g), want ~(0, 0)", mean[0]/n, mean[1]/n)
	}
}

func TestTruncatedGaussianExtremeTruncationClamps(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	// Region far in the tail: rejection will fail, clamping must engage
	// and still produce in-region samples.
	region, _ := geom.NewRect(geom.Point{100}, geom.Point{101})
	g := TruncatedGaussian{Mean: geom.Point{0}, Sigma: []float64{0.1}, Region: region}
	for i := 0; i < 100; i++ {
		if p := draw(g, rng); !region.Contains(p) {
			t.Fatalf("clamped sample %v escapes %v", p, region)
		}
	}
}

func TestMixtureSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	left, _ := geom.NewRect(geom.Point{0}, geom.Point{1})
	right, _ := geom.NewRect(geom.Point{10}, geom.Point{11})
	m := Mixture{
		Components: []PDF{UniformBox{Rect: left}, UniformBox{Rect: right}},
		Weights:    []float64{3, 1},
	}
	if !m.Bounds().Equal(geom.Rect{Min: geom.Point{0}, Max: geom.Point{11}}) {
		t.Errorf("Bounds = %v", m.Bounds())
	}
	leftCount := 0
	const n = 20000
	for i := 0; i < n; i++ {
		p := draw(m, rng)
		if p[0] <= 1 {
			leftCount++
		} else if p[0] < 10 {
			t.Fatalf("sample %v in the gap between components", p)
		}
	}
	if frac := float64(leftCount) / n; math.Abs(frac-0.75) > 0.02 {
		t.Errorf("left component frequency %g, want ~0.75", frac)
	}
}

func TestPointMass(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	p := PointMass{At: geom.Point{5, 6}}
	if !draw(p, rng).Equal(geom.Point{5, 6}) {
		t.Error("PointMass must always return its location")
	}
	if !p.Bounds().Equal(geom.PointRect(geom.Point{5, 6})) {
		t.Error("PointMass bounds mismatch")
	}
}

func TestRealize(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	r, _ := geom.NewRect(geom.Point{0, 0}, geom.Point{1, 1})
	o, err := Realize(9, UniformBox{Rect: r}, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	if o.ID != 9 || o.NumSamples() != 200 {
		t.Errorf("id=%d n=%d", o.ID, o.NumSamples())
	}
	if !r.ContainsRect(o.MBR) {
		t.Error("realized MBR escapes PDF bounds")
	}
	if _, err := Realize(0, UniformBox{Rect: r}, 0, rng); err == nil {
		t.Error("n=0 accepted")
	}
}

// draw samples one position from pdf into a fresh point.
func draw(pdf PDF, rng *rand.Rand) geom.Point {
	p := make(geom.Point, pdf.Bounds().Dim())
	pdf.Sample(rng, p)
	return p
}
