package exp

import (
	"strings"
	"testing"
)

// micro is a configuration small enough for unit tests.
func micro() Config {
	return Config{
		SyntheticN:    250,
		IcebergN:      200,
		Samples:       16,
		Queries:       2,
		TargetRank:    5,
		MaxExtent:     0.02,
		MaxIterations: 3,
		Seed:          42,
	}
}

func checkFigure(t *testing.T, f *Figure, wantSeries int) {
	t.Helper()
	if f == nil {
		t.Fatal("nil figure")
	}
	if len(f.Series) != wantSeries {
		t.Fatalf("%s: %d series, want %d", f.ID, len(f.Series), wantSeries)
	}
	for _, s := range f.Series {
		if len(s.Points) == 0 {
			t.Fatalf("%s: series %q is empty", f.ID, s.Label)
		}
		for _, p := range s.Points {
			if p.Y < 0 {
				t.Fatalf("%s: series %q has negative measurement %g", f.ID, s.Label, p.Y)
			}
		}
	}
	if out := f.String(); !strings.Contains(out, f.ID) {
		t.Fatalf("%s: String() lost the figure ID", f.ID)
	}
}

func TestFig5(t *testing.T) {
	f, err := Fig5(micro())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, 1)
	// The sample axis must be increasing.
	pts := f.Series[0].Points
	for i := 1; i < len(pts); i++ {
		if pts[i].X <= pts[i-1].X {
			t.Fatal("sample axis not increasing")
		}
	}
}

func TestFig6a(t *testing.T) {
	f, err := Fig6a(micro())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, 2)
	// At every extent, Optimal must leave at most as many candidates as
	// MinMax (the pruning-power claim of the paper).
	opt, mm := f.Series[0], f.Series[1]
	for i := range opt.Points {
		if opt.Points[i].Y > mm.Points[i].Y+1e-9 {
			t.Fatalf("extent %g: optimal %g > minmax %g", opt.Points[i].X, opt.Points[i].Y, mm.Points[i].Y)
		}
	}
}

func TestFig6b(t *testing.T) {
	f, err := Fig6b(micro())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, 2)
	// Uncertainty must be non-increasing over iterations for both
	// criteria.
	for _, s := range f.Series {
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Y > s.Points[i-1].Y+1e-9 {
				t.Fatalf("series %q: uncertainty rose at iteration %d", s.Label, i)
			}
		}
	}
}

func TestFig7Synthetic(t *testing.T) {
	f, err := Fig7(micro(), "synthetic")
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, 3)
	for _, s := range f.Series {
		if s.Points[0].Y != 1 {
			t.Fatalf("series %q must start at normalized uncertainty 1", s.Label)
		}
		last := s.Points[len(s.Points)-1].Y
		if last >= 1 {
			t.Fatalf("series %q never reduced uncertainty", s.Label)
		}
	}
}

func TestFig7Iceberg(t *testing.T) {
	f, err := Fig7(micro(), "iceberg")
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, 3)
}

func TestFig8(t *testing.T) {
	f, err := Fig8(micro())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, 4)
	// The MC series must be flat.
	mcSeries := f.Series[len(f.Series)-1]
	if mcSeries.Label != "MC" {
		t.Fatalf("last series is %q, want MC", mcSeries.Label)
	}
	for _, p := range mcSeries.Points[1:] {
		if p.Y != mcSeries.Points[0].Y {
			t.Fatal("MC series must be constant")
		}
	}
}

func TestFig9a(t *testing.T) {
	cfg := micro()
	f, err := Fig9a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, cfg.MaxIterations)
}

func TestFig9b(t *testing.T) {
	cfg := micro()
	f, err := Fig9b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, cfg.MaxIterations)
	// The database-size axis must be increasing.
	pts := f.Series[0].Points
	for i := 1; i < len(pts); i++ {
		if pts[i].X <= pts[i-1].X {
			t.Fatal("size axis not increasing")
		}
	}
}

func TestAblationUGF(t *testing.T) {
	f, err := AblationUGF(micro())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, 2)
	// UGF bounds must be at least as tight at every level. Both sides
	// read one UGF: in exact arithmetic they share the CDF bounds and
	// the point upper bound, so the whole gap is Lemma 4's point lower
	// bound c_{k,0} = P(X = k, Y = 0) against the differenced tails'
	// P(X+Y ≤ k) − P(X < k).
	ugf, two := f.Series[0], f.Series[1]
	for i := range ugf.Points {
		if ugf.Points[i].Y > two.Points[i].Y+1e-9 {
			t.Fatalf("k=%g: UGF width %g > two-GF width %g", ugf.Points[i].X, ugf.Points[i].Y, two.Points[i].Y)
		}
	}
}

func TestAblationTruncation(t *testing.T) {
	f, err := AblationTruncation(micro())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, 2)
}

func TestAblationIndexFilter(t *testing.T) {
	f, err := AblationIndexFilter(micro())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, 2)
}

func TestFigureStringUnalignedSeries(t *testing.T) {
	f := &Figure{
		ID: "X", Title: "t", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Label: "a", Points: []Point{{X: 1, Y: 2}}},
			{Label: "b", Points: []Point{{X: 3, Y: 4}, {X: 5, Y: 6}}},
		},
	}
	out := f.String()
	if !strings.Contains(out, "series a") || !strings.Contains(out, "series b") {
		t.Errorf("unaligned series rendering wrong:\n%s", out)
	}
}

func TestConfigPresets(t *testing.T) {
	d, p := Default(), PaperScale()
	if d.SyntheticN >= p.SyntheticN || d.Samples >= p.Samples || d.Queries >= p.Queries {
		t.Error("Default must be strictly smaller than PaperScale")
	}
	if p.SyntheticN != 10000 || p.IcebergN != 6216 || p.Samples != 1000 || p.Queries != 100 {
		t.Errorf("PaperScale does not match the paper: %+v", p)
	}
}

func TestGeometricSteps(t *testing.T) {
	s := geometricSteps(1, 8, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if diff := s[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("step %d = %g, want %g", i, s[i], want[i])
		}
	}
	if one := geometricSteps(3, 9, 1); len(one) != 1 || one[0] != 3 {
		t.Error("n=1 must return just lo")
	}
}

func TestAblationAdaptive(t *testing.T) {
	f, err := AblationAdaptive(micro())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, 4)
	// The adaptive uncertainty series must stay sound: non-increasing.
	for _, s := range f.Series {
		if s.Label == "adaptive uncertainty" || s.Label == "uniform uncertainty" {
			for i := 1; i < len(s.Points); i++ {
				if s.Points[i].Y > s.Points[i-1].Y+1e-9 {
					t.Fatalf("series %q: uncertainty rose at point %d", s.Label, i)
				}
			}
		}
	}
}

func TestChartRendering(t *testing.T) {
	f := &Figure{
		ID: "C", Title: "chart", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Label: "up", Points: []Point{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 4}}},
			{Label: "flat", Points: []Point{{X: 0, Y: 2}, {X: 2, Y: 2}}},
		},
	}
	out := f.Chart(40, 10)
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Fatalf("markers missing:\n%s", out)
	}
	if !strings.Contains(out, "up") || !strings.Contains(out, "flat") {
		t.Fatalf("legend missing:\n%s", out)
	}
	// Degenerate inputs must not panic.
	empty := &Figure{ID: "E", Title: "none"}
	if !strings.Contains(empty.Chart(40, 10), "no data") {
		t.Error("empty chart should say so")
	}
	single := &Figure{ID: "S", Series: []Series{{Label: "p", Points: []Point{{X: 1, Y: 1}}}}}
	if single.Chart(2, 2) == "" {
		t.Error("tiny chart rendered nothing")
	}
}

func TestAblationDimensionality(t *testing.T) {
	f, err := AblationDimensionality(micro())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, 2)
	// The dimension axis must be increasing and cover 2..5.
	pts := f.Series[0].Points
	if pts[0].X != 2 || pts[len(pts)-1].X != 5 {
		t.Fatalf("dimension axis wrong: %v", pts)
	}
}
