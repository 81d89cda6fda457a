package mc

import (
	"math"
	"math/rand"
	"testing"

	"probprune/internal/geom"
	"probprune/internal/uncertain"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func obj(t testing.TB, id int, pts ...geom.Point) *uncertain.Object {
	t.Helper()
	o, err := uncertain.NewObject(id, pts)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

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

// bruteForceDomCount enumerates every possible world (all sample
// combinations) and accumulates the exact domination count PDF.
func bruteForceDomCount(n geom.Norm, cands []*uncertain.Object, b, r *uncertain.Object) []float64 {
	out := make([]float64, len(cands)+1)
	var rec func(i int, picked []int, w float64)
	rec = func(i int, picked []int, w float64) {
		if i == len(cands) {
			for ib := range b.NumSamples() {
				for ir := range r.NumSamples() {
					rs := r.Sample(ir)
					ww := w * b.Weight(ib) * r.Weight(ir)
					dbr := n.Dist(b.Sample(ib), rs)
					count := 0
					for ci, c := range cands {
						if n.Dist(c.Sample(picked[ci]), rs) < dbr {
							count++
						}
					}
					out[count] += ww
				}
			}
			return
		}
		for si := range cands[i].NumSamples() {
			rec(i+1, append(picked, si), w*cands[i].Weight(si))
		}
	}
	rec(0, make([]int, 0, len(cands)), 1)
	return out
}

func TestPDomHandComputed(t *testing.T) {
	// A at {0} or {2} (uniform), B certain at 3, R certain at 0.
	// dist(a, r) ∈ {0, 2}, dist(b, r) = 3: A always closer → PDom = 1.
	a := obj(t, 0, geom.Point{0}, geom.Point{2})
	b := obj(t, 1, geom.Point{3})
	r := obj(t, 2, geom.Point{0})
	if got := PDom(geom.L2, a, b, r); !almostEqual(got, 1, 1e-12) {
		t.Errorf("PDom = %g, want 1", got)
	}
	// Move B to 1: dist(b, r) = 1, so only a = 0 is closer → PDom = 0.5.
	b2 := obj(t, 1, geom.Point{1})
	if got := PDom(geom.L2, a, b2, r); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("PDom = %g, want 0.5", got)
	}
	// Ties are NOT domination: a = 1 vs b = 1 gives strict < failure.
	a3 := obj(t, 0, geom.Point{1}, geom.Point{-1})
	if got := PDom(geom.L2, a3, b2, r); !almostEqual(got, 0, 1e-12) {
		t.Errorf("tie counted as domination: PDom = %g", got)
	}
}

func TestPDomExampleOneFromPaper(t *testing.T) {
	// Example 1 geometry: A1 = A2 certain at the same position, B
	// certain, R uncertain over two locations such that A dominates B
	// in exactly one of them — PDom = 0.5 for both candidates.
	a1 := obj(t, 0, geom.Point{0, 0})
	b := obj(t, 1, geom.Point{2, 0})
	r := obj(t, 2, geom.Point{0.5, 0}, geom.Point{5, 0})
	// r = (0.5, 0): dist(a) = 0.5 < dist(b) = 1.5 → dominates.
	// r = (5, 0): dist(a) = 5 > dist(b) = 3 → does not.
	if got := PDom(geom.L2, a1, b, r); !almostEqual(got, 0.5, 1e-12) {
		t.Fatalf("PDom = %g, want 0.5", got)
	}
	// The exact joint count PDF must reflect the perfect correlation:
	// both dominate or neither does — P(0) = P(2) = 0.5, P(1) = 0.
	a2 := obj(t, 3, geom.Point{0, 0})
	pdf := DomCountPDF(geom.L2, []*uncertain.Object{a1, a2}, b, r, 0)
	want := []float64{0.5, 0, 0.5}
	for k := range want {
		if !almostEqual(pdf[k], want[k], 1e-12) {
			t.Errorf("P(count=%d) = %g, want %g (naive independent combination would give 0.25/0.5/0.25)",
				k, pdf[k], want[k])
		}
	}
}

func TestDomCountPDFMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for trial := 0; trial < 25; trial++ {
		nc := 1 + rng.Intn(3)
		cands := make([]*uncertain.Object, nc)
		for i := range cands {
			cands[i] = randObj(rng, i, 1+rng.Intn(3), rng.Float64()*4, rng.Float64()*4, 2)
		}
		b := randObj(rng, 90, 1+rng.Intn(3), rng.Float64()*4, rng.Float64()*4, 2)
		r := randObj(rng, 91, 1+rng.Intn(3), rng.Float64()*4, rng.Float64()*4, 2)
		got := DomCountPDF(geom.L2, cands, b, r, 0)
		want := bruteForceDomCount(geom.L2, cands, b, r)
		for k := range want {
			if !almostEqual(got[k], want[k], 1e-9) {
				t.Fatalf("trial %d k=%d: got %g want %g", trial, k, got[k], want[k])
			}
		}
	}
}

func TestDomCountPDFMassAndEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	cands := []*uncertain.Object{
		randObj(rng, 0, 5, 0, 0, 1),
		randObj(rng, 1, 5, 2, 2, 1),
		randObj(rng, 2, 5, 4, 4, 1),
	}
	b := randObj(rng, 10, 5, 1, 1, 1)
	r := randObj(rng, 11, 5, 0.5, 0.5, 1)
	pdf := DomCountPDF(geom.L2, cands, b, r, 0)
	sum := 0.0
	for _, p := range pdf {
		sum += p
	}
	if !almostEqual(sum, 1, 1e-9) {
		t.Errorf("PDF mass = %g", sum)
	}
	// No candidates: count is deterministically zero.
	empty := DomCountPDF(geom.L2, nil, b, r, 0)
	if len(empty) != 1 || !almostEqual(empty[0], 1, 1e-12) {
		t.Errorf("empty candidate PDF = %v", empty)
	}
}

func TestDomCountPDFTruncationIsPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	cands := make([]*uncertain.Object, 6)
	for i := range cands {
		cands[i] = randObj(rng, i, 4, rng.Float64()*3, rng.Float64()*3, 1.5)
	}
	b := randObj(rng, 20, 4, 1, 1, 1.5)
	r := randObj(rng, 21, 4, 2, 2, 1.5)
	full := DomCountPDF(geom.L2, cands, b, r, 0)
	for _, k := range []int{1, 2, 4, 7, 10} {
		tr := DomCountPDF(geom.L2, cands, b, r, k)
		if want := minInt(k, len(cands)+1); len(tr) != want {
			t.Fatalf("kMax=%d: len = %d, want %d", k, len(tr), want)
		}
		for j := range tr {
			if !almostEqual(tr[j], full[j], 1e-9) {
				t.Fatalf("kMax=%d j=%d: %g vs %g", k, j, tr[j], full[j])
			}
		}
	}
}

func TestWeightedEqualsReplicatedUniform(t *testing.T) {
	// A weighted object must behave identically to a uniform object
	// with samples replicated in proportion to the weights.
	weighted, err := uncertain.NewWeightedObject(0,
		[]geom.Point{{0, 0}, {1, 0}}, []float64{0.75, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	replicated := obj(t, 0, geom.Point{0, 0}, geom.Point{0, 0}, geom.Point{0, 0}, geom.Point{1, 0})
	b := obj(t, 1, geom.Point{0.6, 0})
	r := obj(t, 2, geom.Point{0.1, 0}, geom.Point{2, 0})
	pw := PDom(geom.L2, weighted, b, r)
	pr := PDom(geom.L2, replicated, b, r)
	if !almostEqual(pw, pr, 1e-12) {
		t.Errorf("weighted %g != replicated %g", pw, pr)
	}
}

func TestExpectedRankOnCertainPoints(t *testing.T) {
	// Certain points at distances 1, 2, 3 from a certain reference:
	// the middle object is dominated by exactly one → rank 2.
	r := obj(t, 0, geom.Point{0, 0})
	o1 := obj(t, 1, geom.Point{1, 0})
	o2 := obj(t, 2, geom.Point{2, 0})
	o3 := obj(t, 3, geom.Point{3, 0})
	got := ExpectedRank(geom.L2, []*uncertain.Object{o1, o3}, o2, r)
	if !almostEqual(got, 2, 1e-12) {
		t.Errorf("ExpectedRank = %g, want 2", got)
	}
}

func TestResampleReproducibleAndShaped(t *testing.T) {
	rng1 := rand.New(rand.NewSource(99))
	rng2 := rand.New(rand.NewSource(99))
	db := uncertain.Database{
		obj(t, 0, geom.Point{0, 0}, geom.Point{1, 1}, geom.Point{2, 2}),
		obj(t, 1, geom.Point{5, 5}, geom.Point{6, 6}),
	}
	a := Resample(db, 7, rng1)
	bdb := Resample(db, 7, rng2)
	for i := range a {
		if a[i].NumSamples() != 7 {
			t.Fatalf("object %d has %d samples", i, a[i].NumSamples())
		}
		for j := range a[i].NumSamples() {
			if !a[i].Sample(j).Equal(bdb[i].Sample(j)) {
				t.Fatal("Resample not reproducible under equal seeds")
			}
		}
		if !db[i].MBR.ContainsRect(a[i].MBR) {
			t.Fatal("resampled MBR escapes source MBR")
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func BenchmarkDomCountPDF(b *testing.B) {
	rng := rand.New(rand.NewSource(93))
	cands := make([]*uncertain.Object, 10)
	for i := range cands {
		cands[i] = randObj(rng, i, 100, rng.Float64()*4, rng.Float64()*4, 2)
	}
	target := randObj(rng, 90, 100, 2, 2, 2)
	ref := randObj(rng, 91, 100, 1, 1, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DomCountPDF(geom.L2, cands, target, ref, 0)
	}
}
