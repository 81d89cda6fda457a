package workload

import (
	"bytes"
	"math"
	"testing"

	"probprune/internal/geom"
	"probprune/internal/uncertain"
)

func TestSyntheticShape(t *testing.T) {
	db, err := Synthetic(SyntheticConfig{N: 200, Samples: 50, MaxExtent: 0.004, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(db) != 200 {
		t.Fatalf("len = %d", len(db))
	}
	unit, _ := geom.NewRect(geom.Point{-0.01, -0.01}, geom.Point{1.01, 1.01})
	for _, o := range db {
		if o.NumSamples() != 50 {
			t.Fatalf("object %d has %d samples", o.ID, o.NumSamples())
		}
		if e := o.MBR.MaxExtent(); e > 0.004 {
			t.Fatalf("object %d extent %g > max 0.004", o.ID, e)
		}
		if !unit.ContainsRect(o.MBR) {
			t.Fatalf("object %d escapes the data space: %v", o.ID, o.MBR)
		}
	}
}

func TestSyntheticReproducible(t *testing.T) {
	a, _ := Synthetic(SyntheticConfig{N: 20, Samples: 10, Seed: 7})
	b, _ := Synthetic(SyntheticConfig{N: 20, Samples: 10, Seed: 7})
	for i := range a {
		for j := range a[i].NumSamples() {
			if !a[i].Sample(j).Equal(b[i].Sample(j)) {
				t.Fatal("same seed produced different datasets")
			}
		}
	}
	c, _ := Synthetic(SyntheticConfig{N: 20, Samples: 10, Seed: 8})
	same := true
	for i := range a {
		for j := range a[i].NumSamples() {
			if !a[i].Sample(j).Equal(c[i].Sample(j)) {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical datasets")
	}
}

func TestSyntheticDefaults(t *testing.T) {
	c := SyntheticConfig{}.withDefaults()
	if c.N != 10000 || c.Dim != 2 || c.MaxExtent != 0.004 || c.Samples != 1000 {
		t.Errorf("defaults = %+v", c)
	}
}

func TestIcebergSimShape(t *testing.T) {
	db, err := IcebergSim(IcebergConfig{N: 300, Samples: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(db) != 300 {
		t.Fatalf("len = %d", len(db))
	}
	for _, o := range db {
		if e := o.MBR.MaxExtent(); e > 0.0004+1e-12 {
			t.Fatalf("object %d extent %g > max 0.0004", o.ID, e)
		}
	}
	// The corridor shape: the mass must be clustered, not uniform.
	// Verify that the mean position sits in the band (northwest-ish)
	// and that coordinate variance is well below uniform variance.
	var mx, my float64
	for _, o := range db {
		c := o.Centroid()
		mx += c[0]
		my += c[1]
	}
	mx /= float64(len(db))
	my /= float64(len(db))
	if mx < 0.2 || mx > 0.7 || my < 0.3 || my > 0.9 {
		t.Errorf("corridor center (%g, %g) implausible", mx, my)
	}
	var vx float64
	for _, o := range db {
		c := o.Centroid()
		vx += (c[0] - mx) * (c[0] - mx)
	}
	vx /= float64(len(db))
	if vx > 1.0/12 { // uniform variance on [0,1]
		t.Errorf("x variance %g not clustered", vx)
	}
}

func TestQueriesConvention(t *testing.T) {
	db, _ := Synthetic(SyntheticConfig{N: 100, Samples: 10, Seed: 3})
	qs := Queries(db, 5, 10, geom.L2, 4)
	if len(qs) != 5 {
		t.Fatalf("got %d queries", len(qs))
	}
	for _, q := range qs {
		if q.Reference == q.Target {
			t.Fatal("target must differ from reference")
		}
		// The target must be the 10th nearest by MinDist: verify by
		// counting strictly closer objects.
		dT := q.Target.MBR.MinDistRect(geom.L2, q.Reference.MBR)
		closer := 0
		for _, o := range db {
			if o == q.Reference || o == q.Target {
				continue
			}
			if o.MBR.MinDistRect(geom.L2, q.Reference.MBR) < dT {
				closer++
			}
		}
		// Ties make the exact rank ambiguous; it must be close to 9.
		if closer > 9 {
			t.Errorf("target has %d strictly closer objects, want <= 9", closer)
		}
	}
}

func TestNthNearestEdges(t *testing.T) {
	db, _ := Synthetic(SyntheticConfig{N: 5, Samples: 5, Seed: 5})
	if NthNearest(db, db[0], 5, geom.L2) != nil {
		t.Error("rank beyond database size must return nil")
	}
	if NthNearest(db, db[0], 0, geom.L2) != nil {
		t.Error("rank 0 must return nil")
	}
	if got := NthNearest(db, db[0], 1, geom.L2); got == nil || got == db[0] {
		t.Error("rank 1 must return the nearest other object")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db, _ := Synthetic(SyntheticConfig{N: 30, Samples: 20, Seed: 6})
	// Attach weights to one object to exercise the weighted path.
	w := make([]float64, 20)
	for i := range w {
		w[i] = float64(i + 1)
	}
	weighted, err := uncertain.NewFlatObject(99, db[0].Dim(), db[0].Coords, w)
	if err != nil {
		t.Fatal(err)
	}
	db = append(db, weighted)

	var buf bytes.Buffer
	if err := Save(&buf, db); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(db) {
		t.Fatalf("round trip lost objects: %d vs %d", len(got), len(db))
	}
	for i := range db {
		if got[i].ID != db[i].ID || got[i].NumSamples() != db[i].NumSamples() {
			t.Fatalf("object %d metadata mismatch", i)
		}
		for j := range db[i].NumSamples() {
			if !got[i].Sample(j).Equal(db[i].Sample(j)) {
				t.Fatalf("object %d sample %d mismatch", i, j)
			}
			if math.Abs(got[i].Weight(j)-db[i].Weight(j)) > 1e-12 {
				t.Fatalf("object %d weight %d mismatch", i, j)
			}
		}
		if !got[i].MBR.Equal(db[i].MBR) {
			t.Fatalf("object %d MBR mismatch", i)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a database"))); err == nil {
		t.Error("garbage accepted")
	}
	var buf bytes.Buffer
	buf.WriteString("\x1f\x8b") // gzip magic then garbage
	buf.WriteString("garbage")
	if _, err := Load(&buf); err == nil {
		t.Error("corrupt gzip accepted")
	}
}

func TestSaveLoadFileAndErrors(t *testing.T) {
	db, _ := Synthetic(SyntheticConfig{N: 10, Samples: 5, Seed: 9})
	if err := db[0].SetExistence(0.5); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/db.udb"
	if err := SaveFile(path, db); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ExistenceProb() != 0.5 {
		t.Errorf("existence lost in round trip: %g", got[0].ExistenceProb())
	}
	if err := SaveFile(dir+"/missing/sub/db.udb", db); err == nil {
		t.Error("SaveFile to a missing directory succeeded")
	}
	if _, err := LoadFile(dir + "/nope.udb"); err == nil {
		t.Error("LoadFile of a missing file succeeded")
	}
}

func TestLoadRejectsWrongMagicAndTruncation(t *testing.T) {
	db, _ := Synthetic(SyntheticConfig{N: 5, Samples: 4, Seed: 10})
	var buf bytes.Buffer
	if err := Save(&buf, db); err != nil {
		t.Fatal(err)
	}
	// Truncate mid-stream: decoding must fail, not hang or panic.
	full := buf.Bytes()
	for _, cut := range []int{len(full) / 4, len(full) / 2, len(full) - 3} {
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncated stream (%d bytes) accepted", cut)
		}
	}
	// So must the fuzz seeds that are not valid files.
	for name, data := range map[string][]byte{
		"flipped byte": flipped(t, validFile(t)),
		"huge count":   gzipped(t, append([]byte(fileMagic), fileVersion, 0xff, 0xff, 0xff, 0xff, 0x0f)),
		"version 3":    gzipped(t, append([]byte(fileMagic), 3, 0)),
	} {
		if _, err := Load(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: loaded", name)
		}
	}
}

func TestIcebergDefaults(t *testing.T) {
	c := IcebergConfig{}.withDefaults()
	if c.N != 6216 || c.Samples != 1000 || c.MaxExtent != 0.0004 {
		t.Errorf("iceberg defaults = %+v", c)
	}
}
