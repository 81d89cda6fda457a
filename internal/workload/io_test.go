package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"probprune/internal/uncertain"
)

// roundTripDB is a small dataset with every object shape the file
// format carries: uniform, weighted, existential, and both at once.
func roundTripDB(tb testing.TB) uncertain.Database {
	tb.Helper()
	db, err := Synthetic(SyntheticConfig{N: 6, Samples: 16, Seed: 4})
	if err != nil {
		tb.Fatal(err)
	}
	w := make([]float64, 16)
	for i := range w {
		w[i] = 1 / float64(i+3)
	}
	for _, i := range []int{1, 3} {
		if db[i], err = uncertain.NewFlatObject(db[i].ID, db[i].Dim(), db[i].Coords, w); err != nil {
			tb.Fatal(err)
		}
	}
	for _, i := range []int{2, 3} {
		if err := db[i].SetExistence(0.1 * float64(i)); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// TestSaveLoadBitIdentical: Load gives back exactly the objects Save
// wrote — IDs, MBRs, coordinates, raw weights and existence, bit for
// bit — because both ends use the write-ahead log's object codec.
func TestSaveLoadBitIdentical(t *testing.T) {
	db := roundTripDB(t)
	got, err := Load(bytes.NewReader(validFile(t)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(db) {
		t.Fatalf("loaded %d objects, saved %d", len(got), len(db))
	}
	for i := range db {
		if !bytes.Equal(uncertain.AppendObject(nil, got[i]), uncertain.AppendObject(nil, db[i])) {
			t.Fatalf("object %d changed in the round trip:\n%+v\n%+v", i, got[i], db[i])
		}
	}
}

// TestLoadRefusesGobEraFile: a version 1 file (a gob stream) fails
// with an error that names the retired format instead of a generic
// decoding failure.
func TestLoadRefusesGobEraFile(t *testing.T) {
	_, err := LoadFile(gobEraFile)
	if err == nil || !strings.Contains(err.Error(), "retired gob format") {
		t.Fatalf("gob-era file: error %v", err)
	}
}

// TestLoadRejectsInfiniteWeight: a file whose object carries a +Inf
// weight does not load (the weights would otherwise normalize to NaN).
func TestLoadRejectsInfiniteWeight(t *testing.T) {
	db := roundTripDB(t)
	db[1].Weights = append([]float64(nil), db[1].Weights...)
	db[1].Weights[0] = math.Inf(1)
	var buf bytes.Buffer
	if err := Save(&buf, db); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "invalid weight") {
		t.Fatalf("file with a +Inf weight: load error %v", err)
	}
}
