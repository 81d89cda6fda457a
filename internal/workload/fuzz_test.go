package workload

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"math"
	"os"
	"testing"
)

// gobEraFile is a version 1 dataset (a gob stream, three 4-sample
// objects) as the tools wrote it before the shared object codec.
const gobEraFile = "testdata/gob-era.udb"

// FuzzLoad hardens the dataset decoder: arbitrary input must produce an
// error or a valid database, never a panic or a hang. Every object that
// decodes has its samples inside its MBR and finite, non-negative
// weights that sum to about 1. The seeds are a genuine dataset, a
// truncated one, one with a byte flipped inside the compressed object
// records, one announcing a huge object count, and a gob-era file.
func FuzzLoad(f *testing.F) {
	valid := validFile(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(flipped(f, valid))
	f.Add(gzipped(f, binary.AppendUvarint(binary.AppendUvarint([]byte(fileMagic), fileVersion), 1<<62)))
	gob, err := os.ReadFile(gobEraFile)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(gob)
	f.Add([]byte{})
	f.Add([]byte("\x1f\x8bgarbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, o := range got {
			if o == nil || o.NumSamples() == 0 {
				t.Fatalf("decoded object %d invalid", i)
			}
			total := 0.0
			for j := range o.NumSamples() {
				if !o.MBR.Contains(o.Sample(j)) {
					t.Fatalf("object %d sample %d outside its MBR", i, j)
				}
				w := o.Weight(j)
				if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
					t.Fatalf("object %d weight %d is %g", i, j, w)
				}
				total += w
			}
			if total < 1-1e-6 || total > 1+1e-6 {
				t.Fatalf("object %d weights sum to %g", i, total)
			}
		}
	})
}

// validFile is a small genuine dataset, weighted and existential
// objects included.
func validFile(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, roundTripDB(tb)); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// gzipped compresses a raw .udb payload.
func gzipped(tb testing.TB, payload []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(payload); err != nil {
		tb.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// flipped returns file with one byte of its uncompressed payload
// flipped — the exponent byte of the first object's first coordinate —
// and recompressed, so the damage reaches the object decoder rather
// than gzip's checksum.
func flipped(tb testing.TB, file []byte) []byte {
	tb.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(file))
	if err != nil {
		tb.Fatal(err)
	}
	payload, err := io.ReadAll(zr)
	if err != nil {
		tb.Fatal(err)
	}
	// Magic, version, count, a 2-byte record length, then ID,
	// existence, dim, count and a 2-D MBR: the coordinates start 60
	// bytes in.
	payload[60+7] ^= 0x40
	return gzipped(tb, payload)
}
