//go:build !race

package server

import (
	"bytes"
	"io"
	"testing"
)

// Writing a frame allocates nothing: integer and length headers are
// formatted into the Writer's own scratch. A KNN reply is one such
// frame of 10^4 six-element matches, so a per-header allocation would
// cost some 40k allocations per reply. Guarded by !race because the race
// detector instruments allocations.
func TestWriteFrameZeroAlloc(t *testing.T) {
	ms := make([]Frame, 1000)
	for i := range ms {
		ms[i] = encodeMatch(Match{ID: 1_000_000 + i, LB: 0.25, UB: 1 / float64(i+3), IsResult: i%2 == 0, Decided: true, Iterations: i % 7})
	}
	reply := array(ms...)
	var want bytes.Buffer
	ww := NewWriter(&want)
	if err := ww.WriteFrame(reply); err != nil {
		t.Fatal(err)
	}
	ww.Flush()
	if got := readBack(t, want.Bytes()); len(got.Array) != len(ms) {
		t.Fatalf("frame read back with %d elements, want %d", len(got.Array), len(ms))
	}
	w := NewWriter(io.Discard)
	if n := testing.AllocsPerRun(20, func() {
		if err := w.WriteFrame(reply); err != nil {
			t.Fatal(err)
		}
		w.Flush()
	}); n != 0 {
		t.Fatalf("WriteFrame of a %d-match reply allocates %.1f allocs/op, want 0", len(ms), n)
	}
}

func readBack(t *testing.T, b []byte) Frame {
	t.Helper()
	f, err := NewReader(bytes.NewReader(b)).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	return f
}
