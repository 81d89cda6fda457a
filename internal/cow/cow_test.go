package cow

import (
	"math/rand"
	"slices"
	"testing"
)

// generation is one live List and the flat slice it must equal.
type generation struct {
	l   List[int]
	ref []int
}

// TestListTranscript drives seeded Set/Append/Delete/Clone transcripts
// across chunk boundaries while up to four earlier clones stay live,
// sends every write to a randomly chosen live generation and checks all
// of them against their flat references after every step: writes never
// cross a clone, and a Delete moves exactly the last element into the
// freed position. The check counts the live clones and requires that
// every seed ran with at least three at once.
func TestListTranscript(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		start := make([]int, rng.Intn(3*chunkLen))
		for i := range start {
			start[i] = rng.Int()
		}
		gens := []*generation{{l: ListOf(start), ref: slices.Clone(start)}}
		next, maxLive := 0, 0
		for step := 0; step < 3000; step++ {
			g := gens[rng.Intn(len(gens))]
			switch op := rng.Intn(10); {
			case op < 3 && len(g.ref) > 0:
				i := rng.Intn(len(g.ref))
				next++
				g.l.Set(i, -next)
				g.ref[i] = -next
			case op < 6:
				next++
				g.l.Append(-next)
				g.ref = append(g.ref, -next)
			case op < 9 && len(g.ref) > 0:
				i, last := rng.Intn(len(g.ref)), len(g.ref)-1
				if step%4 == 0 {
					i = last // the slot a Delete frees without moving anything
				}
				g.l.Delete(i)
				g.ref[i] = g.ref[last]
				g.ref = g.ref[:last]
			default:
				c := &generation{l: g.l.Clone(), ref: slices.Clone(g.ref)}
				gens = append(gens, c)
				if len(gens) > 5 {
					gens = gens[1:]
				}
			}
			maxLive = max(maxLive, len(gens)-1)
			for gi, g := range gens {
				checkList(t, seed, step, gi, g)
			}
		}
		if maxLive < 3 {
			t.Fatalf("seed %d: at most %d clones were live at once, want 3", seed, maxLive)
		}
	}
}

func checkList(t *testing.T, seed int64, step, gi int, g *generation) {
	t.Helper()
	if g.l.Len() != len(g.ref) {
		t.Fatalf("seed %d step %d gen %d: Len %d, want %d", seed, step, gi, g.l.Len(), len(g.ref))
	}
	if got := g.l.Slice(); !slices.Equal(got, g.ref) {
		t.Fatalf("seed %d step %d gen %d: Slice differs from the reference", seed, step, gi)
	}
	var all []int
	for v := range g.l.All() {
		all = append(all, v)
	}
	if !slices.Equal(all, g.ref) {
		t.Fatalf("seed %d step %d gen %d: All differs from the reference", seed, step, gi)
	}
	if n := len(g.ref); n > 0 {
		if i := (step * 7) % n; g.l.At(i) != g.ref[i] {
			t.Fatalf("seed %d step %d gen %d: At(%d) disagrees with the reference", seed, step, gi, i)
		}
	}
	if n := g.l.Len(); n&chunkMask != 0 {
		for _, v := range g.l.chunks.At(n >> chunkShift)[n&chunkMask:] {
			if v != 0 {
				t.Fatalf("seed %d step %d gen %d: the last chunk's free tail holds %d", seed, step, gi, v)
			}
		}
	}
	if want := (len(g.ref) + chunkLen - 1) / chunkLen; g.l.chunks.Len() != want {
		t.Fatalf("seed %d step %d gen %d: %d chunks for %d elements, want %d", seed, step, gi, g.l.chunks.Len(), len(g.ref), want)
	}
}

// TestListWriteCopiesOneChunk: after a Clone, a Set or an Append copies
// the one chunk it writes and shares every other chunk with the clone.
func TestListWriteCopiesOneChunk(t *testing.T) {
	src := make([]int, 10*chunkLen+5)
	a := ListOf(src)
	b := a.Clone()
	shared := func() int {
		n := 0
		for ci := range a.chunks.Len() {
			if ci < b.chunks.Len() && a.chunks.At(ci) == b.chunks.At(ci) {
				n++
			}
		}
		return n
	}
	if got := shared(); got != 11 {
		t.Fatalf("a clone shares %d of 11 chunks", got)
	}
	b.Set(3*chunkLen+1, 7)
	if got := shared(); got != 10 {
		t.Fatalf("after one Set the lists share %d of 11 chunks, want 10", got)
	}
	b.Set(3*chunkLen+2, 8) // the copy is b's own now: written in place
	if got := shared(); got != 10 {
		t.Fatalf("a second Set to the same chunk copied again: %d shared", got)
	}
	b.Append(9)
	if got := shared(); got != 9 {
		t.Fatalf("after an Append the lists share %d chunks, want 9", got)
	}
	if a.Slice()[3*chunkLen+1] != 0 || a.Len() != len(src) {
		t.Fatal("a write to the clone showed in the original")
	}
}

// TestListDeleteCopiesAtMostTwoChunks: after a Clone, a Delete copies
// the chunk of the freed position and the last chunk — one when they
// are the same — and shares every other chunk with the clone; a Delete
// that empties the last chunk drops it without copying it.
func TestListDeleteCopiesAtMostTwoChunks(t *testing.T) {
	src := make([]int, 10*chunkLen+5)
	for i := range src {
		src[i] = i + 1
	}
	a := ListOf(src)
	shared := func(b *List[int]) int {
		n := 0
		for ci := range min(a.chunks.Len(), b.chunks.Len()) {
			if a.chunks.At(ci) == b.chunks.At(ci) {
				n++
			}
		}
		return n
	}
	for _, tc := range []struct {
		name   string
		i      int
		shared int
	}{
		{"middle", 3*chunkLen + 1, 9},
		{"last chunk", 10*chunkLen + 1, 10},
		{"last element", 10*chunkLen + 4, 10},
	} {
		b := a.Clone()
		b.Delete(tc.i)
		if got := shared(&b); got != tc.shared {
			t.Fatalf("%s: after one Delete the lists share %d of 11 chunks, want %d", tc.name, got, tc.shared)
		}
		if b.At(tc.i) != src[len(src)-1] && tc.i != len(src)-1 {
			t.Fatalf("%s: position %d holds %d, want the last element %d", tc.name, tc.i, b.At(tc.i), src[len(src)-1])
		}
		if a.At(tc.i) != src[tc.i] || a.Len() != len(src) {
			t.Fatalf("%s: a Delete on the clone showed in the original", tc.name)
		}
	}
	// Five Deletes of the first element empty the 5-element last chunk:
	// it is dropped, and of the chunks left only chunk 0 is a copy.
	b := a.Clone()
	for range 5 {
		b.Delete(0)
	}
	if b.chunks.Len() != 10 || shared(&b) != 9 {
		t.Fatalf("emptying the last chunk left %d chunks, %d shared; want 10, 9", b.chunks.Len(), shared(&b))
	}
}
