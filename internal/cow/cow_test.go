package cow

import (
	"math/rand"
	"slices"
	"testing"
)

// absent is a value no transcript writes: they write random
// non-negatives and small negative counters.
const absent = -1 << 62

// generation is one live List and the flat slice it must equal.
type generation struct {
	l   List[int]
	ref []int
}

// TestListTranscript drives seeded Set/Append/Delete/Clone transcripts
// across chunk boundaries while up to three earlier clones stay live,
// sends every write to a randomly chosen live generation and checks all
// of them against their flat references after every step: writes never
// cross a clone, and order survives every edit.
func TestListTranscript(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		start := make([]int, rng.Intn(3*chunkLen))
		for i := range start {
			start[i] = rng.Int()
		}
		gens := []*generation{{l: ListOf(start), ref: slices.Clone(start)}}
		next := 0
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
				i := rng.Intn(len(g.ref))
				g.l.Delete(i)
				g.ref = slices.Delete(g.ref, i, i+1)
			default:
				c := &generation{l: g.l.Clone(), ref: slices.Clone(g.ref)}
				gens = append(gens, c)
				if len(gens) > 4 {
					gens = gens[1:]
				}
			}
			for gi, g := range gens {
				checkList(t, seed, step, gi, g)
			}
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
		i := (step * 7) % n
		if g.l.Index(g.ref[i]) != slices.Index(g.ref, g.ref[i]) {
			t.Fatalf("seed %d step %d gen %d: Index of element %d disagrees with the reference", seed, step, gi, i)
		}
	}
	if g.l.Index(absent) != -1 {
		t.Fatalf("seed %d step %d gen %d: Index found a value the list does not hold", seed, step, gi)
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
