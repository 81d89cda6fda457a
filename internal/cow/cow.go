// Package cow is the copy-on-write paging behind the store's per-commit
// snapshots: a table of fixed-size pages that a clone shares page by
// page. A table writes in place only the pages it owns and copies any
// other page on its first write to it, so a write after a clone costs
// the pages it touches, not the structure. The R-tree keeps its nodes in
// such a table, and List — the slab of a store shard's objects — its
// chunks.
package cow

import (
	"iter"
	"slices"
)

// tag identifies the table allowed to write a page in place; only its
// address matters (the byte gives every tag its own).
type tag struct{ _ byte }

// Page is the constraint on page types: Copy returns a private copy of
// the page that its new holder may write.
type Page[P any] interface {
	*P
	Copy() *P
}

// entry is one table slot: a page and the tag of the one table allowed
// to write it in place.
type entry[P any] struct {
	page  *P
	owner *tag
}

// Table is a table of pages shared copy-on-write with its clones. The
// zero value is an empty table. A table may be read concurrently;
// writes, appends and clones require exclusive access.
type Table[P any, PP Page[P]] struct {
	owner   *tag
	entries []entry[P]
}

// Len returns the number of pages.
func (t *Table[P, PP]) Len() int { return len(t.entries) }

// At returns page i for reading.
func (t *Table[P, PP]) At(i int) *P { return t.entries[i].page }

// Writable returns page i for writing, first replacing a page the table
// does not own with a private copy. Readers of the shared original,
// including views obtained from it before the copy, keep reading it
// unchanged.
func (t *Table[P, PP]) Writable(i int) *P {
	e := &t.entries[i]
	if e.owner != t.owner {
		e.page, e.owner = PP(e.page).Copy(), t.owner
	}
	return e.page
}

// Append adds p as the last page, owned by the table.
func (t *Table[P, PP]) Append(p *P) {
	if t.owner == nil {
		t.owner = new(tag)
	}
	t.entries = append(t.entries, entry[P]{page: p, owner: t.owner})
}

// Truncate drops every page from index n on.
func (t *Table[P, PP]) Truncate(n int) {
	clear(t.entries[n:])
	t.entries = t.entries[:n]
}

// Clone returns a table sharing every page with t, in time proportional
// to the page count. Both tables get fresh tags, so neither owns a shared
// page and each copies a page on its first write to it: writes on
// either side never show on the other. Clone re-tags t, so it counts as
// a write of t; readers of t are unaffected.
func (t *Table[P, PP]) Clone() Table[P, PP] {
	t.owner = new(tag)
	return Table[P, PP]{owner: new(tag), entries: slices.Clone(t.entries)}
}

// List geometry: a chunk holds chunkLen elements. An element write
// after a clone copies one chunk and the clone copied the table, so the
// chunk size trades the one against the other: at 128 pointers a
// 10^4-element list costs a 1.3 KB table and a 1 KB chunk.
const (
	chunkShift = 7
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

type chunk[T any] [chunkLen]T

// Copy returns a copy of the chunk.
func (c *chunk[T]) Copy() *chunk[T] {
	d := *c
	return &d
}

// List is a slab kept in fixed-size chunks behind a copy-on-write
// Table: element i lives in chunk i/chunkLen, every chunk but the last
// is full. A clone shares every chunk, so Set and Append after a Clone
// copy the one chunk they write, and Delete — which moves the last
// element into the freed position — copies at most two. The zero value
// is an empty list. Like Table, a List may be read concurrently; writes
// and clones require exclusive access.
type List[T any] struct {
	n      int
	chunks Table[chunk[T], *chunk[T]]
}

// ListOf returns a list holding a copy of s.
func ListOf[T any](s []T) List[T] {
	var l List[T]
	for len(s) > 0 {
		c := new(chunk[T])
		k := copy(c[:], s)
		l.chunks.Append(c)
		l.n += k
		s = s[k:]
	}
	return l
}

// Len returns the number of elements.
func (l *List[T]) Len() int { return l.n }

// At returns element i.
func (l *List[T]) At(i int) T { return l.chunks.At(i >> chunkShift)[i&chunkMask] }

// Set overwrites element i.
func (l *List[T]) Set(i int, v T) { l.chunks.Writable(i >> chunkShift)[i&chunkMask] = v }

// Append adds v at the end.
func (l *List[T]) Append(v T) {
	if l.n&chunkMask == 0 {
		l.chunks.Append(new(chunk[T]))
	}
	l.n++
	l.Set(l.n-1, v)
}

// Delete removes element i by moving the last element into position i,
// so it writes at most two chunks: i's and the last one.
func (l *List[T]) Delete(i int) {
	last := l.n - 1
	if i != last {
		l.Set(i, l.At(last))
	}
	l.n = last
	if last&chunkMask == 0 {
		l.chunks.Truncate(last >> chunkShift)
		return
	}
	var zero T
	l.Set(last, zero) // the free tail holds no stale element
}

// All iterates over the elements in order.
func (l *List[T]) All() iter.Seq[T] {
	return func(yield func(T) bool) {
		for ci := range l.chunks.Len() {
			for _, v := range l.chunk(ci) {
				if !yield(v) {
					return
				}
			}
		}
	}
}

// Slice returns the elements in a fresh slice.
func (l *List[T]) Slice() []T {
	out := make([]T, 0, l.n)
	for ci := range l.chunks.Len() {
		out = append(out, l.chunk(ci)...)
	}
	return out
}

// Clone returns a list sharing every chunk with l (see Table.Clone).
func (l *List[T]) Clone() List[T] {
	return List[T]{n: l.n, chunks: l.chunks.Clone()}
}

// chunk returns the elements in use of chunk ci.
func (l *List[T]) chunk(ci int) []T {
	return l.chunks.At(ci)[:min(chunkLen, l.n-ci<<chunkShift)]
}
