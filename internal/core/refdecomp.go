package core

import (
	"sync"
	"sync/atomic"

	"probprune/internal/uncertain"
)

// RefDecomp is a concurrency-safe, lazily extended view of one object's
// kd-tree decomposition, built once and shared by every IDCA run a
// DecompCache hands it to: a kNN query runs Run(b, q) for every
// candidate b, and the runs share q and most influence objects.
//
// All methods are safe for concurrent use. The partition slices
// returned by PartitionsAtLevel are shared and must be treated as
// read-only — the refinement loop only ever reads them.
type RefDecomp struct {
	obj       *uncertain.Object
	maxHeight int

	mu   sync.Mutex
	tree *uncertain.DecompTree // built on the first request
}

// newRefDecomp prepares a decomposition of obj with the given height
// limit (<= 0 selects the uncertain package default); the tree is built
// on the first request.
func newRefDecomp(obj *uncertain.Object, maxHeight int) *RefDecomp {
	return &RefDecomp{obj: obj, maxHeight: maxHeight}
}

// Object returns the decomposed object.
func (d *RefDecomp) Object() *uncertain.Object { return d.obj }

// PartitionsAtLevel returns the decomposition at the given depth,
// identical to DecompTree.PartitionsAtLevel on a private tree. The
// first request for a level expands the tree under a lock; subsequent
// requests (from any goroutine) return the same slice.
func (d *RefDecomp) PartitionsAtLevel(level int) []uncertain.Partition {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.built().PartitionsAtLevel(max(level, 0))
}

// levelWithChildren returns the decomposition at the given depth (>= 0)
// with the first-child offset table linking it to the level above, as
// DecompTree.LevelWithChildren does.
func (d *RefDecomp) levelWithChildren(level int) ([]uncertain.Partition, []int32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.built().LevelWithChildren(level)
}

// built returns the tree, building it on first use. Callers hold d.mu.
func (d *RefDecomp) built() *uncertain.DecompTree {
	if d.tree == nil {
		d.tree = uncertain.NewDecompTree(d.obj, d.maxHeight)
	}
	return d.tree
}

// DecompCache shares object decompositions across all the IDCA runs of
// one query. A multi-candidate query runs IDCA once per candidate, and
// each run decomposes its target, its reference AND every influence
// object one level per iteration; with clustered data the same objects
// appear in the influence sets of many candidates (and every candidate
// is a potential influence object of every other), so without sharing
// the same kd-splits are recomputed tens of times per query. A cache
// installed via Options.SharedDecomps makes every object's
// decomposition happen at most once per query.
//
// All methods are safe for concurrent use. The cache holds every
// decomposition it ever handed out until Invalidate removes it; scope
// it to one query (the query engine builds a fresh cache per call
// unless handed a persistent one) or manage its lifetime explicitly,
// the way Store does: one long-lived cache holding exactly the
// database-resident objects, invalidated per object on update, with a
// per-query Overlay absorbing everything else.
type DecompCache struct {
	maxHeight int
	// parent, when non-nil, makes this cache an Overlay: lookups fall
	// back to the parent chain, inserts stay local.
	parent *DecompCache

	mu sync.Mutex
	m  map[*uncertain.Object]*RefDecomp

	// Hit/miss traffic through Get, counted on the receiving cache (an
	// overlay counts its own traffic even when the hit resolved in the
	// parent chain) — the per-query cache economy the observability
	// layer surfaces.
	hits   atomic.Uint64
	misses atomic.Uint64
}

// Stats returns the cache's cumulative Get traffic: hits (an entry
// already existed here or in an ancestor) and misses (a decomposition
// was created).
func (c *DecompCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// NewDecompCache builds an empty cache whose decompositions use the
// given height limit (<= 0 selects the uncertain package default).
func NewDecompCache(maxHeight int) *DecompCache {
	return &DecompCache{maxHeight: maxHeight, m: make(map[*uncertain.Object]*RefDecomp)}
}

// Get returns the shared decomposition of obj: an entry already held by
// this cache or an ancestor when one exists, otherwise a fresh entry
// created in this cache.
func (c *DecompCache) Get(obj *uncertain.Object) *RefDecomp {
	for p := c.parent; p != nil; p = p.parent {
		if d, ok := p.lookup(obj); ok {
			c.hits.Add(1)
			return d
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.m[obj]
	if !ok || d == nil {
		// A lazy pin (nil placeholder from Add) still counts as a miss:
		// the decomposition work happens now.
		d = newRefDecomp(obj, c.maxHeight)
		c.put(obj, d)
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	return d
}

// lookup reports whether this cache holds obj, materializing a lazy pin
// (nil placeholder from Add) in place so every reader shares one
// decomposition.
func (c *DecompCache) lookup(obj *uncertain.Object) (*RefDecomp, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.m[obj]
	if ok && d == nil {
		d = newRefDecomp(obj, c.maxHeight)
		c.m[obj] = d
	}
	return d, ok
}

// Add pins obj in this cache (ignoring the parent chain): overlay
// lookups will resolve to this cache's entry. The pin is lazy — the
// decomposition itself (an O(samples) structure) is only built on the
// first Get, so pinning a whole database on ingest costs one map entry
// per object.
func (c *DecompCache) Add(obj *uncertain.Object) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[obj]; !ok {
		c.put(obj, nil)
	}
}

// put stores d for obj, allocating an overlay's map on its first
// insert. Callers hold c.mu.
func (c *DecompCache) put(obj *uncertain.Object, d *RefDecomp) {
	if c.m == nil {
		c.m = make(map[*uncertain.Object]*RefDecomp)
	}
	c.m[obj] = d
}

// Invalidate drops the cached decomposition of obj from this cache and
// reports whether an entry was removed. Callers invalidate when an
// object leaves the database (the entry would otherwise pin its memory
// forever); decompositions are immutable, so readers that obtained the
// entry earlier remain correct.
func (c *DecompCache) Invalidate(obj *uncertain.Object) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[obj]; !ok {
		return false
	}
	delete(c.m, obj)
	return true
}

// Overlay returns a query-scoped view of the cache: lookups hit c (and
// its ancestors) for objects they already hold, while decompositions of
// unknown objects — typically the query object — are created in the
// overlay and die with it instead of accumulating in the persistent
// cache. The overlay's own map is allocated lazily on first insert, so
// a query whose objects are all cache-resident pays nothing for it.
func (c *DecompCache) Overlay() *DecompCache {
	return &DecompCache{maxHeight: c.maxHeight, parent: c}
}

// Len returns the number of decompositions in this cache (excluding
// ancestors).
func (c *DecompCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// source returns the decomposition of one run operand or influence
// object: the query-wide cache's when one is installed, else a
// run-private one.
func source(obj *uncertain.Object, opts Options) *RefDecomp {
	if opts.SharedDecomps != nil {
		return opts.SharedDecomps.Get(obj)
	}
	return newRefDecomp(obj, opts.MaxHeight)
}
