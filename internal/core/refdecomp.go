package core

import (
	"sync"
	"sync/atomic"

	"probprune/internal/uncertain"
)

// RefDecomp is a concurrency-safe, lazily extended view of one object's
// kd-tree decomposition, built once and shared across many IDCA runs.
//
// The motivating access pattern is a query evaluating one IDCA run per
// candidate against a common operand: a kNN query runs Run(b, q) for
// every candidate b, re-deriving the identical decomposition of the
// query object q inside every run. A RefDecomp extracts that work: the
// underlying DecompTree is expanded at most once per level, the
// per-level partition slices are cached, and every Session that is
// handed the RefDecomp (via Options.SharedTarget/SharedReference) reads
// the cached levels instead of splitting its own copy.
//
// All methods are safe for concurrent use. The partition slices
// returned by PartitionsAtLevel are shared and must be treated as
// read-only — the refinement loop only ever reads them.
type RefDecomp struct {
	obj       *uncertain.Object
	maxHeight int

	mu     sync.Mutex
	tree   *uncertain.DecompTree // built on first un-seeded level request
	levels [][]uncertain.Partition
	// first[l] is level l's first-child offset table (see
	// DecompTree.LevelWithChildren), always derived from the tree —
	// checkpoints persist partitions only, so a seeded RefDecomp
	// re-derives the tables for its seeded levels on first use.
	first [][]int32
}

// NewRefDecomp prepares a shared decomposition of obj with the given
// height limit (<= 0 selects the uncertain package default, matching
// what a Session builds for itself).
func NewRefDecomp(obj *uncertain.Object, maxHeight int) *RefDecomp {
	return &RefDecomp{obj: obj, maxHeight: maxHeight}
}

// NewSeededRefDecomp prepares a shared decomposition whose first
// len(levels) levels are served from a previously materialized copy —
// how a reopened store resumes from a checkpoint without re-splitting.
// The seed must come from a decomposition of an object with identical
// samples and weights at the same height limit (decomposition is
// deterministic, so such a seed is bit-identical to what a fresh tree
// would compute); deeper levels, and the child tables refinement walks,
// expand a fresh tree on demand.
func NewSeededRefDecomp(obj *uncertain.Object, maxHeight int, levels [][]uncertain.Partition) *RefDecomp {
	return &RefDecomp{obj: obj, maxHeight: maxHeight, levels: levels}
}

// Object returns the decomposed object.
func (d *RefDecomp) Object() *uncertain.Object { return d.obj }

// PartitionsAtLevel returns the decomposition at the given depth,
// identical to DecompTree.PartitionsAtLevel on a private tree. The
// first request for a level expands the tree under a lock; subsequent
// requests (from any goroutine) return the cached slice.
func (d *RefDecomp) PartitionsAtLevel(level int) []uncertain.Partition {
	if level < 0 {
		level = 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if level >= len(d.levels) {
		d.materialize(level)
	}
	return d.levels[level]
}

// levelWithChildren returns the decomposition at the given depth (>= 0)
// with the first-child offset table linking it to the level above, as
// DecompTree.LevelWithChildren does.
func (d *RefDecomp) levelWithChildren(level int) ([]uncertain.Partition, []int32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if level >= len(d.first) {
		d.materialize(level)
	}
	return d.levels[level], d.first[level]
}

// materialize extends the child tables — and, past what is already
// there, the levels — through the given depth. Callers hold d.mu.
func (d *RefDecomp) materialize(level int) {
	if d.tree == nil {
		d.tree = uncertain.NewDecompTree(d.obj, d.maxHeight)
	}
	for l := len(d.first); l <= level; l++ {
		parts, first := d.tree.LevelWithChildren(l)
		if l == len(d.levels) {
			// Materialize the level in packed form: one contiguous coord
			// array per level, so every refinement pass over it is a linear
			// scan instead of a walk over scattered tree-node rectangles.
			d.levels = append(d.levels, uncertain.PackPartitions(parts))
		}
		d.first = append(d.first, first)
	}
}

// MaterializedLevels returns a snapshot of the levels materialized so
// far — what a checkpoint persists. The inner slices are shared
// (read-only by contract); the outer slice is a copy.
func (d *RefDecomp) MaterializedLevels() [][]uncertain.Partition {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.levels) == 0 {
		return nil
	}
	out := make([][]uncertain.Partition, len(d.levels))
	copy(out, d.levels)
	return out
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

	mu      sync.Mutex
	m       map[*uncertain.Object]*RefDecomp
	version uint64

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
		d = NewRefDecomp(obj, c.maxHeight)
		if c.m == nil {
			c.m = make(map[*uncertain.Object]*RefDecomp)
		}
		c.m[obj] = d
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
		d = NewRefDecomp(obj, c.maxHeight)
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
		if c.m == nil {
			c.m = make(map[*uncertain.Object]*RefDecomp)
		}
		c.m[obj] = nil
		c.version++
	}
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
	c.version++
	return true
}

// Version returns a counter incremented by every Add and Invalidate —
// the cache epoch Store snapshots for observability and tests.
func (c *DecompCache) Version() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version
}

// SetVersion restores the cache epoch — recovery resets it to the
// checkpointed value so observability counters survive a reopen.
func (c *DecompCache) SetVersion(v uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.version = v
}

// Materialized returns the levels of obj's cached decomposition that
// have been materialized so far, nil when the cache holds no entry for
// obj or only a lazy pin. It is the per-object export a checkpoint
// persists.
func (c *DecompCache) Materialized(obj *uncertain.Object) [][]uncertain.Partition {
	c.mu.Lock()
	d := c.m[obj]
	c.mu.Unlock()
	if d == nil {
		return nil
	}
	return d.MaterializedLevels()
}

// Seed pins obj with a pre-materialized decomposition (see
// NewSeededRefDecomp) — recovery's counterpart of Add. Like Add it
// counts one epoch tick for a new pin; an existing entry is replaced
// only if it is still a lazy pin, so a decomposition already handed out
// stays canonical.
func (c *DecompCache) Seed(obj *uncertain.Object, levels [][]uncertain.Partition) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d, ok := c.m[obj]; ok {
		if d == nil {
			c.m[obj] = NewSeededRefDecomp(obj, c.maxHeight, levels)
		}
		return
	}
	if c.m == nil {
		c.m = make(map[*uncertain.Object]*RefDecomp)
	}
	c.m[obj] = NewSeededRefDecomp(obj, c.maxHeight, levels)
	c.version++
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

// resolveSource picks the decomposition for one run operand or
// influence object: an explicitly shared RefDecomp when it matches,
// else the query-wide cache when installed, else a run-private one.
func resolveSource(obj *uncertain.Object, explicit *RefDecomp, opts Options) *RefDecomp {
	if explicit != nil && explicit.Object() == obj {
		return explicit
	}
	if opts.SharedDecomps != nil {
		return opts.SharedDecomps.Get(obj)
	}
	return NewRefDecomp(obj, opts.MaxHeight)
}
