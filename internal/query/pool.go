package query

import (
	"sync"

	"probprune/internal/core"
	"probprune/internal/rtree"
	"probprune/internal/uncertain"
)

// This file holds the query layer's free lists. A multi-candidate query
// dispatches one IDCA run per candidate onto the executor's workers;
// each run's transient working set (generating-function ping-pong
// buffers, interval scratch, partition-pair lists) and each
// preselection's best-first queue used to be reallocated per run. The
// pools below recycle them across runs, candidates, queries and
// snapshots — both structures are instance-independent, so the pools are
// package-global.

// scratchPool recycles per-run IDCA arenas (core.Scratch). A scratch is
// attached to exactly one run at a time: Snapshot.run checks one out and
// returns it when the run completes. Sessions (which outlive the call
// that creates them) get private, unpooled arenas instead.
var scratchPool = sync.Pool{New: func() any { return core.NewScratch() }}

// nearbyPool recycles best-first traversal queues (rtree.NearbyBuf) for
// the kNN/RkNN preselection streams. Buffers are tree-independent, so
// one pool serves every index and every shard.
var nearbyPool = sync.Pool{New: func() any { return new(rtree.NearbyBuf) }}

// candPool recycles the candidate lists kNN queries gather from the
// index (Snapshot.appendWithin). A list lives only until its query has
// laid out the reply, and goes back cleared, holding no object.
var candPool = sync.Pool{New: func() any { return new([]*uncertain.Object) }}
