package query

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"probprune/internal/core"
	"probprune/internal/uncertain"
)

// This file implements the query executor: every multi-candidate query
// (KNN, RKNN, expected-rank ranking, top-m) reduces to one independent
// IDCA run per candidate, and the executor fans those runs out over a
// worker pool — the concurrent serving model of production geospatial
// engines (tile38-style), applied to the paper's per-candidate
// filter-refinement loop.
//
// Concurrency contract. Each candidate's run is deterministic and
// writes only its own result slot, so results are identical to the
// sequential path regardless of worker count or completion order. The
// operand shared across runs (the query object's decomposition) is a
// core.RefDecomp, which synchronizes internally; the R-tree index is
// only read. Candidate-level parallelism subsumes the pair-level
// parallelism inside core, so per-candidate runs execute their
// partition pairs sequentially (runOpts pins Parallelism to 1).

// parallelism resolves the query worker count: Options.Parallelism
// when positive, otherwise GOMAXPROCS.
func (sn *Snapshot) parallelism() int {
	if sn.opts.Parallelism > 0 {
		return sn.opts.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// queryCache resolves the decomposition cache of one query: a fresh
// overlay over the store's persistent cache. Decompositions of objects
// pinned there are reused across queries, everything else (typically
// the query object) lives only for this query. Results are
// bit-identical to an uncached run — decompositions are deterministic —
// only the work reuse differs.
func (sn *Snapshot) queryCache() *core.DecompCache { return sn.cache.Overlay() }

// runOpts derives the per-candidate IDCA options from the store's
// options: query-managed knobs (Stop, KMax, shared decompositions) are
// cleared for the caller to set, and pair-level parallelism is disabled
// because the executor already owns the concurrency budget.
func (sn *Snapshot) runOpts() core.Options {
	opts := sn.opts
	opts.Stop = nil
	opts.KMax = 0
	opts.Parallelism = 1
	opts.SharedDecomps = nil
	// A scratch arena is single-owner; concurrent candidate runs must
	// never share one installed in the store's options. run/newSession attach a
	// per-run (pooled) or per-session arena instead.
	opts.Scratch = nil
	return opts
}

// forEach runs fn(i) for every i in [0, n) on the snapshot's workers,
// pulling indices from a shared counter. It stops handing out new
// indices once the query's context is cancelled (in-flight calls
// complete) and returns ctx.Err() in that case, marking the run
// cancelled: end observes no latency for it. fn must confine its writes
// to index-private state.
func (r *queryRun) forEach(n int, fn func(i int)) (err error) {
	defer func() { r.cancelled = r.cancelled || err != nil }()
	workers := min(r.sn.parallelism(), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := r.ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r.ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return r.ctx.Err()
}

// candidates returns the database objects a query over reference q runs
// against, in ascending ID order (q itself excluded when it is a
// database object). The slot order is the result order.
func (sn *Snapshot) candidates(q *uncertain.Object) []*uncertain.Object {
	db := sn.Database()
	out := make([]*uncertain.Object, 0, len(db))
	for _, b := range db {
		if b != q {
			out = append(out, b)
		}
	}
	return out
}

// answered returns how many objects a query over reference q answers
// for: the database, less q itself when it is a database object.
func (sn *Snapshot) answered(q *uncertain.Object) int {
	db := sn.Database()
	i, found := slices.BinarySearchFunc(db, q, cmpID)
	if found && db[i] == q {
		return len(db) - 1
	}
	return len(db)
}
