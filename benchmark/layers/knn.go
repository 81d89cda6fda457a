package main

import (
	"bytes"
	"io"
	"slices"
	"time"

	"probprune/benchmark/ops"
	"probprune/internal/core"
	"probprune/internal/domination"
	"probprune/internal/geom"
	"probprune/internal/gf"
	"probprune/internal/query"
	"probprune/internal/rtree"
	"probprune/internal/server"
	"probprune/internal/uncertain"
	"probprune/internal/workload"
)

func matchIDs(ms []query.Match) []int {
	ids := []int{}
	for _, m := range ms {
		if m.IsResult {
			ids = append(ids, m.Object.ID)
		}
	}
	return ids
}

// knn replays the KNN workloads: per op, the request's trip through
// the codec, the store query and the reply encode, each as its own
// span under the op's.
func (r *run) knn() error {
	w, tr := r.w, r.tr
	opts := core.Options{MaxIterations: w.Iterations}
	store, err := query.NewStore(r.db, opts)
	if err != nil {
		return err
	}
	defer store.Close()
	payloads := w.Queries(r.seed, w.PerRound)
	if len(r.oracle.KNN) != len(payloads) {
		r.fail("wire pass answered %d queries, op list has %d", len(r.oracle.KNN), len(payloads))
	}
	queries := make([]*uncertain.Object, len(payloads))
	sink := server.NewWriter(io.Discard)
	// Pass 0 is cold, as e2e's warm-up pass was, and is the oracle;
	// pass 1 is the one the metrics report.
	for pass := 0; pass < 2; pass++ {
		for i, p := range payloads {
			op := -1
			if pass == 1 {
				op = tr.begin("op", -1, i)
				req := w.KNNCommand(p, false)
				tr.call("server.read_frame_us", op, i, func() {
					if _, err := server.NewReader(bytes.NewReader(req)).ReadFrame(); err != nil {
						panic(err)
					}
				})
				tr.call("server.decode_object_us", op, i, func() { queries[i] = r.decode(p) })
			} else {
				queries[i] = r.decode(p)
			}
			var ms []query.Match
			if pass == 0 {
				ms = store.KNN(queries[i], w.K, w.Tau)
				if i < len(r.oracle.KNN) && !slices.Equal(matchIDs(ms), r.oracle.KNN[i]) {
					r.fail("query %d: wire results %v, in-process %v", i, r.oracle.KNN[i], matchIDs(ms))
				}
				continue
			}
			tr.call("query.store_knn_ms", op, i, func() { ms = store.KNN(queries[i], w.K, w.Tau) })
			tr.call("server.encode_matches_ms", op, i, func() {
				sink.WriteFrame(server.EncodeMatches(ms))
				sink.Flush()
			})
			tr.end(op)
		}
	}
	r.report("server.read_frame_us", time.Microsecond)
	r.report("server.decode_object_us", time.Microsecond)
	r.report("query.store_knn_ms", time.Millisecond)
	r.report("server.encode_matches_ms", time.Millisecond)

	const batch = 1000
	for i := 0; i < 20; i++ {
		tr.call("query.snapshot_ns", -1, -1, func() {
			for j := 0; j < batch; j++ {
				store.Snapshot()
			}
		})
	}
	r.metrics["query.snapshot_ns"] = tr.medianOf("query.snapshot_ns", time.Nanosecond) / batch

	index := r.rtreeLayer(queries)
	if w.QuerySamples > 1 {
		r.coreLayers(index)
	}
	return nil
}

// bulkTree is the database's R-tree as a server start builds it.
func (r *run) bulkTree() *rtree.Tree[*uncertain.Object] {
	items := make([]rtree.BulkItem[*uncertain.Object], len(r.db))
	for i, o := range r.db {
		items[i] = rtree.BulkItem[*uncertain.Object]{Rect: o.MBR, Value: o}
	}
	return rtree.Bulk(items)
}

// rtreeLayer times the index alone on the workload's data: the bulk
// load a server start pays and the best-first scan a KNN opens with.
func (r *run) rtreeLayer(queries []*uncertain.Object) *rtree.Tree[*uncertain.Object] {
	tr := r.tr
	var tree *rtree.Tree[*uncertain.Object]
	for i := 0; i < 5; i++ {
		tr.call("rtree.bulk_ms", -1, -1, func() { tree = r.bulkTree() })
	}
	r.report("rtree.bulk_ms", time.Millisecond)

	var buf rtree.NearbyBuf
	for i, q := range queries {
		tr.call("rtree.nearby_us", -1, i, func() {
			seen := 0
			tree.NearbyWith(&buf, rtree.MinDist[*uncertain.Object](geom.L2, q.MBR),
				func(geom.Rect, *uncertain.Object, float64) bool { seen++; return seen < 4*r.w.K })
		})
	}
	r.report("rtree.nearby_us", time.Microsecond)
	r.rtreeWrites(tree, r.w.Updates(r.seed, r.wireDB(), nil, 200))
	return tree
}

// rtreeWrites times what a committed update costs the index: the clone
// a pinned snapshot forces, and the delete + insert of the moved object
// (undone after each, so the tree ends as it began).
func (r *run) rtreeWrites(tree *rtree.Tree[*uncertain.Object], updates []ops.Update) {
	tr := r.tr
	for i := 0; i < 20; i++ {
		tr.call("rtree.clone_us", -1, -1, func() { tree.Clone() })
	}
	r.report("rtree.clone_us", time.Microsecond)
	for i, u := range updates {
		old, moved := r.db[u.ID], r.decode(u.Payload)
		tr.call("rtree.update_us", -1, i, func() {
			tree.Delete(old.MBR, old)
			tree.Insert(moved.MBR, moved)
		})
		tree.Delete(moved.MBR, moved)
		tree.Insert(old.MBR, old)
	}
	r.report("rtree.update_us", time.Microsecond)
}

// coreLayers times the refinement stack under the query layer on the
// paper's own instance: the domination count of the rank-10 neighbour
// of a database object (workload.Queries). The uncertainty the run
// ends with is a count of the algorithm, not a time: it repeats
// exactly for a seed.
func (r *run) coreLayers(index *rtree.Tree[*uncertain.Object]) {
	tr, w := r.tr, r.w
	opts := core.Options{MaxIterations: w.Iterations}
	pairs := workload.Queries(r.db, 24, 10, geom.L2, r.seed)
	uncertainty := 0.0
	for i, p := range pairs {
		var res *core.Result
		tr.call("core.idca_run_ms", -1, i, func() { res = core.RunIndexed(index, p.Target, p.Reference, opts) })
		uncertainty += res.Uncertainty()
	}
	r.report("core.idca_run_ms", time.Millisecond)
	r.metrics["core.idca_uncertainty"] = uncertainty / float64(len(pairs))

	const level = 4 // the depth -iterations 4 refines to
	cache := core.NewDecompCache(0)
	const batch = 1000
	for i, p := range pairs {
		tr.call("uncertain.decompose_us", -1, i, func() {
			uncertain.NewDecompTree(p.Target, 0).PartitionsAtLevel(level)
		})
		tr.call("core.decomp_miss_us", -1, i, func() { cache.Get(p.Target).PartitionsAtLevel(level) })
		tr.call("core.decomp_hit_ns", -1, i, func() {
			for j := 0; j < batch; j++ {
				cache.Get(p.Target).PartitionsAtLevel(level)
			}
		})
	}
	r.report("uncertain.decompose_us", time.Microsecond)
	r.report("core.decomp_miss_us", time.Microsecond)
	r.metrics["core.decomp_hit_ns"] = tr.medianOf("core.decomp_hit_ns", time.Nanosecond) / batch

	for i, p := range pairs {
		aParts := cache.Get(p.Target).PartitionsAtLevel(level)
		other := pairs[(i+1)%len(pairs)].Target
		var ivs [32]gf.Interval
		tr.call("domination.bounds_us", -1, i, func() {
			for j := range ivs {
				ivs[j] = domination.Bounds(geom.L2, geom.Optimal, aParts, other.MBR, p.Reference.MBR)
			}
		})
		for j := range ivs {
			// Undecided factors, so every multiply widens the y dimension.
			ivs[j] = gf.Interval{LB: 0.25, UB: 0.75}
		}
		ugf := gf.NewTruncatedUGF(w.K)
		tr.call("gf.multiply_us", -1, i, func() { ugf.MultiplyAll(ivs[:]) })
	}
	r.metrics["domination.bounds_us"] = tr.medianOf("domination.bounds_us", time.Microsecond) / 32
	r.metrics["gf.multiply_us"] = tr.medianOf("gf.multiply_us", time.Microsecond) / 32
}
