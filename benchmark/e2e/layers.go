package main

import "probprune/benchmark/ops"

// traceLayers names what one traced pass says about the serving and
// query layers. primary sums the traces of the workload's primary
// command, queries those of its KNNs (the same on the KNN workloads).
// quietMs is the untraced quiet-pool mean latency the traced pass is
// compared with; 0 skips the overhead figure.
func traceLayers(layer map[string]float64, primary, queries traceSums, quietMs float64, durable bool) {
	n := float64(primary.n)
	clientMs := primary.clientMs / n
	t := primary.t
	layer["server.queue_us"] = float64(t.QueueNs) / n / 1e3
	// What the client waited for beyond the spans the server accounts
	// for: reply encode, socket write, loopback, request decode.
	layer["server.encode_write_ms"] = clientMs - float64(t.QueueNs+t.PrepareNs+t.EvalNs+t.WALWaitNs)/n/1e6
	layer["server.reply_bytes"] = primary.replySize / n
	if quietMs > 0 {
		layer["obs.trace_overhead_pct"] = (clientMs - quietMs) / quietMs * 100
	}
	if durable {
		layer["wal.wait_ms"] = float64(t.WALWaitNs) / n / 1e6
	}
	if queries.n == 0 {
		return
	}
	n, t = float64(queries.n), queries.t
	layer["query.prepare_us"] = float64(t.PrepareNs) / n / 1e3
	layer["query.eval_ms"] = float64(t.EvalNs) / n / 1e6
	layer["query.candidates"] = float64(t.Candidates) / n
	layer["query.preselected_share"] = ratio(t.Preselected, t.Candidates)
	layer["query.refined"] = float64(t.Refined) / n
	layer["query.undecided"] = float64(t.Undecided) / n
	layer["query.iterations"] = float64(t.Iterations) / n
	layer["core.cache_hit_share"] = ratio(t.CacheHits, t.CacheHits+t.CacheMisses)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// tailLayers reports the quiet pool's further tail. The gate stops at
// p90: the smallest pool (knn-refine, 160 samples) has too few samples
// beyond p95 for that to hold a bound.
func tailLayers(layer map[string]float64, quiet round) {
	layer["e2e.latency_p95_ms"] = quantile(quiet.lat, 0.95)
	layer["e2e.latency_p99_ms"] = quantile(quiet.lat, 0.99)
}

// statLayers names the STATS deltas over the untraced timed rounds,
// per primary op.
func statLayers(layer map[string]float64, s0, s1 map[string]int64, all round, w ops.Workload) {
	d := func(key string) float64 { return float64(s1[key] - s0[key]) }
	per := func(sum, count string) float64 {
		if d(count) == 0 {
			return 0
		}
		return d(sum) / d(count)
	}
	nops := float64(all.ops)
	cmd := "knn"
	if w.Durable || w.Subs > 0 {
		cmd = "update"
	}
	lat := "server.cmd." + cmd + ".latency"
	layer["server.dispatch_ms"] = per(lat+".sum_ns", lat+".count") / 1e6
	layer["server.pushed_per_mutation"] = d("server.pushed") / nops
	layer["server.shed"] = d("server.shed")
	layer["runtime.gc_cycles_per_kop"] = d("runtime.gc_cycles") / nops * 1e3
	layer["runtime.gc_pause_ms_per_kop"] = d("runtime.gc_pause_total_ns") / 1e6 / nops * 1e3
	layer["runtime.heap_alloc_mb"] = float64(s1["runtime.heap_alloc_bytes"]) / (1 << 20)
	layer["cq.runs_per_mutation"] = d("cq.runs") / nops
	layer["cq.saved_per_mutation"] = d("cq.saved") / nops
	layer["cq.woken_per_mutation"] = d("cq.woken") / nops
	layer["cq.events_per_mutation"] = d("cq.events") / nops
	if !w.Durable {
		return
	}
	layer["wal.append_us"] = per("wal.append.latency.sum_ns", "wal.append.latency.count") / 1e3
	layer["wal.fsync_ms"] = per("wal.fsync.latency.sum_ns", "wal.fsync.latency.count") / 1e6
	layer["wal.fsyncs_per_op"] = d("wal.fsyncs") / nops
	layer["wal.bytes_per_op"] = d("wal.append_bytes") / nops
	layer["wal.group_commit_batch"] = per("wal.group_commit.batch.sum", "wal.group_commit.batch.count")
	layer["wal.checkpoints"] = d("wal.checkpoints")
	layer["wal.checkpoint_ms"] = per("wal.checkpoint.latency.sum_ns", "wal.checkpoint.latency.count") / 1e6
	layer["store.checkpoint_coalesced"] = d("store.checkpoint.coalesced")
	layer["query.read_after_write_ms"] = median(all.reads)
}
