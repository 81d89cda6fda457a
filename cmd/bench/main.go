// Command bench runs the repository's key performance scenarios and
// writes the numbers to a machine-readable JSON file (BENCH_PR10.json
// by default), so the performance trajectory of the project is tracked
// in data rather than prose. It measures the hot serving paths —
// one-shot engine queries, warm store queries (plain, with the flight
// recorder armed, and with a TRACE-flagged query), batched queries,
// index build —
// the continuous-query maintenance pair (incremental maintenance vs.
// re-running every standing query per mutation), the sharded serving
// pair (write-interleaved BatchKNN mix and store build at 1 vs 8
// shards), and the durability scenarios: journaled update throughput
// (WALIngest), recovery cold vs from a checkpoint, the SyncAlways
// ingest pair (one committer paying a full fsync per commit vs
// concurrent committers sharing group-commit fsyncs), and commit
// latency while background checkpoints run.
//
// The report carries assertions: group-commit ingest must beat the
// per-commit-fsync baseline by >= 3x, and the p99 commit latency under
// checkpoint load must stay far below a synchronous full-database
// encode. A failed assertion fails the run.
//
// Every scenario is measured twice: a serial pass pinned to
// GOMAXPROCS=1 (the apples-to-apples baseline against earlier reports,
// which were recorded at gomaxprocs 1) and a parallel pass at
// GOMAXPROCS=NumCPU, which lets the query executor fan candidate runs
// out across cores. The derived parallel_speedup_* ratios quantify what
// the worker pool buys on the current hardware.
//
// The scenario bodies live in internal/benchscen and are shared with
// the `go test -bench` wrappers, so this report and the in-tree
// benchmarks measure the same code.
//
//	go run ./cmd/bench                 # full size, ~1s per benchmark
//	go run ./cmd/bench -quick          # smoke mode on a small database
//	go run ./cmd/bench -o bench.json
//	go run ./cmd/bench -cpuprofile cpu.pb -memprofile mem.pb
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"

	"probprune"
	"probprune/internal/benchscen"
)

type benchResult struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

type report struct {
	PR int    `json:"pr"`
	Go string `json:"go"`
	// GOMAXPROCS is the setting of the serial pass (always 1); NumCPU is
	// what the parallel pass ran at.
	GOMAXPROCS int  `json:"gomaxprocs"`
	NumCPU     int  `json:"num_cpu"`
	DBSize     int  `json:"db_size"`
	Quick      bool `json:"quick"`
	// Benchmarks is the serial (GOMAXPROCS=1) pass — comparable with the
	// BENCH_PR*.json history; Parallel is the same scenario set at
	// GOMAXPROCS=NumCPU.
	Benchmarks []benchResult      `json:"benchmarks"`
	Parallel   []benchResult      `json:"parallel"`
	Derived    map[string]float64 `json:"derived"`
}

// scenario pairs a report row name with its benchscen body.
type scenario struct {
	name string
	fn   func(b *testing.B, db probprune.Database)
}

func scenarios() []scenario {
	return []scenario{
		{"EngineKNN", benchscen.EngineKNN},
		{"StoreWarmKNN", benchscen.StoreWarmKNN},
		{"StoreWarmKNNRecorderArmed", benchscen.StoreWarmKNNRecorderArmed},
		{"StoreWarmKNNTraced", benchscen.StoreWarmKNNTraced},
		{"StoreBatchKNN16", benchscen.StoreBatchKNN16},
		{"IndexBulkLoad", benchscen.IndexBulkLoad},
		{"CQMaintain", benchscen.CQMaintain},
		{"CQRequery", benchscen.CQRequery},
		{"ShardedBatchKNN1", benchscen.ServingBatchKNN(1)},
		{"ShardedBatchKNN8", benchscen.ServingBatchKNN(8)},
		{"ShardedBuild1", benchscen.StoreBuild(1)},
		{"ShardedBuild8", benchscen.StoreBuild(8)},
		{"WALIngest", benchscen.WALIngest},
		{"RecoveryCold", benchscen.RecoveryCold},
		{"RecoveryCheckpoint", benchscen.RecoveryCheckpoint},
		{"DurableIngestSerial", benchscen.DurableIngestSerial},
		{"DurableIngestGroupCommit", benchscen.DurableIngestGroupCommit},
		{"CheckpointUnderLoad", benchscen.CheckpointUnderLoad},
	}
}

// runPass measures every scenario at the current GOMAXPROCS setting.
func runPass(label string, db probprune.Database) []benchResult {
	out := make([]benchResult, 0, len(scenarios()))
	for _, s := range scenarios() {
		res := testing.Benchmark(func(b *testing.B) { s.fn(b, db) })
		br := benchResult{
			Name:        s.name,
			Iterations:  res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		if len(res.Extra) > 0 {
			br.Metrics = map[string]float64{}
			for k, v := range res.Extra {
				br.Metrics[k] = v
			}
		}
		out = append(out, br)
		fmt.Printf("%-8s %-20s %12.0f ns/op %8d allocs/op  %v\n",
			label, s.name, br.NsPerOp, br.AllocsPerOp, br.Metrics)
	}
	return out
}

func find(rs []benchResult, name string) benchResult {
	for _, r := range rs {
		if r.Name == name {
			return r
		}
	}
	return benchResult{}
}

func main() {
	out := flag.String("o", "BENCH_PR10.json", "output file")
	quick := flag.Bool("quick", false, "smoke mode: small database, cheap CI run (numbers not comparable with full runs)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile covering both benchmark passes to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the passes to this file")
	flag.Parse()
	dbSize := 1000
	if *quick {
		dbSize = 150
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	db := benchscen.MustDB(dbSize)
	rep := report{
		PR:         10,
		Go:         runtime.Version(),
		GOMAXPROCS: 1,
		NumCPU:     runtime.NumCPU(),
		DBSize:     dbSize,
		Quick:      *quick,
		Derived:    map[string]float64{},
	}

	// Serial pass: pinned to one CPU so numbers line up with the
	// BENCH_PR*.json history.
	prev := runtime.GOMAXPROCS(1)
	rep.Benchmarks = runPass("serial", db)
	runtime.GOMAXPROCS(prev)

	// Parallel pass: all cores; the executor's candidate fan-out and the
	// sharded scatter-gather get to use them.
	runtime.GOMAXPROCS(runtime.NumCPU())
	rep.Parallel = runPass("parallel", db)
	runtime.GOMAXPROCS(prev)

	maintain := find(rep.Benchmarks, "CQMaintain")
	requery := find(rep.Benchmarks, "CQRequery")
	sharded1 := find(rep.Benchmarks, "ShardedBatchKNN1")
	sharded8 := find(rep.Benchmarks, "ShardedBatchKNN8")
	build1 := find(rep.Benchmarks, "ShardedBuild1")
	build8 := find(rep.Benchmarks, "ShardedBuild8")
	cold := find(rep.Benchmarks, "RecoveryCold")
	ckpt := find(rep.Benchmarks, "RecoveryCheckpoint")

	if m, r := maintain.Metrics["idca-runs/op"], requery.Metrics["idca-runs/op"]; m > 0 {
		rep.Derived["cq_idca_run_ratio"] = r / m
	}
	if maintain.NsPerOp > 0 {
		rep.Derived["cq_wall_speedup"] = requery.NsPerOp / maintain.NsPerOp
	}
	if sharded8.NsPerOp > 0 {
		rep.Derived["sharded_batchknn_speedup_8x"] = sharded1.NsPerOp / sharded8.NsPerOp
	}
	if build8.NsPerOp > 0 {
		rep.Derived["sharded_build_speedup_8x"] = build1.NsPerOp / build8.NsPerOp
	}
	if ckpt.NsPerOp > 0 {
		rep.Derived["recovery_checkpoint_speedup"] = cold.NsPerOp / ckpt.NsPerOp
	}
	serialFsync := find(rep.Benchmarks, "DurableIngestSerial")
	groupCommit := find(rep.Benchmarks, "DurableIngestGroupCommit")
	ckLoad := find(rep.Benchmarks, "CheckpointUnderLoad")
	if groupCommit.NsPerOp > 0 {
		rep.Derived["group_commit_speedup"] = serialFsync.NsPerOp / groupCommit.NsPerOp
	}
	rep.Derived["checkpoint_load_p99_commit_ns"] = ckLoad.Metrics["p99-commit-ns"]
	rep.Derived["checkpoint_load_max_commit_ns"] = ckLoad.Metrics["max-commit-ns"]
	warm := find(rep.Benchmarks, "StoreWarmKNN")
	armed := find(rep.Benchmarks, "StoreWarmKNNRecorderArmed")
	traced := find(rep.Benchmarks, "StoreWarmKNNTraced")
	if warm.NsPerOp > 0 {
		rep.Derived["recorder_armed_overhead"] = armed.NsPerOp / warm.NsPerOp
		rep.Derived["trace_on_overhead"] = traced.NsPerOp / warm.NsPerOp
	}
	// Serial-vs-parallel speedup per scenario (same binary, same data,
	// only GOMAXPROCS differs).
	for _, s := range rep.Benchmarks {
		if p := find(rep.Parallel, s.Name); p.NsPerOp > 0 {
			rep.Derived["parallel_speedup_"+s.Name] = s.NsPerOp / p.NsPerOp
		}
	}
	fmt.Printf("derived: %v\n", rep.Derived)

	// Report assertions: the durability work must actually be off the
	// write path, not just present.
	failed := false
	assert := func(name string, ok bool, detail string) {
		status := "PASS"
		if !ok {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("assert %-44s %s  (%s)\n", name, status, detail)
	}
	assert("group_commit_speedup >= 3",
		rep.Derived["group_commit_speedup"] >= 3,
		fmt.Sprintf("serial %.0f ns/op, grouped %.0f ns/op, speedup %.2fx",
			serialFsync.NsPerOp, groupCommit.NsPerOp, rep.Derived["group_commit_speedup"]))
	// A synchronous checkpoint at CheckpointEvery=64 would put a full
	// database encode (milliseconds) inside >1% of commits; with the
	// install off the write path the p99 stays in commit territory.
	assert("checkpoint_load_p99_commit_ns < 2ms",
		rep.Derived["checkpoint_load_p99_commit_ns"] > 0 &&
			rep.Derived["checkpoint_load_p99_commit_ns"] < 2e6,
		fmt.Sprintf("p99 %.0f ns, max %.0f ns",
			rep.Derived["checkpoint_load_p99_commit_ns"], rep.Derived["checkpoint_load_max_commit_ns"]))
	// The flight recorder must be free when dormant: serving with the
	// recorder installed but no TRACE flag stays within measurement noise
	// of the plain warm-store path.
	assert("recorder_armed_overhead < 1.5",
		rep.Derived["recorder_armed_overhead"] > 0 &&
			rep.Derived["recorder_armed_overhead"] < 1.5,
		fmt.Sprintf("plain %.0f ns/op, recorder armed %.0f ns/op, ratio %.2fx",
			warm.NsPerOp, armed.NsPerOp, rep.Derived["recorder_armed_overhead"]))

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
	if failed {
		log.Fatal("bench-report assertions failed")
	}
}
