// Command e2e is the benchmark's load generator and its only gate: it
// spawns the real udbserver binary on data from udbgen, drives it over
// TCP using nothing but the CLI flags and docs/PROTOCOL.md, and prints
// the metrics BENCHMARK.json declares. See ../README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"

	"probprune/benchmark/ops"
)

// config is one run's fixed inputs.
type config struct {
	seed      int64
	seconds   float64 // measured run length
	maxRounds int
	trace     bool
	n         int    // database size override (0: the workload's own)
	perRound  int    // ops-per-round override (0: the workload's own)
	bin       string // directory holding udbserver, udbgen and layers
	work      string // this run's scratch directory
	dataset   string // udbgen output
}

func (c config) tool(name string) string { return filepath.Join(c.bin, name) }

// setups is how many times a run sets up. setup_s is the median of
// three; a traced run does not report it and sets up once, verifying
// the whole op list in that one warm-up.
func (c config) setups() int {
	if c.trace {
		return 1
	}
	return 3
}

// minRounds is how many rounds a closed loop runs however slow they
// are, so the quiet pool always has rounds to choose from.
func (c config) minRounds() int { return min(6, c.maxRounds) }

func (c config) oraclePath() string { return filepath.Join(c.work, "oracle.json") }

// saveOracle hands the warm-up pass's view to benchmark/layers.
func (c config) saveOracle(o ops.Oracle) error {
	b, err := json.Marshal(o)
	if err != nil {
		return err
	}
	return os.WriteFile(c.oraclePath(), b, 0o644)
}

// result is one run's measurements before they are named.
type result struct {
	rounds    []round
	setups    []float64 // seconds, one per set-up
	rssMB     float64
	attempted int
	failed    int
	// CPU spent over the timed rounds by this process and by the server.
	harnessCPUms, serverCPUms float64
	layer                     map[string]float64
	notes                     []string
}

func selfCPUms() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// manifest is BENCHMARK.json, the single list of metric names, units
// and bounds; the harness prints exactly what it declares.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadManifest(path string) (manifest, error) {
	var m manifest
	b, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(b, &m)
}

// runOne measures one workload and returns its end-to-end estimates
// (trace off) or per-layer values (trace on).
func runOne(w ops.Workload, cfg config) (map[string]estimate, *result, error) {
	if cfg.n > 0 {
		w.N = cfg.n
	}
	if cfg.perRound > 0 {
		w.PerRound = cfg.perRound
	}
	work, err := os.MkdirTemp(cfg.work, w.Name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(work)
	cfg.work = work
	cfg.dataset = filepath.Join(work, "data.udb")
	if _, err := runTool(cfg.tool("udbgen"), "-seed", strconv.FormatInt(cfg.seed, 10),
		"-n", strconv.Itoa(w.N), "-samples", strconv.Itoa(w.Samples),
		"-maxextent", strconv.FormatFloat(w.MaxExtent, 'g', -1, 64), "-o", cfg.dataset); err != nil {
		return nil, nil, err
	}

	var res *result
	if w.Subs > 0 {
		res, err = (&pushLoop{cfg: cfg, w: w}).run()
	} else {
		res, err = (&closedLoop{cfg: cfg, w: w, readOnly: !w.Durable}).run()
	}
	if err != nil {
		return nil, nil, err
	}
	if lim := w.MaxHarnessShare; lim > 0 && cfg.n == 0 && res.harnessCPUms > lim*res.serverCPUms {
		return nil, nil, fmt.Errorf("harness used %.0f ms CPU against the server's %.0f ms: more than %.0f%%",
			res.harnessCPUms, res.serverCPUms, lim*100)
	}

	est := summarize(res.rounds)
	setup := median(res.setups)
	est["setup_s"] = estimate{quiet: setup, median: setup}
	est["server_rss_mb"] = estimate{quiet: res.rssMB, median: res.rssMB}
	if cfg.trace {
		if err := runLayers(cfg, w, res); err != nil {
			return nil, nil, err
		}
	}
	return est, res, nil
}

// runLayers runs the in-process traced pass on the same seed and merges
// its metrics; it is also the oracle for the warm-up pass's replies.
func runLayers(cfg config, w ops.Workload, res *result) error {
	out, err := runTool(cfg.tool("layers"), "-workload", w.Name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-n", strconv.Itoa(w.N), "-per-round", strconv.Itoa(w.PerRound),
		"-db", cfg.dataset, "-oracle", cfg.oraclePath(), "-work", cfg.work,
		"-spans", filepath.Join(cfg.bin, "..", "spans-"+w.Name+".json"))
	if err != nil {
		return err
	}
	var rep struct {
		OracleOK bool               `json:"oracle_ok"`
		Note     string             `json:"note"`
		Metrics  map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(lastLine(out), &rep); err != nil {
		return fmt.Errorf("layers output: %w", err)
	}
	if !rep.OracleOK {
		res.notes = append(res.notes, "oracle: "+rep.Note)
		res.failed = res.attempted
	}
	for k, v := range rep.Metrics {
		res.layer[k] = v
	}
	return nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	return b[bytes.LastIndexByte(b, '\n')+1:]
}

// report prints the human table and, last, the contract's JSON line.
func report(m manifest, w ops.Workload, cfg config, est map[string]estimate, res *result) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]val{}
	fmt.Printf("workload %s  seed %d  rounds %d  quiet pool %d samples\n",
		w.Name, cfg.seed, len(res.rounds), len(pool(quietRounds(res.rounds)).lat))
	fmt.Print("round mean latency, ms:")
	for _, r := range res.rounds {
		fmt.Printf(" %.2f", mean(r.lat))
	}
	fmt.Print("\nquiet pool latency, ms:")
	quiet := pool(quietRounds(res.rounds)).lat
	for _, q := range []float64{0.5, 0.75, 0.9, 0.95, 0.99} {
		fmt.Printf(" p%.0f %.2f", q*100, quantile(quiet, q))
	}
	fmt.Println()
	if !cfg.trace {
		fmt.Printf("%-24s %-6s %14s %14s %8s\n", "metric", "unit", "quiet", "median", "noise")
		for _, d := range m.EndToEnd {
			e, ok := est[d.Name]
			if !ok {
				return fmt.Errorf("BENCHMARK.json declares %s, which the harness does not measure", d.Name)
			}
			fmt.Printf("%-24s %-6s %14.4f %14.4f %7.1f%%\n", d.Name, d.Unit, e.quiet, e.median, e.noise*100)
			metrics[d.Name] = val{e.quiet, d.Unit}
		}
		fmt.Printf("cpu over the timed rounds: harness %.0f ms, server %.0f ms (%.1f%%)\n",
			res.harnessCPUms, res.serverCPUms, 100*res.harnessCPUms/res.serverCPUms)
	} else {
		// A layer the workload does not run reports 0: the contract wants
		// every declared name on every workload.
		fmt.Printf("%-30s %-6s %14s\n", "layer metric", "unit", "value")
		for _, d := range m.PerLayer {
			v, ok := res.layer[d.Name]
			if ok {
				fmt.Printf("%-30s %-6s %14.4f\n", d.Name, d.Unit, v)
			} else {
				fmt.Printf("%-30s %-6s %14s\n", d.Name, d.Unit, "-")
			}
			metrics[d.Name] = val{v, d.Unit}
		}
		known := map[string]bool{}
		for _, d := range m.PerLayer {
			known[d.Name] = true
		}
		for k := range res.layer {
			if !known[k] {
				return fmt.Errorf("harness measures %s, which BENCHMARK.json does not declare", k)
			}
		}
	}
	for _, n := range res.notes {
		fmt.Println("FAILED:", n)
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.failed == 0, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// selfcheck runs two full sets back to back and fails, naming the
// metric, if any end-to-end cell of the second is worse than the first
// by more than its declared bound.
func selfcheck(m manifest, cfg config) error {
	var sets [2]map[string]map[string]estimate
	for s := range sets {
		sets[s] = map[string]map[string]estimate{}
		for _, w := range ops.Workloads {
			est, res, err := runOne(w, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			if res.failed > 0 {
				return fmt.Errorf("%s: %d of %d ops failed", w.Name, res.failed, res.attempted)
			}
			sets[s][w.Name] = est
		}
	}
	var bad []string
	for _, w := range ops.Workloads {
		fmt.Printf("%-14s %-22s %12s %12s %8s %7s   (median, noise of set 1)\n", w.Name, "metric", "set 1", "set 2", "worse", "bound")
		for _, d := range m.EndToEnd {
			a, b := sets[0][w.Name][d.Name], sets[1][w.Name][d.Name]
			worse := (b.quiet - a.quiet) / a.quiet
			if d.Better == "higher" {
				worse = -worse
			}
			fmt.Printf("%-14s %-22s %12.4f %12.4f %7.1f%% %6.0f%%   %.4f %.1f%%\n",
				"", d.Name, a.quiet, b.quiet, worse*100, d.Bound*100, a.median, a.noise*100)
			if worse > d.Bound {
				bad = append(bad, fmt.Sprintf("%s/%s worse by %.1f%% (bound %.0f%%)", w.Name, d.Name, worse*100, d.Bound*100))
			}
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("selfcheck: %v", bad)
	}
	fmt.Println("selfcheck: two sets agree within every bound")
	return nil
}

func main() {
	var (
		cfg       config
		workload  = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		trace     = flag.Int("trace", 0, "1: traced pass and in-process layer run, printing the per-layer metrics")
		mpath     = flag.String("manifest", "BENCHMARK.json", "benchmark manifest")
		all       = flag.Bool("all", false, "run every workload, trace off then on")
		selfCheck = flag.Bool("selfcheck", false, "run two full sets and compare them against the bounds")
	)
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the dataset and the op lists")
	flag.Float64Var(&cfg.seconds, "seconds", ops.DefaultSeconds, "measured run length")
	flag.IntVar(&cfg.n, "n", 0, "database size override (0: the workload's own)")
	flag.IntVar(&cfg.perRound, "per-round", 0, "ops-per-round override (0: the workload's own)")
	flag.IntVar(&cfg.maxRounds, "max-rounds", ops.MaxRounds, "most timed rounds a run measures")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory of the built udbserver, udbgen and layers")
	flag.Parse()
	cfg.trace = *trace == 1
	if err := run(cfg, *workload, *mpath, *all, *selfCheck); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

func run(cfg config, workload, mpath string, all, selfCheck bool) error {
	m, err := loadManifest(mpath)
	if err != nil {
		return err
	}
	if cfg.bin, err = filepath.Abs(cfg.bin); err != nil {
		return err
	}
	cfg.work = filepath.Join(filepath.Dir(cfg.bin), "run")
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	switch {
	case selfCheck:
		cfg.trace = false
		return selfcheck(m, cfg)
	case all:
		for _, w := range ops.Workloads {
			for _, cfg.trace = range []bool{false, true} {
				est, res, err := runOne(w, cfg)
				if err != nil {
					return fmt.Errorf("%s: %w", w.Name, err)
				}
				if err := report(m, w, cfg, est, res); err != nil {
					return err
				}
			}
		}
		return nil
	}
	w, ok := ops.Find(workload)
	if !ok {
		return errors.New("unknown --workload " + strconv.Quote(workload))
	}
	est, res, err := runOne(w, cfg)
	if err != nil {
		return err
	}
	return report(m, w, cfg, est, res)
}
