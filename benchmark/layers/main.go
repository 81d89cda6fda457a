// Command layers is the benchmark's traced run: it replays a workload's
// seeded op list in process, timing only calls into each layer's public
// API, and prints one per-layer metric per line of work the wire path
// does. It imports the repository's packages on purpose — when a layer's
// API moves, this file moves with it and the e2e gate is unaffected.
//
// It is also the oracle: the ids every wire reply of e2e's warm-up pass
// called results must be the ids the same query returns in process.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"probprune/benchmark/ops"
	"probprune/internal/server"
	"probprune/internal/uncertain"
	"probprune/internal/workload"
)

// span is one timed call: its layer metric's name, start and end in
// nanoseconds since the run began, the span that caused it (-1: none)
// and the op it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// begin opens a span and returns its index, for end and for children.
func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// call times fn as a child span.
func (t *tracer) call(name string, parent, op int, fn func()) {
	i := t.begin(name, parent, op)
	fn()
	t.end(i)
}

// medianOf is the median duration of the named spans, in unit.
func (t *tracer) medianOf(name string, unit time.Duration) float64 {
	var d []float64
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, float64(s.End-s.Start))
		}
	}
	if len(d) == 0 {
		return 0
	}
	sort.Float64s(d)
	return d[len(d)/2] / float64(unit)
}

// run is one layers invocation.
type run struct {
	w       ops.Workload
	seed    int64
	db      uncertain.Database
	work    string
	tr      *tracer
	oracle  ops.Oracle
	metrics map[string]float64
	// mismatch is the first disagreement with the wire pass, if any.
	mismatch string
}

func (r *run) fail(format string, args ...any) {
	if r.mismatch == "" {
		r.mismatch = fmt.Sprintf(format, args...)
	}
}

// report names a metric as the median of its spans.
func (r *run) report(name string, unit time.Duration) {
	r.metrics[name] = r.tr.medianOf(name, unit)
}

func (r *run) decode(payload []byte) *uncertain.Object {
	o, err := server.DecodeObject(payload)
	if err != nil {
		panic(fmt.Sprintf("layers: op list carries an undecodable object: %v", err))
	}
	return o
}

// wireDB is the database as e2e sees it: objects in wire form, indexed
// by id.
func (r *run) wireDB() []ops.Object {
	out := make([]ops.Object, len(r.db))
	for _, o := range r.db {
		w, err := ops.ParseObject(server.EncodeObject(o))
		if err != nil {
			panic(fmt.Sprintf("layers: %v", err))
		}
		out[w.ID] = w
	}
	return out
}

func main() {
	r := &run{tr: &tracer{t0: time.Now()}, metrics: map[string]float64{}}
	var (
		name     = flag.String("workload", "", "workload to replay")
		n        = flag.Int("n", 0, "database size override")
		perRound = flag.Int("per-round", 0, "ops per round, as e2e ran them")
		dbPath   = flag.String("db", "", "udbgen dataset e2e served")
		oracle   = flag.String("oracle", "", "what e2e's warm-up pass saw on the wire")
		spans    = flag.String("spans", "", "write the spans here as JSON")
	)
	flag.Int64Var(&r.seed, "seed", 1, "seed of the op lists (the dataset comes from -db)")
	flag.StringVar(&r.work, "work", "", "scratch directory (durable store, journal)")
	flag.Parse()
	w, ok := ops.Find(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "layers: unknown -workload %q\n", *name)
		os.Exit(2)
	}
	if *n > 0 {
		w.N = *n
	}
	if *perRound > 0 {
		w.PerRound = *perRound
	}
	r.w = w
	if err := r.main(*dbPath, *oracle, *spans); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}

func (r *run) main(dbPath, oraclePath, spansPath string) error {
	var err error
	if r.db, err = workload.LoadFile(dbPath); err != nil {
		return err
	}
	b, err := os.ReadFile(oraclePath)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &r.oracle); err != nil {
		return fmt.Errorf("%s: %w", oraclePath, err)
	}
	switch {
	case r.w.Subs > 0:
		err = r.pushFanout()
	case r.w.Durable:
		err = r.writeDurable()
	default:
		err = r.knn()
	}
	if err != nil {
		return err
	}
	if spansPath != "" {
		b, err := json.Marshal(r.tr.spans)
		if err != nil {
			return err
		}
		if err := os.WriteFile(spansPath, b, 0o644); err != nil {
			return err
		}
	}
	out, err := json.Marshal(map[string]any{"oracle_ok": r.mismatch == "", "note": r.mismatch, "metrics": r.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
