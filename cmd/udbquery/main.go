// Command udbquery runs probabilistic similarity queries against a
// dataset written by udbgen.
//
// Usage:
//
//	udbquery -db synth.udb -query knn  -k 5 -tau 0.5 -at 0.5,0.5
//	udbquery -db synth.udb -query rknn -k 3 -tau 0.25 -target 42
//	udbquery -db synth.udb -query irank -target 42 -ref 7
//	udbquery -db synth.udb -query rank  -at 0.1,0.9 -top 10
//
// The query point (-at x,y) is used as a certain query object; -target
// and -ref select database objects by ID.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/obs"
	"probprune/internal/query"
	"probprune/internal/uncertain"
	"probprune/internal/workload"
)

func main() {
	var (
		dbPath     = flag.String("db", "", "dataset file written by udbgen (required)")
		queryKind  = flag.String("query", "knn", "query type: knn, rknn, irank, rank")
		k          = flag.Int("k", 5, "k parameter for knn/rknn")
		tau        = flag.Float64("tau", 0.5, "probability threshold for knn/rknn")
		at         = flag.String("at", "", "certain query point, comma-separated coordinates")
		targetID   = flag.Int("target", -1, "target object ID (irank; or query object for rknn)")
		refID      = flag.Int("ref", -1, "reference object ID (irank)")
		top        = flag.Int("top", 10, "number of entries to print for rank queries")
		iterations = flag.Int("iterations", 6, "max refinement iterations")
		trace      = flag.Bool("trace", false, "print the query's trace anatomy (candidates, prune economy, phase timings)")
	)
	flag.Parse()
	if *dbPath == "" {
		fmt.Fprintln(os.Stderr, "udbquery: -db is required")
		flag.Usage()
		os.Exit(2)
	}
	db, err := workload.LoadFile(*dbPath)
	if err != nil {
		fail("loading %s: %v", *dbPath, err)
	}
	engine, err := query.NewEngine(db, core.Options{MaxIterations: *iterations})
	if err != nil {
		fail("%s: %v", *dbPath, err)
	}

	// With -trace, thread an obs.Trace through the query context and
	// print its anatomy afterwards — the same snapshot the server ships
	// for a TRACE-flagged wire command.
	ctx := context.Background()
	var tr *obs.Trace
	if *trace {
		tr = &obs.Trace{}
		ctx = obs.WithTrace(ctx, tr)
	}

	switch *queryKind {
	case "knn":
		q := queryObject(db, *at, *targetID)
		matches, err := engine.KNNCtx(ctx, q, *k, *tau)
		if err != nil {
			fail("knn: %v", err)
		}
		printMatches(matches, *tau)
	case "rknn":
		q := queryObject(db, *at, *targetID)
		matches, err := engine.RKNNCtx(ctx, q, *k, *tau)
		if err != nil {
			fail("rknn: %v", err)
		}
		printMatches(matches, *tau)
	case "irank":
		target := byID(db, *targetID)
		ref := byID(db, *refID)
		rd := engine.InverseRank(target, ref)
		fmt.Printf("inverse ranking of object %d w.r.t. object %d:\n", target.ID, ref.ID)
		for i := rd.MinRank; i < rd.MinRank+len(rd.Ranks); i++ {
			iv := rd.Bound(i)
			if iv.UB == 0 {
				continue
			}
			fmt.Printf("  P(rank = %3d) in [%.4f, %.4f]\n", i, iv.LB, iv.UB)
		}
	case "rank":
		q := queryObject(db, *at, *targetID)
		ranked := engine.RankByExpectedRank(q)
		if *top < len(ranked) {
			ranked = ranked[:*top]
		}
		fmt.Println("objects by expected rank:")
		for i, r := range ranked {
			fmt.Printf("  %2d. object %4d  E[rank] in [%.3f, %.3f]\n",
				i+1, r.Object.ID, r.ExpectedRankLB, r.ExpectedRankUB)
		}
	default:
		fail("unknown -query %q", *queryKind)
	}
	if tr != nil {
		fmt.Printf("trace: %v\n", tr.Snapshot())
	}
}

func queryObject(db uncertain.Database, at string, targetID int) *uncertain.Object {
	if at != "" {
		parts := strings.Split(at, ",")
		p := make(geom.Point, len(parts))
		for i, s := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				fail("parsing -at: %v", err)
			}
			p[i] = v
		}
		return uncertain.PointObject(-1, p)
	}
	if targetID >= 0 {
		return byID(db, targetID)
	}
	fail("provide -at or -target to identify the query object")
	return nil
}

func byID(db uncertain.Database, id int) *uncertain.Object {
	for _, o := range db {
		if o.ID == id {
			return o
		}
	}
	fail("object %d not found", id)
	return nil
}

func printMatches(matches []query.Match, tau float64) {
	results := matches[:0:0]
	for _, m := range matches {
		if m.IsResult || !m.Decided {
			results = append(results, m)
		}
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Prob.LB > results[j].Prob.LB })
	fmt.Printf("%d qualifying objects (threshold %.2f):\n", len(results), tau)
	for _, m := range results {
		state := "result"
		if !m.Decided {
			state = "undecided"
		}
		fmt.Printf("  object %4d  P in [%.4f, %.4f]  %s (%d iterations)\n",
			m.Object.ID, m.Prob.LB, m.Prob.UB, state, m.Iterations)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "udbquery: "+format+"\n", args...)
	os.Exit(1)
}
