// Command udbgen generates uncertain databases and writes them in the
// repository's dataset format (gob, .udb), which udbquery, udbserver -db
// and cmd/experiments read.
//
// Usage:
//
//	udbgen -kind synthetic -n 10000 -samples 1000 -maxextent 0.004 -o synth.udb
//	udbgen -kind iceberg   -n 6216  -samples 1000 -o iceberg.udb
package main

import (
	"flag"
	"fmt"
	"os"

	"probprune/internal/uncertain"
	"probprune/internal/workload"
)

func main() {
	var (
		kind      = flag.String("kind", "synthetic", "dataset family: synthetic or iceberg")
		n         = flag.Int("n", 0, "number of objects (0 = family default)")
		samples   = flag.Int("samples", 0, "samples per object (0 = family default)")
		maxExtent = flag.Float64("maxextent", 0, "maximum object extent (0 = family default)")
		seed      = flag.Int64("seed", 1, "random seed")
		out       = flag.String("o", "", "output file (required)")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "udbgen: -o is required")
		flag.Usage()
		os.Exit(2)
	}

	var (
		db  uncertain.Database
		err error
	)
	switch *kind {
	case "synthetic":
		db, err = workload.Synthetic(workload.SyntheticConfig{
			N: *n, Samples: *samples, MaxExtent: *maxExtent, Seed: *seed,
		})
	case "iceberg":
		db, err = workload.IcebergSim(workload.IcebergConfig{
			N: *n, Samples: *samples, MaxExtent: *maxExtent, Seed: *seed,
		})
	default:
		fmt.Fprintf(os.Stderr, "udbgen: unknown -kind %q\n", *kind)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "udbgen: %v\n", err)
		os.Exit(1)
	}
	if err := workload.SaveFile(*out, db); err != nil {
		fmt.Fprintf(os.Stderr, "udbgen: writing %s: %v\n", *out, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d objects (%d samples each) to %s\n", len(db), db[0].NumSamples(), *out)
}
