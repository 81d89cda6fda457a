package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"probprune/internal/geom"
	"probprune/internal/uncertain"
	"probprune/internal/workload"
)

// TestMain lets the test binary stand in for udbquery: with
// UDBQUERY_RUN_MAIN set it runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("UDBQUERY_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// udbquery runs main in a child process on args and returns its exit
// code and standard error.
func udbquery(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "UDBQUERY_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stderr.String()
}

// TestRefusesBadDatabase: a dataset file the store refuses is reported
// and exits 1. A mixed-dimension file used to crash the first query in
// a filter worker; duplicate IDs used to print contradictory matches
// for one object.
func TestRefusesBadDatabase(t *testing.T) {
	point := func(id int, p geom.Point) *uncertain.Object {
		o, err := uncertain.NewObject(id, []geom.Point{p})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	for _, tc := range []struct {
		name, want string
		db         uncertain.Database
		code       int
	}{
		{"valid", "", uncertain.Database{point(1, geom.Point{0.1, 0.1}), point(2, geom.Point{0.2, 0.2})}, 0},
		{"mixed", "dimensions", uncertain.Database{point(1, geom.Point{0.1, 0.1}), point(2, geom.Point{0.2, 0.2, 0.2})}, 1},
		{"duplicate", "duplicate object ID 1", uncertain.Database{point(1, geom.Point{0.1, 0.1}), point(1, geom.Point{0.2, 0.2})}, 1},
	} {
		path := filepath.Join(t.TempDir(), tc.name+".udb")
		if err := workload.SaveFile(path, tc.db); err != nil {
			t.Fatal(err)
		}
		code, stderr := udbquery(t, "-db", path, "-at", "0.15,0.15")
		if code != tc.code || !strings.Contains(stderr, tc.want) {
			t.Fatalf("%s: exit %d, stderr %q; want exit %d and %q", tc.name, code, stderr, tc.code, tc.want)
		}
	}
}
