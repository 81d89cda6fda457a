// Package benchmark_test lints BENCHMARK.json against the builder
// contract and smoke-runs every workload at toy size. Run it with
// `go test -C benchmark ./...` from the repository root.
package benchmark_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"probprune/benchmark/ops"
)

type metric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

const manifestPath = "../BENCHMARK.json"

func loadManifest(t *testing.T) (manifest, []byte) {
	t.Helper()
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m, raw
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// TestManifestMeetsContract checks every limit the driver refuses a
// manifest over, before it makes a single run.
func TestManifestMeetsContract(t *testing.T) {
	m, raw := loadManifest(t)
	if len(raw) > 64<<10 {
		t.Errorf("manifest is %d bytes, over 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("manifest lacks key %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("manifest has %d keys, want exactly 6", len(keys))
	}

	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", m.Paths)
	}
	for _, p := range m.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q is not a plain relative path", p)
		}
	}
	if n := len(m.Command); n < 1 || n > 32 {
		t.Errorf("command has %d strings", n)
	}
	for _, c := range m.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q is too long or leaves the checkout", c)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", m.RunSeconds)
	}
	if m.RunSeconds != ops.DefaultSeconds {
		t.Errorf("run_seconds = %d, but the op lists are sized for %d", m.RunSeconds, ops.DefaultSeconds)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q breaks the name charset", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if len(m.Workloads) != len(ops.Workloads) {
		t.Fatalf("manifest names %d workloads, the harness runs %d", len(m.Workloads), len(ops.Workloads))
	}
	for i, w := range m.Workloads {
		name("workload", w.Name)
		if w.Name != ops.Workloads[i].Name {
			t.Errorf("workload %d is %q in the manifest, %q in the harness", i, w.Name, ops.Workloads[i].Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s needs a one-line reason of at most 200 characters", w.Name)
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	hasSetup := false
	check := func(kind string, d metric) {
		name(kind, d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q breaks the unit charset", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range m.EndToEnd {
		check("end-to-end", d)
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", d.Name)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, d := range m.PerLayer {
		check("per-layer", d)
		if d.Bound != nil {
			t.Errorf("%s: per-layer metrics carry no bound", d.Name)
		}
	}
}

func build(t *testing.T, dir, out string, pkgs ...string) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"build", "-o", out + string(filepath.Separator)}, pkgs...)...)
	cmd.Dir = dir
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %v: %v\n%s", pkgs, err, b)
	}
}

// TestSmokeEveryWorkload runs each workload at toy size, trace off and
// on, and holds the output to the contract: the last line is the result
// object, it names exactly the declared metrics with their units, and
// the table above it prints each name once.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns udbserver")
	}
	m, _ := loadManifest(t)
	root := t.TempDir()
	bin := filepath.Join(root, "bin")
	build(t, "..", bin, "./cmd/udbserver", "./cmd/udbgen")
	build(t, ".", bin, "./e2e", "./layers")

	for _, w := range m.Workloads {
		for trace, declared := range [][]metric{m.EndToEnd, m.PerLayer} {
			cmd := exec.Command(filepath.Join(bin, "e2e"), "-bin", bin, "-manifest", manifestPath,
				"-n", "300", "-per-round", "32", "-max-rounds", "2",
				"--workload", w.Name, "--seed", "7", "--seconds", "1", "--trace", []string{"0", "1"}[trace])
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace %d: %v\n%s", w.Name, trace, err, stderr.String())
			}
			lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
			var res struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace %d: last line is not the result object: %v\n%s", w.Name, trace, err, out)
			}
			if res.Correct == nil || res.Attempted == nil || res.Failed == nil || res.Metrics == nil {
				t.Fatalf("%s trace %d: result lacks a key: %s", w.Name, trace, lines[len(lines)-1])
			}
			if !*res.Correct || *res.Failed != 0 || *res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d\n%s", w.Name, trace, *res.Correct, *res.Attempted, *res.Failed, out)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace %d: %d metrics printed, %d declared", w.Name, trace, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				got, ok := res.Metrics[d.Name]
				if !ok || got.Value == nil || got.Unit != d.Unit {
					t.Errorf("%s trace %d: metric %s missing or not in %s", w.Name, trace, d.Name, d.Unit)
				}
				n := 0
				for _, l := range lines[:len(lines)-1] {
					if f := strings.Fields(l); len(f) >= 2 && f[0] == d.Name && f[1] == d.Unit {
						n++
					}
				}
				if n != 1 {
					t.Errorf("%s trace %d: table prints %s %d times", w.Name, trace, d.Name, n)
				}
			}
		}
	}
}
