package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"probprune/internal/core"
	"probprune/internal/query"
	"probprune/internal/workload"
)

// listing returns every path under dir, relative and sorted.
func listing(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.Walk(dir, func(path string, _ os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		out = append(out, rel)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(out)
	return out
}

// TestShardMismatchRefused: a -dir holding a store of one shard count
// and a -shards asking for another must refuse to start, naming the
// mismatch — never serve an empty store over the existing data, never
// journal beside it. The directory is left as it was and still
// recovers every object.
func TestShardMismatchRefused(t *testing.T) {
	db, err := workload.Synthetic(workload.SyntheticConfig{N: 50, Samples: 4, MaxExtent: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{MaxIterations: 3}
	for _, tc := range []struct{ written, asked int }{{1, 4}, {4, 1}} {
		dir := t.TempDir()
		popts := query.PersistOptions{Dir: dir}
		s, err := query.BootstrapShardedStore(db, popts, query.ShardedOptions{Shards: tc.written}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		before := listing(t, dir)

		errc := make(chan error, 1)
		go func() {
			errc <- run("127.0.0.1:0", dir, tc.asked, "os", 4096, 0, "", 3, 0, "", "off", 0, 0)
		}()
		select {
		case err := <-errc:
			want := fmt.Sprintf("holds a %d-shard store", tc.written)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("-shards %d over a %d-shard directory: error %v, want one containing %q", tc.asked, tc.written, err, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("udbserver started over a %d-shard directory with -shards %d", tc.written, tc.asked)
		}
		if after := listing(t, dir); !slices.Equal(after, before) {
			t.Fatalf("refused start changed the directory:\n before %v\n after  %v", before, after)
		}
		r, err := query.OpenStore(popts, opts)
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != len(db) || r.NumShards() != tc.written {
			t.Fatalf("directory recovers %d objects on %d shards, want %d on %d", r.Len(), r.NumShards(), len(db), tc.written)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
