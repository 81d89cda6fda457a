package query

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/uncertain"
	"probprune/internal/workload"
)

// TestDurableShardedLifecycle drives the sharded durability surface the
// equivalence suite does not: explicit Checkpoint/Sync, the shard-count
// guard, bootstrap refusal, and post-Close mutation errors.
func TestDurableShardedLifecycle(t *testing.T) {
	db, _ := traceCase(t, 11, false)
	opts := core.Options{MaxIterations: 2}
	popts := PersistOptions{Dir: filepath.Join(t.TempDir(), "db")}

	mem, err := NewShardedStore(db, ShardedOptions{Shards: 2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Checkpoint(); err == nil || !strings.Contains(err.Error(), "not durable") {
		t.Fatalf("checkpoint on in-memory sharded store: %v", err)
	}
	if err := mem.Sync(); err != nil { // no journals: a no-op
		t.Fatal(err)
	}
	if err := mem.Close(); err != nil { // no journals: a no-op
		t.Fatal(err)
	}

	s, err := BootstrapShardedStore(db, popts, ShardedOptions{Shards: 3}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(uncertain.PointObject(9001, geom.Point{0.2, 0.2})); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A second bootstrap over the same directory must refuse.
	if _, err := BootstrapShardedStore(db, popts, ShardedOptions{Shards: 3}, opts); err == nil {
		t.Fatal("bootstrap over an existing sharded store succeeded")
	}
	// Exercise the query surface on the durable sharded store.
	q := uncertain.PointObject(-1, geom.Point{0.5, 0.5})
	snap := s.Snapshot()
	if snap.NumShards() != 3 || snap.cuts()[0] == nil || snap.Len() != s.Len() {
		t.Fatal("snapshot shape wrong")
	}
	must(snap.RankByExpectedRank(bg, q))
	must(snap.UKRanks(bg, q, 2))
	must(snap.BatchKNN(bg, []KNNRequest{{Q: q, K: 2, Tau: 0.5}}))
	must(snap.TopKNN(bg, q, 2, 3))
	must(snap.RKNN(bg, q, 2, 0.5))
	must(snap.KNN(bg, q, 2, 0.5))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(uncertain.PointObject(9002, geom.Point{0.1, 0.1})); err == nil {
		t.Fatal("insert after Close succeeded")
	}
	if err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint after Close succeeded")
	}

	// Reopen with a contradicting shard count: refused.
	if _, err := OpenShardedStore(popts, ShardedOptions{Shards: 5}, opts); err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
	// Reopen with the checkpoint's count inferred (Shards: 0).
	r, err := OpenShardedStore(popts, ShardedOptions{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumShards() != 3 {
		t.Fatalf("recovered %d shards, want 3", r.NumShards())
	}
}

// TestDeleteErrAndChangeKinds covers the journal-aware delete variant
// and the Change/ChangeKind accessors.
func TestDeleteErrAndChangeKinds(t *testing.T) {
	db, _ := traceCase(t, 13, false)
	s, err := BootstrapStore(db, PersistOptions{Dir: filepath.Join(t.TempDir(), "db")}, core.Options{MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ok, err := s.Delete(db[0].ID)
	if !ok || err != nil {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	ok, err = s.Delete(db[0].ID)
	if ok || err != nil {
		t.Fatalf("second Delete = %v, %v", ok, err)
	}
	for kind, want := range map[ChangeKind]string{
		ChangeInsert: "insert", ChangeUpdate: "update", ChangeDelete: "delete", ChangeKind(9): "unknown",
	} {
		if kind.String() != want {
			t.Fatalf("%d.String() = %q", kind, kind.String())
		}
	}
}

// TestOpenFollowsDirectoryLayout: the directory, not the constructor,
// decides the layout. Over a 50-object store of one layout, every open
// or bootstrap asking for the other either recovers all 50 objects in
// the on-disk layout or fails naming the mismatch — none opens an empty
// store, none writes a journal beside the existing one.
func TestOpenFollowsDirectoryLayout(t *testing.T) {
	db, err := workload.Synthetic(workload.SyntheticConfig{N: 50, Samples: 4, MaxExtent: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{MaxIterations: 2}
	files := func(dir string) []string {
		var out []string
		filepath.Walk(dir, func(path string, _ os.FileInfo, _ error) error {
			out = append(out, path)
			return nil
		})
		return out
	}
	for _, tc := range []struct {
		name    string
		written int
		open    func(PersistOptions) (*Store, error)
		wantErr string
	}{
		{"open-4-over-1", 1, func(p PersistOptions) (*Store, error) {
			return OpenShardedStore(p, ShardedOptions{Shards: 4}, opts)
		}, "holds a 1-shard store, options ask for 4"},
		{"open-store-over-4", 4, func(p PersistOptions) (*Store, error) { return OpenStore(p, opts) }, ""},
		{"bootstrap-4-over-1", 1, func(p PersistOptions) (*Store, error) {
			return BootstrapShardedStore(db, p, ShardedOptions{Shards: 4}, opts)
		}, "holds a 1-shard store"},
		{"bootstrap-store-over-4", 4, func(p PersistOptions) (*Store, error) { return BootstrapStore(db, p, opts) }, "holds a 4-shard store"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			popts := PersistOptions{Dir: filepath.Join(t.TempDir(), "db")}
			s, err := BootstrapShardedStore(db, popts, ShardedOptions{Shards: tc.written}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			before := files(popts.Dir)
			r, err := tc.open(popts)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
				}
				if strings.HasPrefix(tc.name, "bootstrap") && !errors.Is(err, ErrStoreExists) {
					t.Fatalf("bootstrap refusal %v is not ErrStoreExists", err)
				}
				if after := files(popts.Dir); !slices.Equal(after, before) {
					t.Fatalf("refusal changed the directory:\n before %v\n after  %v", before, after)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if r.Len() != len(db) || r.NumShards() != tc.written {
				t.Fatalf("recovered %d objects on %d shards, want %d on %d", r.Len(), r.NumShards(), len(db), tc.written)
			}
		})
	}
}
