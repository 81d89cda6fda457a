package probprune_test

import (
	"context"
	"reflect"
	"testing"

	"probprune"
)

// TestRootParallelAPI exercises the re-exported parallel/context entry
// points end to end: context variants return what the plain wrappers
// return, worker count does not change results, and a DecompCache
// plugged into a direct core run reproduces the private-decomposition
// bounds.
func TestRootParallelAPI(t *testing.T) {
	db, err := probprune.Synthetic(probprune.SyntheticConfig{N: 60, Samples: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	q := probprune.PointObject(-1, probprune.Point{0.5, 0.5})

	seq := newSnapshot(t, db, probprune.Options{MaxIterations: 4, Parallelism: 1})
	par := newSnapshot(t, db, probprune.Options{MaxIterations: 4, Parallelism: 4})
	a := must(seq.KNN(bg, q, 5, 0.5))
	b, err := par.KNN(context.Background(), q, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("KNN on 4 workers differs from sequential KNN")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if m, err := par.KNN(ctx, q, 5, 0.5); err == nil || m != nil {
		t.Fatalf("cancelled KNN returned matches=%v err=%v", m, err)
	}

	private := probprune.Run(db, db[0], q, probprune.Options{MaxIterations: 4})
	shared := probprune.Run(db, db[0], q, probprune.Options{MaxIterations: 4, SharedDecomps: probprune.NewDecompCache(0)})
	if !reflect.DeepEqual(private.Bounds, shared.Bounds) {
		t.Fatal("shared-decomposition run differs from private run")
	}
}
