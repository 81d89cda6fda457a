package probprune_test

import (
	"fmt"
	"os"

	"probprune"
)

// The tight domination criterion decides "is A closer to R than B in
// every possible world?" on whole uncertainty regions, without touching
// any probability density.
func ExampleDominates() {
	// A and B sit on the x-axis with a tall reference strip between
	// them: for every fixed location of R, A is closer — the tight
	// criterion sees it, the min/max approximation does not.
	a := probprune.Rect{Min: probprune.Point{0, 0}, Max: probprune.Point{0.1, 0}}
	b := probprune.Rect{Min: probprune.Point{3, 0}, Max: probprune.Point{3.1, 0}}
	r := probprune.Rect{Min: probprune.Point{1, 0}, Max: probprune.Point{1.2, 5}}

	fmt.Println(probprune.Dominates(probprune.L2, a, b, r))
	fmt.Println(probprune.DominatesMinMax(probprune.L2, a, b, r))
	// Output:
	// true
	// false
}

// Run bounds the domination count PDF of a target object: how many
// database objects are closer to the reference than the target is.
func ExampleRun() {
	// Certain points make the count deterministic: two objects are
	// closer to the reference than the target, one is farther.
	ref := probprune.PointObject(10, probprune.Point{0, 0})
	target := probprune.PointObject(0, probprune.Point{3, 0})
	db := probprune.Database{
		target,
		probprune.PointObject(1, probprune.Point{1, 0}),
		probprune.PointObject(2, probprune.Point{0, 2}),
		probprune.PointObject(3, probprune.Point{9, 9}),
	}

	res := probprune.Run(db, target, ref, probprune.Options{})
	fmt.Println("complete dominators:", res.CompleteDominators)
	fmt.Println("pruned:", res.Pruned)
	iv := res.Bound(2)
	fmt.Printf("P(count = 2) in [%.0f, %.0f]\n", iv.LB, iv.UB)
	// Output:
	// complete dominators: 2
	// pruned: 1
	// P(count = 2) in [1, 1]
}

// ExpectedRankBounds turns a domination-count result into bounds on the
// object's expected similarity rank.
func ExampleExpectedRankBounds() {
	ref := probprune.PointObject(10, probprune.Point{0, 0})
	target := probprune.PointObject(0, probprune.Point{2, 0})
	db := probprune.Database{
		target,
		probprune.PointObject(1, probprune.Point{1, 0}),
		probprune.PointObject(2, probprune.Point{5, 0}),
	}
	res := probprune.Run(db, target, ref, probprune.Options{})
	lo, hi := probprune.ExpectedRankBounds(res)
	fmt.Printf("E[rank] in [%.0f, %.0f]\n", lo, hi)
	// Output:
	// E[rank] in [2, 2]
}

// OpenStore recovers a durable store from its journal directory:
// bootstrap once, commit (each mutation journaled before it applies),
// close — then reopen and find the exact same database.
func ExampleOpenStore() {
	dir, _ := os.MkdirTemp("", "probprune-example-*")
	defer os.RemoveAll(dir)
	popts := probprune.PersistOptions{Dir: dir}

	db := probprune.Database{
		probprune.PointObject(0, probprune.Point{1, 0}),
		probprune.PointObject(1, probprune.Point{2, 0}),
	}
	store, _ := probprune.BootstrapStore(db, popts, probprune.Options{})
	store.Insert(probprune.PointObject(2, probprune.Point{3, 0}))
	store.Delete(0) // found, journaled: true, nil
	store.Close()

	reopened, _ := probprune.OpenStore(popts, probprune.Options{})
	defer reopened.Close()
	fmt.Println("objects:", reopened.Len(), "version:", reopened.Version())
	q := probprune.PointObject(-1, probprune.Point{0, 0})
	for _, m := range reopened.KNN(q, 1, 0.5) {
		if m.IsResult {
			fmt.Println("nearest neighbor:", m.Object.ID)
		}
	}
	// Output:
	// objects: 2 version: 2
	// nearest neighbor: 1
}
