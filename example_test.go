package probprune_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"probprune"
)

// A probabilistic threshold kNN query: which objects are among the 5
// nearest neighbors of (0.5, 0.5) with probability at least 50%? The
// filter step decides almost every candidate geometrically; refinement
// tightens the bounds of the rest.
func ExampleEngine_KNN() {
	// 500 objects in the unit square, each a rectangle of side up to
	// 0.02 carrying a uniform density discretized to 32 samples.
	db, _ := probprune.Synthetic(probprune.SyntheticConfig{N: 500, MaxExtent: 0.02, Samples: 32, Seed: 7})
	engine, _ := probprune.NewEngine(db, probprune.Options{MaxIterations: 6})

	q := probprune.PointObject(-1, probprune.Point{0.5, 0.5})
	matches := engine.KNN(q, 5, 0.5)
	undecided := 0
	for _, m := range matches {
		switch {
		case !m.Decided:
			undecided++
		case m.IsResult:
			fmt.Printf("object %d: P(5NN) in [%.3f, %.3f]\n", m.Object.ID, m.Prob.LB, m.Prob.UB)
		}
	}
	fmt.Println("undecided:", undecided)
	// Output:
	// object 29: P(5NN) in [1.000, 1.000]
	// object 94: P(5NN) in [0.812, 1.000]
	// object 123: P(5NN) in [0.750, 1.000]
	// object 259: P(5NN) in [1.000, 1.000]
	// object 334: P(5NN) in [0.576, 0.935]
	// undecided: 0
}

// A probabilistic reverse kNN query (Corollary 5): sensors report
// (temperature, humidity) readings with hardware-dependent noise, and a
// new, still uncalibrated probe asks which sensors have it among their
// 3 most similar peers with probability at least 25% — the sensors it
// can cross-validate.
func ExampleEngine_RKNN() {
	rng := rand.New(rand.NewSource(21))
	regimes := []probprune.Point{{22, 40}, {17, 60}, {30, 30}} // office, cold aisle, rooftop
	var db probprune.Database
	for i := 0; i < 60; i++ {
		reg := regimes[rng.Intn(len(regimes))]
		mean := probprune.Point{reg[0] + rng.NormFloat64()*2, reg[1] + rng.NormFloat64()*5}
		db = append(db, sensor(i, mean, 0.2+rng.Float64()*0.6, rng))
	}
	probe := sensor(-1, probprune.Point{22.5, 41}, 0.4, rng)

	engine, _ := probprune.NewEngine(db, probprune.Options{MaxIterations: 6})
	for _, m := range engine.RKNN(probe, 3, 0.25) {
		if m.Decided && m.IsResult {
			fmt.Printf("sensor %d: P in [%.3f, %.3f]\n", m.Object.ID, m.Prob.LB, m.Prob.UB)
		}
	}
	// Output:
	// sensor 3: P in [0.316, 0.479]
	// sensor 38: P in [0.653, 1.000]
	// sensor 44: P in [0.414, 0.989]
	// sensor 48: P in [0.269, 0.269]
	// sensor 54: P in [0.312, 1.000]
}

// sensor is a reading with Gaussian noise sigma, truncated to ±3 sigma.
func sensor(id int, mean probprune.Point, sigma float64, rng *rand.Rand) *probprune.Object {
	region := probprune.Rect{
		Min: probprune.Point{mean[0] - 3*sigma, mean[1] - 3*sigma},
		Max: probprune.Point{mean[0] + 3*sigma, mean[1] + 3*sigma},
	}
	o, err := probprune.Realize(id, probprune.TruncatedGaussian{
		Mean: mean, Sigma: []float64{sigma, sigma}, Region: region,
	}, 24, rng)
	if err != nil {
		panic(err)
	}
	return o
}

// A probabilistic inverse ranking query (Corollary 3) on simulated
// iceberg sightings: a ship whose projected position is itself uncertain
// asks where the nearest berg ranks among all bergs by proximity.
func ExampleEngine_InverseRank() {
	db, _ := probprune.IcebergSim(probprune.IcebergConfig{N: 400, Samples: 32, Seed: 3})
	rng := rand.New(rand.NewSource(99))
	ship, _ := probprune.Realize(-1, probprune.TruncatedGaussian{
		Mean:   probprune.Point{0.45, 0.55},
		Sigma:  []float64{0.002, 0.002},
		Region: probprune.Rect{Min: probprune.Point{0.445, 0.545}, Max: probprune.Point{0.455, 0.555}},
	}, 32, rng)

	// The berg closest to the ship's uncertainty region.
	berg := db[0]
	for _, o := range db {
		if o.MBR.MinDistRect(probprune.L2, ship.MBR) < berg.MBR.MinDistRect(probprune.L2, ship.MBR) {
			berg = o
		}
	}
	engine, _ := probprune.NewEngine(db, probprune.Options{MaxIterations: 6})
	rd := engine.InverseRank(berg, ship)
	fmt.Printf("berg %d:\n", berg.ID)
	for i := rd.MinRank; i < rd.MinRank+len(rd.Ranks); i++ {
		if iv := rd.Bound(i); iv.UB >= 0.0005 {
			fmt.Printf("  P(rank = %d) in [%.3f, %.3f]\n", i, iv.LB, iv.UB)
		}
	}
	lo, hi := probprune.ExpectedRankBounds(rd.Result)
	fmt.Printf("  E[rank] in [%.3f, %.3f]\n", lo, hi)
	// Output:
	// berg 46:
	//   P(rank = 1) in [0.922, 0.922]
	//   P(rank = 2) in [0.078, 0.078]
	//   E[rank] in [1.078, 1.078]
}

// Expected-rank ranking (Corollary 6): cabs known only up to GPS noise
// plus drift since their last ping, ordered by expected proximity to a
// pickup. Dispatch is unambiguous when the front-runner's upper bound
// beats the runner-up's lower bound.
func ExampleEngine_RankByExpectedRank() {
	rng := rand.New(rand.NewSource(5))
	var db probprune.Database
	for i := 0; i < 80; i++ { // a 10 km x 10 km grid
		pos := probprune.Point{rng.Float64() * 10, rng.Float64() * 10}
		drift := 0.01 + 0.004*rng.Float64()*30 // km, grows with seconds since the ping
		region := probprune.Rect{
			Min: probprune.Point{pos[0] - drift, pos[1] - drift},
			Max: probprune.Point{pos[0] + drift, pos[1] + drift},
		}
		cab, _ := probprune.Realize(i, probprune.UniformBox{Rect: region}, 24, rng)
		db = append(db, cab)
	}
	pickup := probprune.PointObject(-1, probprune.Point{5, 5})

	engine, _ := probprune.NewEngine(db, probprune.Options{MaxIterations: 6})
	ranked := engine.RankByExpectedRank(pickup)
	for i, r := range ranked[:4] {
		fmt.Printf("%d. cab %d: E[rank] in [%.3f, %.3f]\n", i+1, r.Object.ID, r.ExpectedRankLB, r.ExpectedRankUB)
	}
	fmt.Println("unambiguous:", ranked[0].ExpectedRankUB < ranked[1].ExpectedRankLB)
	// Output:
	// 1. cab 66: E[rank] in [1.000, 1.000]
	// 2. cab 17: E[rank] in [2.069, 2.069]
	// 3. cab 76: E[rank] in [3.333, 3.333]
	// 4. cab 23: E[rank] in [4.215, 4.215]
	// unambiguous: true
}

// Progressive refinement: the bounds are correct at every IDCA level,
// so a caller steps the session and stops as soon as the answer is good
// enough — here, once the expected rank is pinned to within 1.
func ExampleNewSessionIndexed() {
	db, _ := probprune.Synthetic(probprune.SyntheticConfig{N: 1000, MaxExtent: 0.01, Samples: 64, Seed: 17})
	// A reference object and its 12th-closest target, so several
	// neighbors genuinely compete with it.
	qs := probprune.Queries(db, 1, 12, probprune.L2, 18)
	target, ref := qs[0].Target, qs[0].Reference

	session := probprune.NewSessionIndexed(probprune.NewIndex(db), target, ref, probprune.Options{Adaptive: true})
	res := session.Result()
	fmt.Printf("target %d, reference %d: %d influence objects, %d complete dominators\n",
		target.ID, ref.ID, len(res.Influence), res.CompleteDominators)
	for {
		lo, hi := probprune.ExpectedRankBounds(res)
		fmt.Printf("level %d: E[rank] in [%.3f, %.3f]\n", session.Level(), lo, hi)
		if hi-lo <= 1 || !session.Step() {
			break
		}
	}
	// Output:
	// target 845, reference 111: 5 influence objects, 9 complete dominators
	// level 0: E[rank] in [10.000, 15.000]
	// level 1: E[rank] in [10.750, 14.250]
	// level 2: E[rank] in [10.859, 13.465]
	// level 3: E[rank] in [11.068, 12.640]
	// level 4: E[rank] in [11.298, 12.127]
}

// A continuous query: a standing "which couriers are, with probability
// at least 60%, among the 3 nearest to the depot?" is maintained
// incrementally as position reports stream through the store, and the
// dispatcher's board is kept current purely from the event stream.
func ExampleNewMonitor() {
	rng := rand.New(rand.NewSource(42))
	courier := func(id int, x, y float64) *probprune.Object {
		noise := 0.004 + rng.Float64()*0.012
		pts := make([]probprune.Point, 8) // weighted alternative GPS fixes
		for i := range pts {
			pts[i] = probprune.Point{x + rng.NormFloat64()*noise, y + rng.NormFloat64()*noise}
		}
		o, _ := probprune.NewObject(id, pts)
		return o
	}
	pos := make([]probprune.Point, 40)
	db := make(probprune.Database, len(pos))
	for i := range db {
		pos[i] = probprune.Point{rng.Float64(), rng.Float64()}
		db[i] = courier(i, pos[i][0], pos[i][1])
	}
	store, _ := probprune.NewStore(db, probprune.Options{MaxIterations: 4})
	monitor := probprune.NewMonitor(store, probprune.MonitorOptions{Buffer: 256})
	defer monitor.Close()
	sub, _ := monitor.SubscribeKNN(probprune.PointObject(-1, probprune.Point{0.5, 0.5}), 3, 0.6)

	board := map[int]probprune.Interval{}
	drain := func() {
		for len(sub.Events()) > 0 {
			ev := <-sub.Events()
			switch ev.Kind {
			case probprune.ObjectLeft:
				delete(board, ev.Object.ID)
				fmt.Printf("v%d %s courier %d\n", ev.Version, ev.Kind, ev.Object.ID)
			default:
				board[ev.Object.ID] = ev.Match.Prob
				fmt.Printf("v%d %s courier %d: P in [%.3f, %.3f]\n",
					ev.Version, ev.Kind, ev.Object.ID, ev.Match.Prob.LB, ev.Match.Prob.UB)
			}
		}
	}
	drain()
	for round := 0; round < 2; round++ { // every courier reports a drifted position
		for i, p := range pos {
			p[0] += rng.NormFloat64() * 0.05
			p[1] += rng.NormFloat64() * 0.05
			store.Update(courier(i, p[0], p[1]))
		}
		monitor.Sync(context.Background())
		drain()
	}

	ids := make([]int, 0, len(board))
	for id := range board {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Printf("board: courier %d P in [%.3f, %.3f]\n", id, board[id].LB, board[id].UB)
	}
	// Output:
	// v0 entered courier 5: P in [0.750, 1.000]
	// v0 entered courier 11: P in [0.625, 1.000]
	// v0 entered courier 37: P in [1.000, 1.000]
	// v6 bounds courier 5: P in [1.000, 1.000]
	// v12 bounds courier 11: P in [1.000, 1.000]
	// v33 bounds courier 5: P in [0.875, 1.000]
	// v33 left courier 37
	// v38 bounds courier 5: P in [0.750, 1.000]
	// v38 entered courier 37: P in [0.875, 1.000]
	// v46 bounds courier 5: P in [0.797, 0.797]
	// v46 bounds courier 37: P in [0.750, 1.000]
	// v52 bounds courier 5: P in [1.000, 1.000]
	// v52 left courier 11
	// v52 entered courier 32: P in [1.000, 1.000]
	// v52 bounds courier 37: P in [1.000, 1.000]
	// board: courier 5 P in [1.000, 1.000]
	// board: courier 32 P in [1.000, 1.000]
	// board: courier 37 P in [1.000, 1.000]
}

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
