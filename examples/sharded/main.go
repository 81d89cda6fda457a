// Sharded serving: a city-wide sensor grid is held by one Store of
// eight spatial-stripe shards — each with its own R-tree, object list
// and version — behind a scatter-gather router that keeps the one
// decomposition cache. Queries merge per-shard filter bounds
// canonically before any refinement runs, so the answers are
// bit-identical to a one-shard store (the example checks this on every
// query); mutations pay the copy-on-write detach of their home shard
// only; a standing subscription consumes the merged change stream; and
// an online rebalance re-homes sensors that drifted across stripe
// borders without disturbing any of it.
//
//	go run ./examples/sharded
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"reflect"

	"probprune"
)

const (
	sensors = 400
	shards  = 8
	k       = 4
	tau     = 0.5
)

func sensor(rng *rand.Rand, id int, cx, cy float64) *probprune.Object {
	pts := make([]probprune.Point, 8)
	for i := range pts {
		pts[i] = probprune.Point{cx + rng.NormFloat64()*0.01, cy + rng.NormFloat64()*0.01}
	}
	o, err := probprune.NewObject(id, pts)
	if err != nil {
		log.Fatal(err)
	}
	return o
}

func main() {
	rng := rand.New(rand.NewSource(7))

	pos := make([][2]float64, sensors)
	db := make(probprune.Database, sensors)
	for i := range db {
		pos[i] = [2]float64{rng.Float64(), rng.Float64()}
		db[i] = sensor(rng, i, pos[i][0], pos[i][1])
	}
	opts := probprune.Options{MaxIterations: 4}

	sharded, err := probprune.NewShardedStore(db,
		probprune.ShardedOptions{Shards: shards, Partition: probprune.StripeShards(0, 0, 1)}, opts)
	if err != nil {
		log.Fatal(err)
	}
	// The one-shard reference store — only here to demonstrate
	// bit-identity; a real deployment runs one or the other.
	reference, err := probprune.NewStore(db, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d sensors across %d spatial shards: %v\n\n", sharded.Len(), shards, sharded.ShardSizes())

	monitor := probprune.NewMonitor(sharded, probprune.MonitorOptions{Buffer: 1024})
	defer monitor.Close()
	hub := probprune.PointObject(-1, probprune.Point{0.5, 0.5})
	sub, err := monitor.SubscribeKNN(hub, k, tau)
	if err != nil {
		log.Fatal(err)
	}

	queryBoth := func(round int) {
		got := sharded.KNN(hub, k, tau)
		want := reference.KNN(hub, k, tau)
		results := 0
		for _, m := range got {
			if m.IsResult {
				results++
			}
		}
		fmt.Printf("round %d: %d results near the hub, scatter-gather bit-identical to one shard: %v\n",
			round, results, reflect.DeepEqual(got, want))
	}
	queryBoth(0)

	for round := 1; round <= 3; round++ {
		// Sensors drift east; updates commit through the router, each
		// detaching only its home shard.
		for i := 0; i < 60; i++ {
			j := rng.Intn(sensors)
			pos[j][0] += rng.Float64() * 0.1
			if pos[j][0] > 1 {
				pos[j][0] -= 1
			}
			o := sensor(rng, j, pos[j][0], pos[j][1])
			if err := sharded.Update(o); err != nil {
				log.Fatal(err)
			}
			if err := reference.Update(o); err != nil {
				log.Fatal(err)
			}
		}
		// Online rebalance: re-home the stripe-crossers. No version
		// changes, no events, no result changes.
		before := sharded.Version()
		moved := sharded.Rebalance()
		fmt.Printf("round %d: rebalanced %d drifted sensors (version %d -> %d)\n",
			round, moved, before, sharded.Version())
		queryBoth(round)
	}

	if err := monitor.Sync(context.Background()); err != nil {
		log.Fatal(err)
	}
	events := 0
	for {
		select {
		case <-sub.Events():
			events++
			continue
		default:
		}
		break
	}
	fmt.Printf("\nstanding subscription consumed the merged stream: %d events, monitor cursor %v\n",
		events, monitor.VersionVector())
}
