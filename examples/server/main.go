// Command server demonstrates the network serving layer end to end: it
// starts an in-process udbserver over a synthetic store on a loopback
// listener, then drives it through the Go client — one-shot
// probabilistic queries, a live durable subscription watching a kNN
// neighborhood, a mutation whose push arrives over the wire, and a
// disconnect/RESUME cycle that picks the stream back up at the exact
// watermark without losing or duplicating an event.
//
//	go run ./examples/server
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"

	"probprune/internal/core"
	"probprune/internal/query"
	"probprune/internal/server"
	"probprune/internal/server/client"
	"probprune/internal/uncertain"
	"probprune/internal/workload"
)

func main() {
	dir, err := os.MkdirTemp("", "probprune-server-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := workload.Synthetic(workload.SyntheticConfig{
		N: 500, Samples: 8, MaxExtent: 0.02, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	store, err := query.NewStore(db, core.Options{MaxIterations: 3})
	if err != nil {
		log.Fatal(err)
	}

	// The server serves a Store of any shard count; a cursor path
	// enables named (durable) subscriptions.
	srv := server.New(store, server.Options{CursorPath: filepath.Join(dir, "cursor")})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()
	fmt.Println("serving on", addr)

	// One-shot queries over the wire.
	cl, err := client.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	q := uncertain.PointObject(-1, []float64{0.5, 0.5})
	ms, err := cl.KNN(q, 5, 0.3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("KNN(k=5, tau=0.3): %d candidates\n", len(ms))
	var member *uncertain.Object
	results := 0
	for _, m := range ms {
		if m.IsResult {
			results++
			fmt.Printf("  result: object %d  P(kNN) ∈ [%.3f, %.3f]\n", m.ID, m.LB, m.UB)
			if member == nil {
				member, _, _ = cl.Get(m.ID)
			}
		}
	}

	// A durable subscription on the same neighborhood.
	sub, err := cl.Subscribe(client.SubOptions{
		Kind: "KNN", K: 5, Tau: 0.3, Q: q, Name: "demo",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("subscribed (mode=%s); initial result set:\n", sub.Mode)
	var wmV uint64
	var wmID int
	for i := 0; i < results; i++ { // initial events: one per current result
		ev := <-sub.Events
		fmt.Printf("  %s object %d @v%d\n", ev.Kind, ev.Object.ID, ev.Version)
		wmV, wmID = ev.Version, ev.Object.ID
	}

	// A mutation pushes live over the wire.
	if _, err := cl.Delete(member.ID); err != nil {
		log.Fatal(err)
	}
	ev := <-sub.Events
	fmt.Printf("push: %s object %d @v%d\n", ev.Kind, ev.Object.ID, ev.Version)
	wmV, wmID = ev.Version, ev.Object.ID

	// Drop the connection: the named session parks server-side. A new
	// connection resumes at the watermark — the reinsert below happened
	// while nobody was attached, yet nothing is lost.
	cl.Close()
	cl2, err := client.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer cl2.Close()
	if err := cl2.Insert(member); err != nil {
		log.Fatal(err)
	}
	sub2, err := cl2.Resume("demo", wmV, wmID, client.SubOptions{
		Kind: "KNN", K: 5, Tau: 0.3, Q: q, Name: "demo",
	})
	if err != nil {
		log.Fatal(err)
	}
	ev = <-sub2.Events
	fmt.Printf("resumed (mode=%s, lost=%d); replayed push: %s object %d @v%d\n",
		sub2.Mode, sub2.Lost, ev.Kind, ev.Object.ID, ev.Version)

	if err := cl2.Unsubscribe(sub2); err != nil {
		log.Fatal(err)
	}
	fmt.Println("done")
}
