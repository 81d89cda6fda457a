package server_test

import (
	"fmt"
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

// A server over a loopback listener, driven through the Go client: a
// one-shot KNN, a named subscription whose push arrives over the wire,
// a dropped connection, and a RESUME that continues the stream at the
// exact watermark — the insert committed while nobody was attached is
// not lost.
func ExampleServer() {
	dir, _ := os.MkdirTemp("", "probprune-server-*")
	defer os.RemoveAll(dir)
	db, _ := workload.Synthetic(workload.SyntheticConfig{N: 200, Samples: 8, MaxExtent: 0.02, Seed: 42})
	store, _ := query.NewStore(db, core.Options{MaxIterations: 3})

	// A cursor path enables named (durable) subscriptions.
	srv := server.New(store, server.Options{CursorPath: filepath.Join(dir, "cursor")})
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	go srv.Serve(ln)
	defer srv.Close()

	cl, _ := client.Dial(ln.Addr().String())
	q := uncertain.PointObject(-1, []float64{0.5, 0.5})
	ms, _ := cl.KNN(q, 3, 0.3)
	results := 0
	for _, m := range ms {
		if m.IsResult {
			results++
			fmt.Printf("KNN: object %d P in [%.3f, %.3f]\n", m.ID, m.LB, m.UB)
		}
	}

	pred := client.SubOptions{Kind: "KNN", K: 3, Tau: 0.3, Q: q, Name: "demo"}
	sub, _ := cl.Subscribe(pred)
	fmt.Println("subscribe:", sub.Mode)
	var last server.EventMsg
	for i := 0; i < results; i++ { // the initial result set
		last = <-sub.Events
		fmt.Printf("  %s object %d @v%d\n", last.Kind, last.Object.ID, last.Version)
	}
	member, _, _ := cl.Get(last.Object.ID)
	cl.Delete(member.ID)
	last = <-sub.Events // the first of the delete's events, in ID order
	fmt.Printf("push: %s object %d @v%d\n", last.Kind, last.Object.ID, last.Version)

	// Drop the connection: the named session stays on the server. The
	// insert commits while nobody is attached.
	cl.Close()
	cl2, _ := client.Dial(ln.Addr().String())
	defer cl2.Close()
	cl2.Insert(member)
	sub2, err := cl2.Resume("demo", last.Version, last.Object.ID, pred)
	if err != nil {
		fmt.Println("resume:", err)
		return
	}
	fmt.Printf("resume: %s lost=%d\n", sub2.Mode, sub2.Lost)
	// Every event up to the insert's version is in the stream once
	// WAITVERSION returns, and UNSUBSCRIBE's end frame follows them.
	cl2.WaitVersion(store.Version())
	cl2.Unsubscribe(sub2)
	for ev := range sub2.Events {
		if ev.Kind == server.EvEnd {
			fmt.Println("  end", ev.Reason)
			continue
		}
		fmt.Printf("  %s object %d @v%d\n", ev.Kind, ev.Object.ID, ev.Version)
	}
	// Output:
	// KNN: object 75 P in [1.000, 1.000]
	// KNN: object 151 P in [1.000, 1.000]
	// KNN: object 186 P in [1.000, 1.000]
	// subscribe: full
	//   entered object 75 @v0
	//   entered object 151 @v0
	//   entered object 186 @v0
	// push: entered object 73 @v1
	// resume: continue lost=0
	//   left object 186 @v1
	//   left object 73 @v2
	//   entered object 186 @v2
	//   end unsubscribed
}
