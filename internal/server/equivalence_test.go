package server_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"probprune/internal/cq"
	"probprune/internal/query"
	"probprune/internal/server"
	"probprune/internal/server/client"
	"probprune/internal/uncertain"
)

// The server↔in-process equivalence tier: one seeded mutation+query
// trace runs simultaneously against a bare in-process Store (the
// reference) and live servers over both backend types, through real
// loopback connections. Every query answer must be bit-identical to
// the reference after the wire round trip, every subscription event
// stream identical to an in-process cq subscription on the reference —
// the server adds a wire, never semantics.

// candidate is one live server under test.
type candidate struct {
	name    string
	backend *query.Store
	cl      *client.Client
	knnSub  *client.Sub
	rknnSub *client.Sub
}

func normCQEvents(evs []cq.Event) []evNorm {
	out := make([]evNorm, len(evs))
	for i, ev := range evs {
		out[i] = evNorm{
			Kind:    ev.Kind.String(),
			Version: ev.Version,
			Obj:     string(server.EncodeObject(ev.Object)),
			Match: server.Match{
				ID: ev.Object.ID, LB: ev.Match.Prob.LB, UB: ev.Match.Prob.UB,
				IsResult: ev.Match.IsResult, Decided: ev.Match.Decided, Iterations: ev.Match.Iterations,
			},
		}
	}
	return out
}

// stripEnd removes the trailing server-level EvEnd marker (the cq
// reference stream has no wire-level terminal event).
func stripEnd(t *testing.T, evs []server.EventMsg) []server.EventMsg {
	t.Helper()
	if len(evs) == 0 || evs[len(evs)-1].Kind != server.EvEnd {
		t.Fatalf("stream did not end with the terminal push: %+v", evs)
	}
	return evs[:len(evs)-1]
}

// collectCQ drains a cq subscription in the background until it closes.
func collectCQ(sub *cq.Subscription) func() []cq.Event {
	ch := make(chan []cq.Event, 1)
	go func() {
		var evs []cq.Event
		for ev := range sub.Events() {
			evs = append(evs, ev)
		}
		ch <- evs
	}()
	return func() []cq.Event { return <-ch }
}

func TestServerEquivalence(t *testing.T) {
	for _, seed := range []int64{21, 22} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runEquivalence(t, seed) })
	}
}

func runEquivalence(t *testing.T, seed int64) {
	const n = 24
	ctx := context.Background()

	// Reference: bare Store plus an in-process monitor.
	ref, err := query.NewStore(testDB(seed, n), testOpts)
	if err != nil {
		t.Fatal(err)
	}
	refMon := cq.NewMonitor(ref, cq.Options{Buffer: 4096, Policy: cq.DisconnectSlow})
	defer refMon.Close()

	// Standing predicates, fixed at the initial version.
	db := testDB(seed, n)
	subQ, err := uncertain.NewFlatObject(0, db[0].Dim(), db[0].Coords, nil)
	if err != nil {
		t.Fatal(err)
	}
	const subK, subTau = 3, 0.2
	const rkK, rkTau = 2, 0.3

	refKNN, err := refMon.SubscribeKNN(subQ, subK, subTau)
	if err != nil {
		t.Fatal(err)
	}
	refRKNN, err := refMon.SubscribeRKNN(subQ, rkK, rkTau)
	if err != nil {
		t.Fatal(err)
	}
	knnDone, rknnDone := collectCQ(refKNN), collectCQ(refRKNN)

	// Candidates: live servers over both backend types.
	store, err := query.NewStore(testDB(seed, n), testOpts)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := query.NewShardedStore(testDB(seed, n), query.ShardedOptions{Shards: 4}, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	cands := []*candidate{
		{name: "store", backend: store},
		{name: "sharded4", backend: sharded},
	}
	for _, cd := range cands {
		_, addr := startServer(t, cd.backend, server.Options{})
		cd.cl = dial(t, addr)
		if cd.knnSub, err = cd.cl.Subscribe(client.SubOptions{Kind: "KNN", K: subK, Tau: subTau, Q: subQ}); err != nil {
			t.Fatalf("%s: knn subscribe: %v", cd.name, err)
		}
		if cd.rknnSub, err = cd.cl.Subscribe(client.SubOptions{Kind: "RKNN", K: rkK, Tau: rkTau, Q: subQ}); err != nil {
			t.Fatalf("%s: rknn subscribe: %v", cd.name, err)
		}
	}

	checkMatches := func(op string, want []query.Match, got [][]server.Match) {
		t.Helper()
		w := mustWire(t, want)
		for i, g := range got {
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: %s answer differs from reference:\n got %+v\nwant %+v", cands[i].name, op, g, w)
			}
		}
	}

	// The seeded trace. Mutations go to the reference in process and to
	// each server over the wire; queries are compared on the spot.
	rng := rand.New(rand.NewSource(seed * 1009))
	ids := make([]int, 0, n)
	for i := 1; i <= n; i++ {
		ids = append(ids, i)
	}
	nextID := 1000
	for op := 0; op < 60; op++ {
		switch c := rng.Intn(10); {
		case c <= 2: // insert
			o := testObj(rng, nextID)
			nextID++
			if err := ref.Insert(o); err != nil {
				t.Fatalf("op %d: ref insert: %v", op, err)
			}
			for _, cd := range cands {
				if err := cd.cl.Insert(o); err != nil {
					t.Fatalf("op %d: %s insert: %v", op, cd.name, err)
				}
			}
			ids = append(ids, o.ID)
		case c <= 4: // update
			id := ids[rng.Intn(len(ids))]
			o := testObj(rng, id)
			if err := ref.Update(o); err != nil {
				t.Fatalf("op %d: ref update: %v", op, err)
			}
			for _, cd := range cands {
				if err := cd.cl.Update(o); err != nil {
					t.Fatalf("op %d: %s update: %v", op, cd.name, err)
				}
			}
		case c == 5 && len(ids) > 8: // delete
			i := rng.Intn(len(ids))
			id := ids[i]
			ids = append(ids[:i], ids[i+1:]...)
			if found, err := ref.Delete(id); err != nil || !found {
				t.Fatalf("op %d: ref delete: found=%v err=%v", op, found, err)
			}
			for _, cd := range cands {
				if found, err := cd.cl.Delete(id); err != nil || !found {
					t.Fatalf("op %d: %s delete: found=%v err=%v", op, cd.name, found, err)
				}
			}
		case c == 6: // threshold kNN
			q := testObj(rng, 0)
			k, tau := 1+rng.Intn(5), rng.Float64()
			want, err := ref.Snapshot().KNN(ctx, q, k, tau)
			if err != nil {
				t.Fatal(err)
			}
			got := make([][]server.Match, len(cands))
			for i, cd := range cands {
				if got[i], err = cd.cl.KNN(q, k, tau); err != nil {
					t.Fatalf("op %d: %s knn: %v", op, cd.name, err)
				}
			}
			checkMatches("knn", want, got)
		case c == 7: // reverse kNN
			q := testObj(rng, 0)
			k, tau := 1+rng.Intn(3), rng.Float64()
			want, err := ref.Snapshot().RKNN(ctx, q, k, tau)
			if err != nil {
				t.Fatal(err)
			}
			got := make([][]server.Match, len(cands))
			for i, cd := range cands {
				if got[i], err = cd.cl.RKNN(q, k, tau); err != nil {
					t.Fatalf("op %d: %s rknn: %v", op, cd.name, err)
				}
			}
			checkMatches("rknn", want, got)
		case c == 8: // top-m kNN and inverse ranking
			q := testObj(rng, 0)
			k, m := 1+rng.Intn(4), 1+rng.Intn(3)
			want, err := ref.Snapshot().TopKNN(ctx, q, k, m)
			if err != nil {
				t.Fatal(err)
			}
			got := make([][]server.Match, len(cands))
			for i, cd := range cands {
				if got[i], err = cd.cl.TopKNN(q, k, m); err != nil {
					t.Fatalf("op %d: %s topknn: %v", op, cd.name, err)
				}
			}
			checkMatches("topknn", want, got)

			b, r := testObj(rng, 0), testObj(rng, 0)
			wantRD, err := ref.Snapshot().InverseRank(ctx, b, r)
			if err != nil {
				t.Fatal(err)
			}
			wantInv, err := server.DecodeRankDist(server.EncodeRankDist(wantRD))
			if err != nil {
				t.Fatal(err)
			}
			for _, cd := range cands {
				gotInv, err := cd.cl.InvRank(b, r)
				if err != nil {
					t.Fatalf("op %d: %s invrank: %v", op, cd.name, err)
				}
				if !reflect.DeepEqual(gotInv, wantInv) {
					t.Fatalf("op %d: %s invrank differs from reference", op, cd.name)
				}
			}
		case c == 9: // one-snapshot batch
			reqs := make([]client.BatchReq, 1+rng.Intn(3))
			qreqs := make([]query.KNNRequest, len(reqs))
			for i := range reqs {
				q := testObj(rng, 0)
				reqs[i] = client.BatchReq{Q: q, K: 1 + rng.Intn(4), Tau: rng.Float64()}
				qreqs[i] = query.KNNRequest{Q: q, K: reqs[i].K, Tau: reqs[i].Tau}
			}
			want, err := ref.Snapshot().BatchKNN(ctx, qreqs)
			if err != nil {
				t.Fatal(err)
			}
			for _, cd := range cands {
				got, err := cd.cl.BatchKNN(reqs)
				if err != nil {
					t.Fatalf("op %d: %s batch: %v", op, cd.name, err)
				}
				if len(got) != len(want) {
					t.Fatalf("op %d: %s batch: %d results, want %d", op, cd.name, len(got), len(want))
				}
				for i := range want {
					if !reflect.DeepEqual(got[i], mustWire(t, want[i])) {
						t.Fatalf("op %d: %s batch result %d differs from reference", op, cd.name, i)
					}
				}
			}
		}
	}

	// Full-state sweep: every backend converged to the reference state.
	v := ref.Version()
	for _, cd := range cands {
		if gv, err := cd.cl.Version(); err != nil || gv != v {
			t.Fatalf("%s: version %d, %v; want %d", cd.name, gv, err, v)
		}
		if gl, err := cd.cl.Len(); err != nil || gl != ref.Len() {
			t.Fatalf("%s: len %d, %v; want %d", cd.name, gl, err, ref.Len())
		}
		for _, id := range ids {
			want, ok := ref.Get(id)
			if !ok {
				t.Fatalf("reference lost object %d", id)
			}
			got, ok, err := cd.cl.Get(id)
			if err != nil || !ok {
				t.Fatalf("%s: get %d: ok=%v err=%v", cd.name, id, ok, err)
			}
			sameObject(t, got, want, fmt.Sprintf("%s object %d", cd.name, id))
		}
	}

	// Event-stream equivalence: drain everything, then compare whole
	// streams against the in-process cq reference.
	for _, cd := range cands {
		if _, err := cd.cl.WaitVersion(v); err != nil {
			t.Fatalf("%s: waitversion: %v", cd.name, err)
		}
	}
	if err := refMon.WaitVersion(ctx, v); err != nil {
		t.Fatal(err)
	}
	refKNN.Cancel()
	refRKNN.Cancel()
	wantKNN, wantRKNN := normCQEvents(knnDone()), normCQEvents(rknnDone())
	if len(wantKNN) == 0 {
		t.Fatal("trace generated no KNN subscription events; the equivalence check is vacuous")
	}
	for _, cd := range cands {
		if err := cd.cl.Unsubscribe(cd.knnSub); err != nil {
			t.Fatalf("%s: unsubscribe: %v", cd.name, err)
		}
		if err := cd.cl.Unsubscribe(cd.rknnSub); err != nil {
			t.Fatalf("%s: unsubscribe: %v", cd.name, err)
		}
		gotKNN := normEvents(stripEnd(t, drainAll(t, cd.knnSub)))
		gotRKNN := normEvents(stripEnd(t, drainAll(t, cd.rknnSub)))
		if !reflect.DeepEqual(gotKNN, wantKNN) {
			t.Fatalf("%s: KNN event stream differs from in-process reference:\n got %+v\nwant %+v",
				cd.name, gotKNN, wantKNN)
		}
		if !reflect.DeepEqual(gotRKNN, wantRKNN) {
			t.Fatalf("%s: RKNN event stream differs from in-process reference:\n got %+v\nwant %+v",
				cd.name, gotRKNN, wantRKNN)
		}
	}

	// Observability sweep: every command the trace exercised left
	// non-zero dispatch counters, and the query engine counted work.
	for _, cd := range cands {
		st, err := cd.cl.Stats()
		if err != nil {
			t.Fatalf("%s: stats: %v", cd.name, err)
		}
		for _, key := range []string{
			"server.cmd.insert.calls", "server.cmd.knn.calls", "server.cmd.rknn.calls",
			"server.cmd.topknn.calls", "server.cmd.invrank.calls",
			"server.cmd.batch.calls", "server.cmd.get.calls",
			"server.cmd.subscribe.calls", "server.cmd.unsubscribe.calls",
			"server.pushed", "query.candidates", "query.knn.latency.count",
			"cq.events",
		} {
			if st[key] == 0 {
				t.Errorf("%s: STATS %s == 0 after a full equivalence run", cd.name, key)
			}
		}
	}
}
