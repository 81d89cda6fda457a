package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"probprune/internal/query"
	"probprune/internal/server"
	"probprune/internal/server/client"
	"probprune/internal/uncertain"
)

// tryNext pulls one event with a timeout instead of failing, so
// subscriber loops can interleave waiting with disconnect decisions.
func tryNext(sub *client.Sub, d time.Duration) (server.EventMsg, bool) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case ev, ok := <-sub.Events:
		return ev, ok
	case <-timer.C:
		return server.EventMsg{}, false
	}
}

// TestServerE2ERace is the end-to-end concurrency tier: one writer
// churns the store over the wire while many durable subscribers
// repeatedly consume, drop their connections mid-stream, and RESUME
// from their watermarks — interleaved with one-shot query clients.
// Every subscriber must observe a strictly ascending, gap-free event
// stream identical to an uninterrupted in-process reference, with
// Lost always zero — reconnection may never lose or duplicate an
// event. Run under -race this also shakes the session registry,
// retention ring and dispatch paths for data races.
func TestServerE2ERace(t *testing.T) {
	const (
		n     = 16
		seed  = 31
		pairs = 60 // writer delete/reinsert pairs
		nSubs = 8
		nQry  = 3
	)
	db := testDB(seed, n)
	byID := make(map[int]*uncertain.Object, n)
	for _, o := range db {
		byID[o.ID] = o
	}
	store, err := query.NewStore(db, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, store, server.Options{
		CursorPath: filepath.Join(t.TempDir(), "cursor"),
		Retain:     1 << 15, // no eviction: Lost must stay 0 and GONE must never fire
	})

	rng := rand.New(rand.NewSource(seed))
	q, err := uncertain.NewFlatObject(0, db[2].Dim(), db[2].Coords, nil)
	if err != nil {
		t.Fatal(err)
	}
	const k, tau = 3, 0.2
	v0 := store.Version()
	finalVer := v0 + 2*pairs // the writer is the only mutator

	// Uninterrupted in-process reference on the server's own monitor,
	// created before any mutation: every subscriber stream must equal it.
	refSub, err := srv.Monitor().SubscribeKNN(q, k, tau)
	if err != nil {
		t.Fatal(err)
	}
	refDone := collectCQ(refSub)

	var wg sync.WaitGroup
	writerDone := make(chan struct{})
	// Subscribers must all snapshot at v0, matching the reference, so
	// the writer holds fire until every SUBSCRIBE has been acked.
	var subsReady sync.WaitGroup
	subsReady.Add(nSubs)
	errs := make(chan error, nSubs+nQry+1)
	fail := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Durable subscribers: consume, randomly drop the connection, resume.
	streams := make([][]server.EventMsg, nSubs)
	for s := 0; s < nSubs; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + s)))
			name := fmt.Sprintf("w%d", s)
			cl, err := client.Dial(addr)
			if err != nil {
				subsReady.Done()
				fail("sub %d: dial: %v", s, err)
				return
			}
			defer func() { cl.Close() }()
			sub, err := cl.Subscribe(client.SubOptions{Kind: "KNN", K: k, Tau: tau, Q: q, Name: name})
			subsReady.Done()
			if err != nil {
				fail("sub %d: subscribe: %v", s, err)
				return
			}
			if sub.Mode != server.ModeFull {
				fail("sub %d: initial mode %q, want full", s, sub.Mode)
				return
			}
			var evs []server.EventMsg
			var wmV uint64
			var wmID int
			deadline := time.Now().Add(60 * time.Second)
		consume:
			for {
				if time.Now().After(deadline) {
					fail("sub %d: timed out at watermark (%d,%d) with %d events, want version %d",
						s, wmV, wmID, len(evs), finalVer)
					return
				}
				select {
				case <-writerDone:
					// A single mutation can emit several events at one
					// version, so no event is a safe stop sentinel. Instead:
					// WaitVersion guarantees every event up to finalVer is in
					// the subscription buffers, after which UNSUBSCRIBE's
					// terminal push is ordered behind all of them.
					if _, err := cl.WaitVersion(finalVer); err != nil {
						fail("sub %d: waitversion: %v", s, err)
						return
					}
					break consume
				default:
				}
				ev, ok := tryNext(sub, 10*time.Millisecond)
				if !ok {
					if sub.Err() != nil {
						fail("sub %d: stream error: %v", s, sub.Err())
						return
					}
					continue
				}
				if ev.Kind == server.EvEnd {
					fail("sub %d: unexpected terminal event %q", s, ev.Reason)
					return
				}
				evs = append(evs, ev)
				wmV, wmID = ev.Version, ev.Object.ID
				if rng.Intn(6) == 0 { // drop the connection mid-stream
					cl.Close()
					cl, err = client.Dial(addr)
					if err != nil {
						fail("sub %d: redial: %v", s, err)
						return
					}
					// The abrupt close races the server noticing it: a RESUME
					// that lands first supersedes the old connection.
					sub, err = cl.Resume(name, wmV, wmID, client.SubOptions{Kind: "KNN", K: k, Tau: tau, Q: q, Name: name})
					if err != nil {
						fail("sub %d: resume at (%d,%d): %v", s, wmV, wmID, err)
						return
					}
					if sub.Mode != server.ModeContinue {
						fail("sub %d: resume mode %q, want continue", s, sub.Mode)
						return
					}
					if sub.Lost != 0 {
						fail("sub %d: resume lost %d events", s, sub.Lost)
						return
					}
				}
			}
			if err := cl.Unsubscribe(sub); err != nil {
				fail("sub %d: unsubscribe: %v", s, err)
				return
			}
			fin := drainAll(t, sub)
			if len(fin) == 0 || fin[len(fin)-1].Kind != server.EvEnd || fin[len(fin)-1].Reason != server.EndUnsubscribed {
				fail("sub %d: bad terminal event after unsubscribe: %+v", s, fin)
				return
			}
			streams[s] = append(evs, fin[:len(fin)-1]...)
		}(s)
	}

	// One-shot query clients churn the dispatch path concurrently.
	for qc := 0; qc < nQry; qc++ {
		wg.Add(1)
		go func(qc int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2000 + qc)))
			cl, err := client.Dial(addr)
			if err != nil {
				fail("query client %d: dial: %v", qc, err)
				return
			}
			defer cl.Close()
			for i := 0; i < 40; i++ {
				qq := testObj(rng, 0)
				if _, err := cl.KNN(qq, 1+rng.Intn(4), rng.Float64()); err != nil {
					fail("query client %d: knn: %v", qc, err)
					return
				}
				if _, err := cl.Len(); err != nil {
					fail("query client %d: len: %v", qc, err)
					return
				}
			}
		}(qc)
	}

	// The debug endpoint serves /metrics concurrently with the load —
	// under -race this shakes StatsMap against dispatch, delivery and
	// the session registry.
	dbg := httptest.NewServer(srv.DebugHandler())
	defer dbg.Close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-writerDone:
				return
			default:
			}
			resp, err := http.Get(dbg.URL + "/metrics")
			if err != nil {
				fail("debug: %v", err)
				return
			}
			var m map[string]int64
			err = json.NewDecoder(resp.Body).Decode(&m)
			resp.Body.Close()
			if err != nil {
				fail("debug: decode: %v", err)
				return
			}
			if _, ok := m["server.conns.open"]; !ok {
				fail("debug: metrics missing server.conns.open")
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// The writer: delete/reinsert pairs of existing objects, so the
	// store always returns to its initial state and the final pair —
	// pinned to a known result member — guarantees every subscriber a
	// sentinel event at exactly finalVer.
	member := -1
	for id := range initialResultIDs(t, store, q, k, tau) {
		if member < 0 || id < member {
			member = id
		}
	}
	if member < 0 {
		t.Fatal("query has no initial result set; sentinel construction impossible")
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(writerDone)
		subsReady.Wait()
		cl, err := client.Dial(addr)
		if err != nil {
			fail("writer: dial: %v", err)
			return
		}
		defer cl.Close()
		for p := 0; p < pairs; p++ {
			id := db[rng.Intn(n)].ID
			if p == pairs-1 {
				id = member
			}
			if found, err := cl.Delete(id); err != nil || !found {
				fail("writer: delete %d: found=%v err=%v", id, found, err)
				return
			}
			if err := cl.Insert(byID[id]); err != nil {
				fail("writer: reinsert %d: %v", id, err)
				return
			}
		}
	}()

	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// The reference saw everything up to finalVer; close it out.
	if v := store.Version(); v != finalVer {
		t.Fatalf("store at version %d after writer, want %d", v, finalVer)
	}
	ctxWait, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Monitor().WaitVersion(ctxWait, finalVer); err != nil {
		t.Fatal(err)
	}
	refSub.Cancel()
	want := normCQEvents(refDone())
	if len(want) == 0 {
		t.Fatal("reference stream empty; the race tier verified nothing")
	}

	for s, evs := range streams {
		assertAscending(t, evs)
		if got := normEvents(evs); !reflect.DeepEqual(got, want) {
			i := 0
			for i < len(got) && i < len(want) && reflect.DeepEqual(got[i], want[i]) {
				i++
			}
			show := func(ns []evNorm) string {
				if i >= len(ns) {
					return "<stream end>"
				}
				n := ns[i]
				return fmt.Sprintf("%s id=%d v=%d", n.Kind, n.Match.ID, n.Version)
			}
			t.Fatalf("sub %d: stream (%d events) differs from uninterrupted reference (%d events) at index %d:\n got %s\nwant %s",
				s, len(got), len(want), i, show(got), show(want))
		}
	}

	// Cursor-mismatch coverage: park one durable session, then try to
	// resume it with a different predicate.
	cl := dial(t, addr)
	sub, err := cl.Resume("w0", finalVer, member, client.SubOptions{Kind: "KNN", K: k, Tau: tau, Q: q, Name: "w0"})
	if err != nil {
		t.Fatalf("reattach w0: %v", err)
	}
	_ = sub
	cl.Close()
	time.Sleep(50 * time.Millisecond) // let the server park the session
	cl2 := dial(t, addr)
	if _, err := cl2.Resume("w0", finalVer, member, client.SubOptions{Kind: "KNN", K: k + 1, Tau: tau, Q: q, Name: "w0"}); !client.IsCode(err, "CURSORMISMATCH") {
		t.Fatalf("resume with changed K: got %v, want CURSORMISMATCH", err)
	}
	if _, err := cl2.Resume("w0", finalVer, member, client.SubOptions{Kind: "KNN", K: k, Tau: tau, Q: q, Name: "w0"}); err != nil {
		t.Fatalf("resume with original predicate after mismatch: %v", err)
	}
}
