package server_test

import (
	"net"
	"reflect"
	"testing"
	"time"

	"probprune/internal/query"
	"probprune/internal/server"
	"probprune/internal/server/client"
	"probprune/internal/uncertain"
)

// evNorm is an event stripped of the server-assigned subscription ID,
// for comparing streams observed through different subscriptions.
type evNorm struct {
	Kind    string
	Version uint64
	Obj     string
	Match   server.Match
	Reason  string
}

func normEvents(evs []server.EventMsg) []evNorm {
	out := make([]evNorm, len(evs))
	for i, ev := range evs {
		out[i] = evNorm{Kind: ev.Kind, Version: ev.Version, Match: ev.Match, Reason: ev.Reason}
		if ev.Object != nil {
			out[i].Obj = string(server.EncodeObject(ev.Object))
		}
	}
	return out
}

func assertAscending(t *testing.T, evs []server.EventMsg) {
	t.Helper()
	first := true
	var v uint64
	var id int
	for _, ev := range evs {
		if ev.Kind == server.EvEnd {
			continue
		}
		if !first && (ev.Version < v || (ev.Version == v && ev.Object.ID <= id)) {
			t.Fatalf("event watermarks not strictly ascending: (%d,%d) after (%d,%d)",
				ev.Version, ev.Object.ID, v, id)
		}
		v, id, first = ev.Version, ev.Object.ID, false
	}
}

// TestServerDurableParkResume is the heart of the subscription
// contract: a named subscription survives its connection, and RESUME
// with the last processed watermark continues the stream exactly — the
// concatenation of everything the durable subscriber saw across both
// connections is bit-identical to the stream of an uninterrupted
// reference subscription on the same predicate.
func TestServerDurableParkResume(t *testing.T) {
	db := testDB(7, 20)
	store, err := query.NewStore(db, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	q, err := uncertain.NewFlatObject(0, db[2].Dim(), db[2].Coords, nil)
	if err != nil {
		t.Fatal(err)
	}
	const k, tau = 3, 0.2
	wantIDs := initialResultIDs(t, store, q, k, tau)
	if len(wantIDs) < 2 {
		t.Fatalf("test setup: initial result set %v too small", wantIDs)
	}
	E := len(wantIDs)

	_, addr := startServer(t, store, server.Options{CursorPath: t.TempDir() + "/cursor"})
	m := dial(t, addr) // control connection for mutations

	pred := client.SubOptions{Kind: "KNN", K: k, Tau: tau, Q: q}
	named := pred
	named.Name = "watch"

	rc := dial(t, addr)
	ref, err := rc.Subscribe(pred)
	if err != nil {
		t.Fatalf("reference subscribe: %v", err)
	}
	ac, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ac.Subscribe(named)
	if err != nil {
		t.Fatalf("durable subscribe: %v", err)
	}
	if a.Mode != server.ModeFull {
		t.Fatalf("first durable subscribe mode %q, want %q", a.Mode, server.ModeFull)
	}

	refInit := drainN(t, ref, E)
	aInit := drainN(t, a, E)
	if !reflect.DeepEqual(normEvents(aInit), normEvents(refInit)) {
		t.Fatalf("durable initial events differ from reference")
	}

	// Phase 1: delete a result member — guaranteed to produce events —
	// and let the durable subscriber process exactly one before its
	// connection dies.
	member := aInit[0].Object.ID
	memberObj, ok := store.Get(member)
	if !ok {
		t.Fatalf("member %d not in store", member)
	}
	var member2 int
	for id := range wantIDs {
		if id != member {
			member2 = id
			break
		}
	}
	if found, err := m.Delete(member); err != nil || !found {
		t.Fatalf("delete member: found=%v err=%v", found, err)
	}
	if _, err := m.WaitVersion(store.Version()); err != nil {
		t.Fatal(err)
	}
	aPhase1 := drainN(t, a, 1)
	wm := aPhase1[len(aPhase1)-1]
	ac.Close() // the session parks; events keep accruing in the ring

	// A live session rejects a RESUME with a different predicate, whether
	// or not the server has noticed the dropped connection yet.
	oc := dial(t, addr)
	wrong := named
	wrong.K = k + 1
	if _, err = oc.Resume("watch", wm.Version, wm.Object.ID, wrong); !client.IsCode(err, "CURSORMISMATCH") {
		t.Fatalf("resume with wrong predicate: %v, want CURSORMISMATCH", err)
	}

	// Phase 2: more churn while nobody is attached.
	if err := m.Insert(memberObj); err != nil {
		t.Fatalf("reinsert member: %v", err)
	}
	if found, err := m.Delete(member2); err != nil || !found {
		t.Fatalf("delete member2: found=%v err=%v", found, err)
	}
	if _, err := m.WaitVersion(store.Version()); err != nil {
		t.Fatal(err)
	}

	// Resume at the watermark: an exact continuation.
	bc := dial(t, addr)
	b, err := bc.Resume("watch", wm.Version, wm.Object.ID, named)
	if err != nil || b.Mode != server.ModeContinue || b.Lost != 0 {
		t.Fatalf("resume: %+v, %v; want continue, lost 0", b, err)
	}

	// A RESUME from another connection supersedes the attached one: it
	// continues from the same watermark, and the old stream ends
	// "superseded" after a prefix of what the new one replays.
	b2c := dial(t, addr)
	b2, err := b2c.Resume("watch", wm.Version, wm.Object.ID, named)
	if err != nil || b2.Mode != server.ModeContinue || b2.Lost != 0 {
		t.Fatalf("resume of attached session: %+v, %v; want continue, lost 0", b2, err)
	}
	bAll := drainAll(t, b)
	if len(bAll) == 0 || bAll[len(bAll)-1].Kind != server.EvEnd || bAll[len(bAll)-1].Reason != server.EndSuperseded {
		t.Fatalf("superseded stream did not end superseded: %+v", bAll)
	}
	// SUBSCRIBE of a live name stays busy.
	if _, err := bc.Subscribe(named); !client.IsCode(err, "BUSY") {
		t.Fatalf("subscribe of live name: %v, want BUSY", err)
	}

	// End both streams and compare them whole.
	if err := rc.Unsubscribe(ref); err != nil {
		t.Fatal(err)
	}
	if err := b2c.Unsubscribe(b2); err != nil {
		t.Fatal(err)
	}
	refAll := append(refInit, drainAll(t, ref)...)
	b2All := drainAll(t, b2)
	if got, want := normEvents(bAll[:len(bAll)-1]), normEvents(b2All); len(got) > len(want) || !reflect.DeepEqual(got, want[:len(got)]) {
		t.Fatalf("superseded stream is not a prefix of its continuation:\n got %+v\nwant %+v", got, want)
	}
	durAll := append(append(aInit, aPhase1...), b2All...)
	assertAscending(t, refAll)
	if !reflect.DeepEqual(normEvents(durAll), normEvents(refAll)) {
		t.Fatalf("durable stream across reconnect differs from uninterrupted reference:\n got %+v\nwant %+v",
			normEvents(durAll), normEvents(refAll))
	}
}

// TestServerResumeSupersedesHalfOpen: a peer that holds a named session
// and then never reads again (nor closes) cannot lock the name, even
// once the server's pushes to it stall — a RESUME from another
// connection answers continue at once, and the stream flows to it.
func TestServerResumeSupersedesHalfOpen(t *testing.T) {
	db := testDB(9, 20)
	store, err := query.NewStore(db, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	q, err := uncertain.NewFlatObject(0, db[3].Dim(), db[3].Coords, nil)
	if err != nil {
		t.Fatal(err)
	}
	const k, tau = 3, 0.2
	wantIDs := initialResultIDs(t, store, q, k, tau)
	// Small socket buffers and a one-frame queue: pushes to a peer that
	// stops reading stall within a few dozen events.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(store, server.Options{CursorPath: t.TempDir() + "/cursor", OutQueue: 1})
	go srv.Serve(smallWriteBuffers{ln})
	t.Cleanup(func() { srv.Close() })
	addr := ln.Addr().String()

	stuck := rawDial(t, addr)
	stuck.nc.(*net.TCPConn).SetReadBuffer(4096)
	stuck.sendArgs(t, "SUBSCRIBE", "KNN", "3", "0.2", string(server.EncodeObject(q)), "NAME", "h")
	if f := stuck.read(t); f.Type != server.TArray {
		t.Fatalf("subscribe reply %+v", f)
	}
	c := dial(t, addr)
	var member int
	for member = range wantIDs {
		break
	}
	obj, _ := store.Get(member)
	for i := 0; i < 200; i++ { // far more events than the buffers hold
		if _, err := c.Delete(member); err != nil {
			t.Fatal(err)
		}
		if err := c.Insert(obj); err != nil {
			t.Fatal(err)
		}
	}

	// The pushes have stalled once the push count stands still while
	// most events are still undelivered.
	last, still := int64(-1), 0
	waitStats(t, c, "pushes to the stuck peer to stall", func(st map[string]int64) bool {
		if p := st["server.pushed"]; p != last {
			last, still = p, 0
		} else {
			still++
		}
		return st["server.push.backlog"] >= 1000 && still >= 20
	})
	// Replay from the start; the watchdog fails a RESUME that hangs.
	watchdog := time.AfterFunc(5*time.Second, func() { c.Close() })
	sub, err := c.Resume("h", 0, 0, client.SubOptions{Kind: "KNN", K: k, Tau: tau, Q: q, Name: "h"})
	watchdog.Stop()
	if err != nil || sub.Mode != server.ModeContinue || sub.Lost != 0 {
		t.Fatalf("resume over a stalled peer: %+v, %v; want continue, lost 0", sub, err)
	}
	drainN(t, sub, 1) // the replay flows to the new connection
}

// smallWriteBuffers shrinks the send buffer of every accepted connection.
type smallWriteBuffers struct{ net.Listener }

func (l smallWriteBuffers) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetWriteBuffer(4096)
	}
	return nc, err
}

// TestServerDurableRestart covers resuming across a server restart: the
// session registry is gone, but the monitor's durable cursor still
// knows the name, so RESUME (and plain SUBSCRIBE) deliver the coalesced
// delta — and SUBSCRIBE ... FRESH discards that state for a full
// snapshot.
func TestServerDurableRestart(t *testing.T) {
	db := testDB(8, 16)
	store, err := query.NewStore(db, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	q, err := uncertain.NewFlatObject(0, db[4].Dim(), db[4].Coords, nil)
	if err != nil {
		t.Fatal(err)
	}
	const k, tau = 2, 0.3
	wantIDs := initialResultIDs(t, store, q, k, tau)
	if len(wantIDs) == 0 {
		t.Fatal("test setup: empty initial result set")
	}
	E := len(wantIDs)
	opts := server.Options{CursorPath: t.TempDir() + "/cursor"}
	named := client.SubOptions{Kind: "KNN", K: k, Tau: tau, Q: q, Name: "d"}

	srv1, addr1 := startServerManual(t, store, opts)
	c1, err := client.Dial(addr1)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := c1.Subscribe(named)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if d1.Mode != server.ModeFull {
		t.Fatalf("mode %q, want full", d1.Mode)
	}
	init := drainN(t, d1, E)
	wm := init[len(init)-1]
	c1.Close()
	if err := srv1.Close(); err != nil { // saves the cursor
		t.Fatal(err)
	}

	// Same store, fresh server process state.
	_, addr2 := startServer(t, store, opts)
	c2 := dial(t, addr2)
	d2, err := c2.Resume("d", wm.Version, wm.Object.ID, named)
	if err != nil {
		t.Fatalf("resume after restart: %v", err)
	}
	if d2.Mode != server.ModeDelta {
		t.Fatalf("resume-after-restart mode %q, want %q", d2.Mode, server.ModeDelta)
	}
	// Nothing changed since the cursor was saved: the delta is empty,
	// and new changes flow normally.
	member := init[0].Object.ID
	if found, err := c2.Delete(member); err != nil || !found {
		t.Fatalf("delete: found=%v err=%v", found, err)
	}
	if _, err := c2.WaitVersion(store.Version()); err != nil {
		t.Fatal(err)
	}
	evs := drainN(t, d2, 1)
	if evs[0].Version != store.Version() {
		t.Fatalf("post-restart event version %d, want %d", evs[0].Version, store.Version())
	}
	if err := c2.Unsubscribe(d2); err != nil {
		t.Fatal(err)
	}
	tail := drainAll(t, d2)
	if len(tail) == 0 || tail[len(tail)-1].Kind != server.EvEnd {
		t.Fatalf("stream did not end cleanly: %+v", tail)
	}

	// Plain SUBSCRIBE under a remembered name also resumes as a delta…
	d3, err := c2.Subscribe(named)
	if err != nil {
		t.Fatalf("re-subscribe: %v", err)
	}
	if d3.Mode != server.ModeDelta {
		t.Fatalf("re-subscribe mode %q, want %q", d3.Mode, server.ModeDelta)
	}
	if err := c2.Unsubscribe(d3); err != nil {
		t.Fatal(err)
	}
	drainAll(t, d3)

	// …while FRESH discards the durable state for a full snapshot.
	fresh := named
	fresh.Fresh = true
	d4, err := c2.Subscribe(fresh)
	if err != nil {
		t.Fatalf("fresh subscribe: %v", err)
	}
	if d4.Mode != server.ModeFull {
		t.Fatalf("fresh mode %q, want %q", d4.Mode, server.ModeFull)
	}
	nowIDs := initialResultIDs(t, store, q, k, tau)
	initNow := drainN(t, d4, len(nowIDs))
	for _, ev := range initNow {
		if ev.Kind != server.EvEntered || !nowIDs[ev.Object.ID] {
			t.Fatalf("fresh initial event %+v outside current result set %v", ev, nowIDs)
		}
	}
	if err := c2.Unsubscribe(d4); err != nil {
		t.Fatal(err)
	}
	drainAll(t, d4)
}

// startServerManual is startServer without the cleanup registration —
// for tests that close the server mid-test.
func startServerManual(t *testing.T, backend *query.Store, opts server.Options) (*server.Server, string) {
	t.Helper()
	srv := server.New(backend, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// waitStats polls STATS until ok accepts the metric map. The server
// learns of a closed connection and moves monitor events into a
// session's ring asynchronously; tests that act on either state wait
// for it to show instead of betting on the scheduler.
func waitStats(t *testing.T, c *client.Client, what string, ok func(st map[string]int64) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.Stats()
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		if ok(st) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %v", what, st)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitParked blocks until the server noticed the subscriber's closed
// connection and parked its session — before that, events still go to
// the dying connection instead of accruing unconsumed in the ring.
func waitParked(t *testing.T, c *client.Client) {
	t.Helper()
	waitStats(t, c, "the session to park", func(st map[string]int64) bool {
		return st["server.sessions.parked"] == 1
	})
}

// waitRinged blocks until the monitor has processed `changes` committed
// mutations and every event it emitted after the first `initial` ones
// sits in the single parked session's ring (or was shed from it), so a
// following RESUME replays them from the ring rather than racing them
// as live pushes.
func waitRinged(t *testing.T, c *client.Client, changes uint64, initial int) {
	t.Helper()
	waitStats(t, c, "parked events to reach the ring", func(st map[string]int64) bool {
		return st["cq.changes"] >= int64(changes) &&
			st["server.push.backlog"]+st["server.shed"] == st["cq.events"]-int64(initial)
	})
}

// TestServerResumeGone: under the disconnect policy, a watermark older
// than the ring's eviction horizon cannot be continued exactly — the
// server answers -GONE instead of silently gapping.
func TestServerResumeGone(t *testing.T) {
	db := testDB(9, 20)
	store, err := query.NewStore(db, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	q, err := uncertain.NewFlatObject(0, db[5].Dim(), db[5].Coords, nil)
	if err != nil {
		t.Fatal(err)
	}
	const k, tau = 4, 0.1
	wantIDs := initialResultIDs(t, store, q, k, tau)
	if len(wantIDs) < 2 {
		t.Fatalf("test setup: initial result set %v too small", wantIDs)
	}
	E := len(wantIDs)

	// Ring exactly as large as the initial result set: the first parked
	// event evicts the oldest delivered one.
	_, addr := startServer(t, store, server.Options{CursorPath: t.TempDir() + "/cursor", Retain: E})
	m := dial(t, addr)
	named := client.SubOptions{Kind: "KNN", K: k, Tau: tau, Q: q, Name: "g"}

	ac, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ac.Subscribe(named)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	aInit := drainN(t, a, E)
	member := aInit[0].Object.ID
	wm := aInit[len(aInit)-1]
	ac.Close() // park with the full ring delivered
	waitParked(t, m)

	base := store.Version()
	if found, err := m.Delete(member); err != nil || !found {
		t.Fatalf("delete: found=%v err=%v", found, err)
	}
	waitRinged(t, m, store.Version()-base, E)

	bc := dial(t, addr)
	if _, err := bc.Resume("g", 0, 0, named); !client.IsCode(err, "GONE") {
		t.Fatalf("resume from evicted watermark: %v, want GONE", err)
	}
	// The newest watermark still continues exactly.
	b, err := bc.Resume("g", wm.Version, wm.Object.ID, named)
	if err != nil {
		t.Fatalf("resume at watermark: %v", err)
	}
	if b.Mode != server.ModeContinue || b.Lost != 0 {
		t.Fatalf("resume mode %q lost %d, want continue/0", b.Mode, b.Lost)
	}
	if err := bc.Unsubscribe(b); err != nil {
		t.Fatal(err)
	}
	evs := drainAll(t, b)
	assertAscending(t, evs)
	sawLeft := false
	for _, ev := range evs {
		if ev.Kind == server.EvLeft && ev.Object.ID == member {
			sawLeft = true
		}
		if ev.Kind != server.EvEnd {
			w := wm
			if ev.Version < w.Version || (ev.Version == w.Version && ev.Object.ID <= w.Object.ID) {
				t.Fatalf("replayed event (%d,%d) at or before the watermark (%d,%d)",
					ev.Version, ev.Object.ID, w.Version, w.Object.ID)
			}
		}
	}
	if !sawLeft {
		t.Fatalf("replay missed the member deletion: %+v", evs)
	}
	if len(evs) == 0 || evs[len(evs)-1].Kind != server.EvEnd {
		t.Fatalf("stream did not end cleanly")
	}
}

// TestServerDropOldest: the shedding policy never answers -GONE; it
// reports the cumulative loss instead and replays what the ring kept.
func TestServerDropOldest(t *testing.T) {
	db := testDB(10, 20)
	store, err := query.NewStore(db, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	q, err := uncertain.NewFlatObject(0, db[1].Dim(), db[1].Coords, nil)
	if err != nil {
		t.Fatal(err)
	}
	const k, tau = 3, 0.25
	wantIDs := initialResultIDs(t, store, q, k, tau)
	if len(wantIDs) == 0 {
		t.Fatal("test setup: empty initial result set")
	}
	E := len(wantIDs)
	_, addr := startServer(t, store, server.Options{CursorPath: t.TempDir() + "/cursor", Retain: E})
	m := dial(t, addr)
	named := client.SubOptions{Kind: "KNN", K: k, Tau: tau, Q: q, Name: "shed", Policy: "dropoldest"}

	ac, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ac.Subscribe(named)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	aInit := drainN(t, a, E)
	member := aInit[0].Object.ID
	memberObj, _ := store.Get(member)
	ac.Close()
	waitParked(t, m)

	// Churn far past the ring while parked: E delivered events evict
	// silently, then dropoldest starts shedding and counting.
	base := store.Version()
	for i := 0; i < E+2; i++ {
		if found, err := m.Delete(member); err != nil || !found {
			t.Fatalf("delete %d: found=%v err=%v", i, found, err)
		}
		if err := m.Insert(memberObj); err != nil {
			t.Fatalf("reinsert %d: %v", i, err)
		}
	}
	waitRinged(t, m, store.Version()-base, E)

	bc := dial(t, addr)
	b, err := bc.Resume("shed", 0, 0, named)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if b.Mode != server.ModeContinue {
		t.Fatalf("resume mode %q, want continue", b.Mode)
	}
	if b.Lost == 0 {
		t.Fatal("dropoldest shed nothing despite churn far past the ring")
	}
	if err := bc.Unsubscribe(b); err != nil {
		t.Fatal(err)
	}
	evs := drainAll(t, b)
	assertAscending(t, evs)
	if len(evs) == 0 || evs[len(evs)-1].Kind != server.EvEnd {
		t.Fatalf("stream did not end cleanly: %+v", evs)
	}
	if n := len(evs) - 1; n > E {
		t.Fatalf("replayed %d events from a ring capped at %d", n, E)
	}
}

// TestServerSlowTermination: a parked disconnect-policy session whose
// ring fills with unconsumed events is terminated (the no-silent-gaps
// contract); a later RESUME cannot continue it and falls back to the
// durable cursor.
func TestServerSlowTermination(t *testing.T) {
	db := testDB(11, 16)
	store, err := query.NewStore(db, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	q, err := uncertain.NewFlatObject(0, db[3].Dim(), db[3].Coords, nil)
	if err != nil {
		t.Fatal(err)
	}
	const k, tau = 2, 0.4
	wantIDs := initialResultIDs(t, store, q, k, tau)
	if len(wantIDs) == 0 {
		t.Fatal("test setup: empty initial result set")
	}
	E := len(wantIDs)
	srv, addr := startServer(t, store, server.Options{CursorPath: t.TempDir() + "/cursor", Retain: E})
	m := dial(t, addr)
	named := client.SubOptions{Kind: "KNN", K: k, Tau: tau, Q: q, Name: "slow"}

	ac, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ac.Subscribe(named)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	aInit := drainN(t, a, E)
	member := aInit[0].Object.ID
	memberObj, _ := store.Get(member)
	ac.Close()
	waitParked(t, m)

	// The parked ring absorbs at most E new events (evicting the
	// delivered ones); churn past that terminates the session.
	for i := 0; i < E+2; i++ {
		if found, err := m.Delete(member); err != nil || !found {
			t.Fatalf("delete %d: found=%v err=%v", i, found, err)
		}
		if err := m.Insert(memberObj); err != nil {
			t.Fatalf("reinsert %d: %v", i, err)
		}
	}
	if _, err := m.WaitVersion(store.Version()); err != nil {
		t.Fatal(err)
	}

	// The kill cancels the cq subscription asynchronously; wait for the
	// durable cursor to remember the name before resuming.
	deadline := time.Now().Add(5 * time.Second)
	for !srv.Monitor().HasCursorSub("slow") {
		if time.Now().After(deadline) {
			t.Fatal("terminated subscription never reached the durable cursor")
		}
		time.Sleep(2 * time.Millisecond)
	}

	bc := dial(t, addr)
	b, err := bc.Resume("slow", aInit[len(aInit)-1].Version, aInit[len(aInit)-1].Object.ID, named)
	if err != nil {
		t.Fatalf("resume after slow kill: %v", err)
	}
	if b.Mode != server.ModeDelta {
		t.Fatalf("resume mode %q, want %q (the session must not have survived)", b.Mode, server.ModeDelta)
	}
	if err := bc.Unsubscribe(b); err != nil {
		t.Fatal(err)
	}
	evs := drainAll(t, b)
	if len(evs) == 0 || evs[len(evs)-1].Kind != server.EvEnd {
		t.Fatalf("stream did not end cleanly: %+v", evs)
	}
}
