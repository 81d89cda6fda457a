package server_test

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/query"
	"probprune/internal/server"
	"probprune/internal/server/client"
	"probprune/internal/uncertain"
)

var testOpts = core.Options{MaxIterations: 3}

// testObj builds a deterministic uncertain object: a small sample cloud
// around a random center in [0,8)².
func testObj(rng *rand.Rand, id int) *uncertain.Object {
	cx, cy := rng.Float64()*8, rng.Float64()*8
	samples := make([]geom.Point, 3+rng.Intn(3))
	for j := range samples {
		samples[j] = geom.Point{cx + rng.Float64()*0.6, cy + rng.Float64()*0.6}
	}
	o, err := uncertain.NewObject(id, samples)
	if err != nil {
		panic(err)
	}
	return o
}

func testDB(seed int64, n int) uncertain.Database {
	rng := rand.New(rand.NewSource(seed))
	db := make(uncertain.Database, 0, n)
	for i := 0; i < n; i++ {
		db = append(db, testObj(rng, i+1))
	}
	return db
}

// startServer serves backend on a loopback listener and tears
// everything down with the test.
func startServer(t testing.TB, backend *query.Store, opts server.Options) (*server.Server, string) {
	t.Helper()
	srv := server.New(backend, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// mustWire pushes in-process query matches through the wire codec —
// what a correct server must answer for those matches.
func mustWire(t *testing.T, ms []query.Match) []server.Match {
	t.Helper()
	dec, err := server.DecodeMatches(server.EncodeMatches(ms))
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

func sameObject(t *testing.T, got, want *uncertain.Object, label string) {
	t.Helper()
	if !bytes.Equal(server.EncodeObject(got), server.EncodeObject(want)) {
		t.Fatalf("%s: object %q, want %q", label, server.EncodeObject(got), server.EncodeObject(want))
	}
}

func TestServerCommands(t *testing.T) {
	store, err := query.NewStore(testDB(1, 24), testOpts)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, store, server.Options{})
	c := dial(t, addr)

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if n, err := c.Len(); err != nil || n != 24 {
		t.Fatalf("len = %d, %v; want 24", n, err)
	}
	if v, err := c.Version(); err != nil || v != store.Version() {
		t.Fatalf("version = %d, %v; want %d", v, err, store.Version())
	}

	want1, _ := store.Get(1)
	got1, ok, err := c.Get(1)
	if err != nil || !ok {
		t.Fatalf("get 1: ok=%v err=%v", ok, err)
	}
	sameObject(t, got1, want1, "get 1")
	if _, ok, err := c.Get(4242); err != nil || ok {
		t.Fatalf("get missing: ok=%v err=%v", ok, err)
	}

	rng := rand.New(rand.NewSource(99))
	nu := testObj(rng, 500)
	if err := c.Insert(nu); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if n, _ := c.Len(); n != 25 {
		t.Fatalf("len after insert = %d, want 25", n)
	}
	back, ok, err := c.Get(500)
	if err != nil || !ok {
		t.Fatalf("get 500: ok=%v err=%v", ok, err)
	}
	sameObject(t, back, nu, "insert round trip")

	nu2 := testObj(rng, 500)
	if err := c.Update(nu2); err != nil {
		t.Fatalf("update: %v", err)
	}
	back, _, _ = c.Get(500)
	sameObject(t, back, nu2, "update round trip")

	if found, err := c.Delete(500); err != nil || !found {
		t.Fatalf("delete: found=%v err=%v", found, err)
	}
	if found, err := c.Delete(500); err != nil || found {
		t.Fatalf("re-delete: found=%v err=%v", found, err)
	}
	if err := c.Insert(testObj(rng, 1)); !client.IsCode(err, "ERR") {
		t.Fatalf("duplicate insert error = %v, want ERR", err)
	}

	ctx := context.Background()
	q := testObj(rng, 0)
	wantKNN, err := store.Snapshot().KNN(ctx, q, 4, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	gotKNN, err := c.KNN(q, 4, 0.25)
	if err != nil {
		t.Fatalf("knn: %v", err)
	}
	if !reflect.DeepEqual(gotKNN, mustWire(t, wantKNN)) {
		t.Fatalf("knn answer differs from in-process result")
	}

	wantR, err := store.Snapshot().RKNN(ctx, q, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	gotR, err := c.RKNN(q, 2, 0.3)
	if err != nil {
		t.Fatalf("rknn: %v", err)
	}
	if !reflect.DeepEqual(gotR, mustWire(t, wantR)) {
		t.Fatalf("rknn answer differs from in-process result")
	}

	wantT, err := store.Snapshot().TopKNN(ctx, q, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	gotT, err := c.TopKNN(q, 3, 2)
	if err != nil {
		t.Fatalf("topknn: %v", err)
	}
	if !reflect.DeepEqual(gotT, mustWire(t, wantT)) {
		t.Fatalf("topknn answer differs from in-process result")
	}

	b, r := testObj(rng, 600), testObj(rng, 601)
	wantRD, err := store.Snapshot().InverseRank(ctx, b, r)
	if err != nil {
		t.Fatal(err)
	}
	wantInv, err := server.DecodeRankDist(server.EncodeRankDist(wantRD))
	if err != nil {
		t.Fatal(err)
	}
	gotInv, err := c.InvRank(b, r)
	if err != nil {
		t.Fatalf("invrank: %v", err)
	}
	if !reflect.DeepEqual(gotInv, wantInv) {
		t.Fatalf("invrank answer differs from in-process result")
	}

	reqs := []client.BatchReq{
		{Q: q, K: 3, Tau: 0.2},
		{Q: testObj(rng, 0), K: 5, Tau: 0.5},
		{Q: q, K: 3, Tau: 0.2},
	}
	qreqs := make([]query.KNNRequest, len(reqs))
	for i, rq := range reqs {
		qreqs[i] = query.KNNRequest{Q: rq.Q, K: rq.K, Tau: rq.Tau}
	}
	wantBatch, err := store.Snapshot().BatchKNN(ctx, qreqs)
	if err != nil {
		t.Fatal(err)
	}
	gotBatch, err := c.BatchKNN(reqs)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(gotBatch) != len(wantBatch) {
		t.Fatalf("batch: %d results, want %d", len(gotBatch), len(wantBatch))
	}
	for i := range wantBatch {
		if !reflect.DeepEqual(gotBatch[i], mustWire(t, wantBatch[i])) {
			t.Fatalf("batch result %d differs from in-process result", i)
		}
	}

	if v, err := c.WaitVersion(store.Version()); err != nil || v < store.Version() {
		t.Fatalf("waitversion = %d, %v; want >= %d", v, err, store.Version())
	}
}

func TestServerShardedBackend(t *testing.T) {
	store, err := query.NewShardedStore(testDB(2, 32), query.ShardedOptions{Shards: 4}, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, store, server.Options{})
	c := dial(t, addr)

	rng := rand.New(rand.NewSource(3))
	q := testObj(rng, 0)
	want, err := store.Snapshot().KNN(context.Background(), q, 4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.KNN(q, 4, 0.2)
	if err != nil {
		t.Fatalf("knn: %v", err)
	}
	if !reflect.DeepEqual(got, mustWire(t, want)) {
		t.Fatalf("sharded knn answer differs from in-process result")
	}
	if err := c.Insert(testObj(rng, 900)); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if n, err := c.Len(); err != nil || n != 33 {
		t.Fatalf("len = %d, %v; want 33", n, err)
	}
}

// rawConn speaks the protocol without the client package, for inline
// commands and protocol-violation behavior.
type rawConn struct {
	nc net.Conn
	r  *server.Reader
}

func rawDial(t testing.TB, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawConn{nc: nc, r: server.NewReader(nc)}
}

func (rc *rawConn) sendLine(t *testing.T, line string) {
	t.Helper()
	if _, err := rc.nc.Write([]byte(line)); err != nil {
		t.Fatal(err)
	}
}

func (rc *rawConn) read(t *testing.T) server.Frame {
	t.Helper()
	rc.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := rc.r.ReadFrame()
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	return f
}

func (rc *rawConn) wantError(t *testing.T, code string) {
	t.Helper()
	f := rc.read(t)
	got, _, ok := f.IsError()
	if !ok || got != code {
		t.Fatalf("reply %+v, want -%s error", f, code)
	}
}

func TestServerInlineAndErrors(t *testing.T) {
	store, err := query.NewStore(testDB(4, 8), testOpts)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, store, server.Options{})

	rc := rawDial(t, addr)
	rc.sendLine(t, "PING\r\n")
	if f := rc.read(t); f.Type != server.TSimple || f.Str != "PONG" {
		t.Fatalf("inline PING reply %+v", f)
	}
	rc.sendLine(t, "PING hello\r\n")
	if f := rc.read(t); f.Type != server.TBulk || string(f.Bulk) != "hello" {
		t.Fatalf("PING echo reply %+v", f)
	}
	rc.sendLine(t, "LEN\r\n")
	if f := rc.read(t); f.Type != server.TInt || f.Int != 8 {
		t.Fatalf("inline LEN reply %+v", f)
	}
	rc.sendLine(t, "BOGUS 1 2\r\n")
	rc.wantError(t, "UNKNOWN")
	rc.sendLine(t, "GET notanint\r\n")
	rc.wantError(t, "BADARG")
	rc.sendLine(t, "GET 1 2 3\r\n")
	rc.wantError(t, "BADARG")
	rc.sendLine(t, "KNN 0\r\n")
	rc.wantError(t, "BADARG")
	rc.sendLine(t, "SUBSCRIBE WALTZ 1 0.5 x\r\n")
	rc.wantError(t, "BADARG")
	// Still in sync after every error reply.
	rc.sendLine(t, "PING\r\n")
	if f := rc.read(t); f.Type != server.TSimple || f.Str != "PONG" {
		t.Fatalf("reply after errors %+v", f)
	}

	// A framing violation gets -PROTO and the connection closed.
	rc.sendLine(t, "$99999999999999\r\n")
	rc.wantError(t, "PROTO")
	rc.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := rc.r.ReadFrame(); err == nil {
		t.Fatal("connection survived a protocol violation")
	}

	// Non-array, non-inline frames are violations too.
	rc2 := rawDial(t, addr)
	rc2.sendLine(t, ":5\r\n")
	rc2.wantError(t, "PROTO")
	rc2.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := rc2.r.ReadFrame(); err == nil {
		t.Fatal("connection survived a non-command frame")
	}
}

// drainN reads exactly n events, failing on close or timeout.
func drainN(t *testing.T, sub *client.Sub, n int) []server.EventMsg {
	t.Helper()
	evs := make([]server.EventMsg, 0, n)
	timeout := time.After(10 * time.Second)
	for len(evs) < n {
		select {
		case ev, ok := <-sub.Events:
			if !ok {
				t.Fatalf("stream closed after %d/%d events (err %v)", len(evs), n, sub.Err())
			}
			evs = append(evs, ev)
		case <-timeout:
			t.Fatalf("timed out waiting for event %d/%d", len(evs)+1, n)
		}
	}
	return evs
}

// drainAll reads until the stream closes.
func drainAll(t *testing.T, sub *client.Sub) []server.EventMsg {
	t.Helper()
	var evs []server.EventMsg
	timeout := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-sub.Events:
			if !ok {
				return evs
			}
			evs = append(evs, ev)
		case <-timeout:
			t.Fatalf("timed out draining stream after %d events", len(evs))
		}
	}
}

// initialResultIDs returns the IDs a fresh subscription must announce
// as its initial result set, from an in-process query at the current
// version.
func initialResultIDs(t *testing.T, backend *query.Store, q *uncertain.Object, k int, tau float64) map[int]bool {
	t.Helper()
	ms, err := backend.Snapshot().KNN(context.Background(), q, k, tau)
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[int]bool)
	for _, m := range ms {
		if m.IsResult {
			ids[m.Object.ID] = true
		}
	}
	return ids
}

func TestServerEphemeralSubscription(t *testing.T) {
	db := testDB(5, 20)
	store, err := query.NewStore(db, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, store, server.Options{})
	c := dial(t, addr)

	// Query at an existing object's location: the initial result set is
	// non-empty (the object is its own near-certain nearest neighbor).
	q, err := uncertain.NewFlatObject(0, db[0].Dim(), db[0].Coords, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := initialResultIDs(t, store, q, 3, 0.2)
	if len(wantIDs) == 0 {
		t.Fatal("test query has an empty initial result set")
	}

	sub, err := c.Subscribe(client.SubOptions{Kind: "KNN", K: 3, Tau: 0.2, Q: q})
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if sub.Mode != server.ModeFull {
		t.Fatalf("mode %q, want %q", sub.Mode, server.ModeFull)
	}
	init := drainN(t, sub, len(wantIDs))
	gotIDs := make(map[int]bool)
	for _, ev := range init {
		if ev.Kind != server.EvEntered {
			t.Fatalf("initial event kind %q, want %q", ev.Kind, server.EvEntered)
		}
		gotIDs[ev.Object.ID] = true
	}
	if !reflect.DeepEqual(gotIDs, wantIDs) {
		t.Fatalf("initial result IDs %v, want %v", gotIDs, wantIDs)
	}

	// Deleting a current member must push a "left" event.
	var member int
	for id := range wantIDs {
		member = id
		break
	}
	if found, err := c.Delete(member); err != nil || !found {
		t.Fatalf("delete member: found=%v err=%v", found, err)
	}
	// The delete can emit several events at the same version — a
	// replacement pulled into the k-set "enters", surviving members'
	// bounds may shift — ordered by ascending ID, so the "left" push is
	// not necessarily first. Drain until it arrives.
	var left server.EventMsg
	for i := 0; ; i++ {
		if i >= 8 {
			t.Fatalf("no %q event for object %d after delete", server.EvLeft, member)
		}
		ev := drainN(t, sub, 1)[0]
		if ev.Kind == server.EvLeft {
			left = ev
			break
		}
	}
	if left.Object.ID != member {
		t.Fatalf("left object %d, want %d", left.Object.ID, member)
	}

	// Unsubscribe: the stream ends with the terminal push and closes.
	if err := c.Unsubscribe(sub); err != nil {
		t.Fatalf("unsubscribe: %v", err)
	}
	tail := drainAll(t, sub)
	if len(tail) == 0 || tail[len(tail)-1].Kind != server.EvEnd {
		t.Fatalf("stream did not end with an end event: %+v", tail)
	}
	if r := tail[len(tail)-1].Reason; r != server.EndUnsubscribed {
		t.Fatalf("end reason %q, want %q", r, server.EndUnsubscribed)
	}
	if err := sub.Err(); err != nil {
		t.Fatalf("sub err after clean end: %v", err)
	}

	// Named subscriptions need a durable cursor on this server.
	if _, err := c.Subscribe(client.SubOptions{Kind: "KNN", K: 3, Tau: 0.2, Q: q, Name: "w"}); !client.IsCode(err, "NODURABLE") {
		t.Fatalf("named subscribe on cursorless server: %v, want NODURABLE", err)
	}
}

func TestServerGracefulShutdown(t *testing.T) {
	db := testDB(6, 12)
	store, err := query.NewStore(db, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(store, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q, err := uncertain.NewFlatObject(0, db[0].Dim(), db[0].Coords, nil)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(client.SubOptions{Kind: "KNN", K: 2, Tau: 0.3, Q: q})
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	// The subscriber got everything including the terminal "closed" push.
	evs := drainAll(t, sub)
	if len(evs) == 0 {
		t.Fatal("no events before shutdown close")
	}
	last := evs[len(evs)-1]
	if last.Kind != server.EvEnd || last.Reason != server.EndClosed {
		t.Fatalf("last event %+v, want end/%s", last, server.EndClosed)
	}

	// The server refuses further service.
	if _, err := client.Dial(ln.Addr().String()); err == nil {
		// Dial may succeed briefly before the OS reaps the listener;
		// commands must fail either way.
		c2, _ := client.Dial(ln.Addr().String())
		if c2 != nil {
			if err := c2.Ping(); err == nil {
				t.Fatal("ping succeeded after server close")
			}
			c2.Close()
		}
	}
}

// TestSubscribeInitialSetBound: the session ring's Retain is the one
// bound on an initial result set. A set larger than the ring fails
// SUBSCRIBE with an error reply — no session, no cq subscription, the
// connection still serving — while a set larger than 4096 events, but
// within Retain, subscribes and arrives whole.
func TestSubscribeInitialSetBound(t *testing.T) {
	const n, retain = 4200, 4150
	db := make(uncertain.Database, n)
	for i := range db {
		// Point objects on a line the query object ends: at tau = 0
		// every object is a result, decided by the first IDCA bound,
		// and each run's filter settles all but one index path wholesale.
		o, err := uncertain.NewObject(i+1, []geom.Point{{float64(i) * 0.01, 0}})
		if err != nil {
			t.Fatal(err)
		}
		db[i] = o
	}
	store, err := query.NewStore(db, core.Options{MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, store, server.Options{Retain: retain})
	c := dial(t, addr)
	q, err := uncertain.NewObject(0, []geom.Point{{-1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	opts := client.SubOptions{Kind: "KNN", K: 1, Tau: 0, Q: q}

	if _, err := c.Subscribe(opts); !client.IsCode(err, "ERR") {
		t.Fatalf("subscribe with a %d-event initial set over a %d-event ring: %v, want -ERR", n, retain, err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection after the refused subscribe: %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["server.sessions"] != 0 || srv.Monitor().NumSubscriptions() != 0 {
		t.Fatalf("refused subscribe left %d sessions, %d cq subscriptions", st["server.sessions"], srv.Monitor().NumSubscriptions())
	}

	for id := 1; id <= 100; id++ {
		if _, err := store.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := c.Subscribe(opts)
	if err != nil {
		t.Fatalf("subscribe with a %d-event initial set: %v", n-100, err)
	}
	evs := drainN(t, sub, n-100)
	assertAscending(t, evs)
	for _, ev := range evs {
		if ev.Kind != server.EvEntered {
			t.Fatalf("initial event %+v, want entered", ev)
		}
	}
}
