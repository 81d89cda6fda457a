package server_test

// Edge-path tests: wire-codec validation against malformed payloads,
// argument errors for every command, server lifecycle entry points and
// the non-default option values. The happy paths live in
// server_test.go / durable_test.go; the equivalence and e2e tiers
// cover semantics.

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"probprune/internal/geom"
	"probprune/internal/query"
	"probprune/internal/server"
	"probprune/internal/server/client"
	"probprune/internal/uncertain"
)

// sendArgs writes a command in the canonical array-of-bulks form, for
// arguments (like encoded objects) that inline commands cannot carry.
func (rc *rawConn) sendArgs(t *testing.T, args ...string) {
	t.Helper()
	elems := make([]server.Frame, len(args))
	for i, a := range args {
		elems[i] = server.Frame{Type: server.TBulk, Bulk: []byte(a)}
	}
	w := server.NewWriter(rc.nc)
	if err := w.WriteFrame(server.Frame{Type: server.TArray, Array: elems}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyString(t *testing.T) {
	if got := server.PolicyDisconnect.String(); got != "disconnect" {
		t.Errorf("PolicyDisconnect.String() = %q", got)
	}
	if got := server.PolicyDropOldest.String(); got != "dropoldest" {
		t.Errorf("PolicyDropOldest.String() = %q", got)
	}
}

// TestWireObjectFull round-trips an object carrying every optional
// field (explicit weights, existential uncertainty) and rejects the
// malformed encodings a hostile client could send.
func TestWireObjectFull(t *testing.T) {
	o, err := uncertain.NewWeightedObject(7,
		[]geom.Point{{1, 2}, {3, 4}, {5, 6}},
		[]float64{0.5, 0.25, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SetExistence(0.75); err != nil {
		t.Fatal(err)
	}
	enc := server.EncodeObject(o)
	dec, err := server.DecodeObject(enc)
	if err != nil {
		t.Fatal(err)
	}
	sameObject(t, dec, o, "weighted+existential round trip")
	if dec.Existence != o.Existence {
		t.Errorf("existence %v, want %v", dec.Existence, o.Existence)
	}
	if len(dec.Weights) != 3 || dec.Weights[0] != 0.5 {
		t.Errorf("weights %v, want %v", dec.Weights, o.Weights)
	}

	// Unnormalized weights are renormalized on decode.
	dec, err = server.DecodeObject([]byte("1 1 2 1 0 1 2 2"))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Weights[0] != 0.5 || dec.Weights[1] != 0.5 {
		t.Errorf("renormalized weights %v, want [0.5 0.5]", dec.Weights)
	}

	bad := []string{
		"1 1",             // too few tokens
		"x 1 1 0 0",       // bad id
		"1 x 1 0 0",       // bad dimension
		"1 0 1 0 0",       // dimension < 1
		"1 100 1 0 0",     // dimension > max
		"1 1 x 0 0",       // bad sample count
		"1 1 0 0",         // sample count < 1
		"1 1 1 x 0",       // bad flags
		"1 1 1 9 0",       // flags out of range
		"1 1 1 0 0 0",     // token count mismatch
		"1 1 1 0 NaN",     // NaN coordinate
		"1 1 1 0 +Inf",    // infinite coordinate
		"1 1 1 0 z",       // unparseable coordinate
		"1 1 1 1 0 x",     // bad weight
		"1 1 1 1 0 -1",    // negative weight
		"1 1 2 1 0 1 0 0", // zero total weight
		"1 1 1 2 0 x",     // bad existence
		"1 1 1 2 0 0",     // existence <= 0
		"1 1 1 2 0 2",     // existence > 1
	}
	for _, s := range bad {
		if _, err := server.DecodeObject([]byte(s)); err == nil {
			t.Errorf("DecodeObject(%q) accepted malformed payload", s)
		}
	}
}

// TestWireDecodeErrors drives the reply decoders with frames a broken
// or hostile server could emit.
func TestWireDecodeErrors(t *testing.T) {
	bulkF := func(s string) server.Frame { return server.Frame{Type: server.TBulk, Bulk: []byte(s)} }
	intF := func(n int64) server.Frame { return server.Frame{Type: server.TInt, Int: n} }
	arr := func(elems ...server.Frame) server.Frame {
		return server.Frame{Type: server.TArray, Array: elems}
	}
	pushF := func(elems ...server.Frame) server.Frame {
		return server.Frame{Type: server.TPush, Array: elems}
	}
	goodObj := string(server.EncodeObject(uncertain.PointObject(1, geom.Point{0, 0})))

	badMatches := []server.Frame{
		intF(1),           // not an array
		arr(intF(1)),      // element not an array
		arr(arr(intF(1))), // wrong element count
		arr(arr(bulkF("x"), bulkF("a"), bulkF("b"), intF(0), intF(0), intF(0))), // wrong types
		arr(arr(intF(1), bulkF("x"), bulkF("1"), intF(0), intF(0), intF(0))),    // bad lb
		arr(arr(intF(1), bulkF("1"), bulkF("x"), intF(0), intF(0), intF(0))),    // bad ub
	}
	for i, f := range badMatches {
		if _, err := server.DecodeMatches(f); err == nil {
			t.Errorf("DecodeMatches case %d accepted malformed frame", i)
		}
	}

	badRank := []server.Frame{
		intF(1),                                 // not an array
		arr(),                                   // empty
		arr(intF(1), bulkF("0.5")),              // even element count
		arr(bulkF("x"), bulkF("0"), bulkF("1")), // minrank not int
		arr(intF(1), intF(0), bulkF("1")),       // bound not bulk
		arr(intF(1), bulkF("x"), bulkF("1")),    // bad lb
		arr(intF(1), bulkF("0"), bulkF("x")),    // bad ub
	}
	for i, f := range badRank {
		if _, err := server.DecodeRankDist(f); err == nil {
			t.Errorf("DecodeRankDist case %d accepted malformed frame", i)
		}
	}

	badEvents := []server.Frame{
		intF(1),                      // not a push
		pushF(intF(1), bulkF("end")), // too short
		pushF(bulkF("x"), bulkF("end"), bulkF("r")), // malformed header
		pushF(intF(1), bulkF("end"), intF(0)),       // end reason not bulk
		pushF(intF(1), bulkF("entered"), intF(0)),   // event frame too short
		pushF(intF(1), bulkF("entered"), intF(0), bulkF("zz"),
			bulkF("0"), bulkF("1"), intF(1), intF(1), intF(0)), // bad object
		pushF(intF(1), bulkF("entered"), intF(0), bulkF(goodObj),
			bulkF("x"), bulkF("1"), intF(1), intF(1), intF(0)), // bad lb
	}
	for i, f := range badEvents {
		if _, err := server.DecodeEvent(f); err == nil {
			t.Errorf("DecodeEvent case %d accepted malformed frame", i)
		}
	}
}

// TestServerLifecycle exercises ListenAndServe/Addr/Close and the
// non-default option values (every accessor's explicit branch), plus
// the Logf diagnostic hook on a protocol violation.
func TestServerLifecycle(t *testing.T) {
	store, err := query.NewStore(testDB(9, 8), testOpts)
	if err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	srv := server.New(store, server.Options{
		CursorPath:   filepath.Join(t.TempDir(), "cursor"),
		CursorEvery:  64,
		Retain:       256,
		OutQueue:     32,
		DrainTimeout: 2 * time.Second,
		Logf:         func(format string, args ...any) { fmt.Fprintf(&logged, format+"\n", args...) },
	})
	if srv.Addr() != nil {
		t.Fatal("Addr non-nil before Serve")
	}
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0") }()
	var addr string
	for i := 0; i < 500; i++ {
		if a := srv.Addr(); a != nil {
			addr = a.String()
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if addr == "" {
		t.Fatal("ListenAndServe never bound")
	}
	cl := dial(t, addr)
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}

	// A protocol violation reaches the Logf hook.
	rc := rawDial(t, addr)
	rc.sendLine(t, "$99999999999999\r\n")
	rc.wantError(t, "PROTO")
	for i := 0; i < 500 && logged.Len() == 0; i++ {
		time.Sleep(2 * time.Millisecond)
	}
	if !strings.Contains(logged.String(), "protocol violation") {
		t.Errorf("Logf did not receive the violation diagnostic: %q", logged.String())
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// Serve on a closed server refuses; a bad listen address errors.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln); err == nil {
		t.Fatal("Serve on closed server succeeded")
	}
	if err := server.New(store, server.Options{}).ListenAndServe("256.256.256.256:0"); err == nil {
		t.Fatal("ListenAndServe on bad address succeeded")
	}

	// An accept failure that is not a close surfaces as Serve's error.
	srv2 := server.New(store, server.Options{})
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln2.Close()
	if err := srv2.Serve(ln2); err == nil {
		t.Fatal("Serve swallowed the accept error")
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServerArgumentErrors walks every command's argument validation.
func TestServerArgumentErrors(t *testing.T) {
	db := testDB(11, 8)
	store, err := query.NewStore(db, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, store, server.Options{})
	rc := rawDial(t, addr)
	obj := string(server.EncodeObject(uncertain.PointObject(-1, geom.Point{0.5, 0.5})))

	badarg := [][]string{
		{"GET"},
		{"DELETE"},
		{"DELETE", "x"},
		{"INSERT"},
		{"INSERT", "zz"},
		{"UPDATE", "zz"},
		{"KNN", "x", "0.5", obj},
		{"KNN", "1", "x", obj},
		{"KNN", "1", "0.5", "zz"},
		{"TOPKNN"},
		{"TOPKNN", "x", "1", obj},
		{"TOPKNN", "1", "x", obj},
		{"TOPKNN", "1", "1", "zz"},
		{"INVRANK"},
		{"INVRANK", "zz", obj},
		{"INVRANK", obj, "zz"},
		{"BATCH"},
		{"BATCH", "x"},
		{"BATCH", "-1"},
		{"BATCH", "2", "1", "0.5", obj},
		{"BATCH", "1", "x", "0.5", obj},
		{"BATCH", "1", "1", "x", obj},
		{"BATCH", "1", "1", "0.5", "zz"},
		{"WAITVERSION"},
		{"WAITVERSION", "-1"},
		{"UNSUBSCRIBE"},
		{"UNSUBSCRIBE", "x"},
		{"SUBSCRIBE", "KNN", "1", "0.5"},
		{"SUBSCRIBE", "KNN", "x", "0.5", obj},
		{"SUBSCRIBE", "KNN", "1", "x", obj},
		{"SUBSCRIBE", "KNN", "1", "0.5", "zz"},
		{"SUBSCRIBE", "KNN", "1", "0.5", obj, "NAME", ""},
		{"SUBSCRIBE", "KNN", "1", "0.5", obj, "POLICY", "bogus"},
		{"SUBSCRIBE", "KNN", "1", "0.5", obj, "WALTZ"},
		{"RESUME", "n", "0", "0"},
		{"RESUME", "n", "x", "0", "KNN", "1", "0.5", obj},
		{"RESUME", "n", "0", "x", "KNN", "1", "0.5", obj},
		{"RESUME", "n", "0", "0", "KNN", "1", "x", obj},
	}
	for _, args := range badarg {
		rc.sendArgs(t, args...)
		rc.wantError(t, "BADARG")
	}

	// Command-level (non-BADARG) failures keep the connection usable.
	rc.sendArgs(t, "INSERT", string(server.EncodeObject(db[0]))) // duplicate ID
	rc.wantError(t, "ERR")
	rc.sendArgs(t, "UPDATE", obj) // no such object
	rc.wantError(t, "ERR")
	rc.sendArgs(t, "UNSUBSCRIBE", "99")
	rc.wantError(t, "ERR")
	rc.sendArgs(t, "GET", "424242")
	if f := rc.read(t); f.Type != server.TBulk || !f.Null {
		t.Fatalf("GET miss reply %+v, want null bulk", f)
	}

	// Durable features on a server without a cursor path.
	rc.sendArgs(t, "SUBSCRIBE", "KNN", "1", "0.5", obj, "NAME", "n")
	rc.wantError(t, "NODURABLE")
	rc.sendArgs(t, "RESUME", "n", "0", "0", "KNN", "1", "0.5", obj)
	rc.wantError(t, "NODURABLE")

	rc.sendLine(t, "PING\r\n")
	if f := rc.read(t); f.Type != server.TSimple || f.Str != "PONG" {
		t.Fatalf("connection unusable after error replies: %+v", f)
	}
}

// TestSubscribeCursorMismatch: re-creating a named subscription with a
// different predicate than its durable cursor remembers is refused,
// and FRESH overrides by discarding the cursor.
func TestSubscribeCursorMismatch(t *testing.T) {
	db := testDB(13, 12)
	store, err := query.NewStore(db, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, store, server.Options{
		CursorPath: filepath.Join(t.TempDir(), "cursor"),
	})
	cl := dial(t, addr)
	q := uncertain.PointObject(-1, db[0].Samples[0])

	sub, err := cl.Subscribe(client.SubOptions{Kind: "KNN", K: 2, Tau: 0.2, Q: q, Name: "m"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Unsubscribe(sub); err != nil {
		t.Fatal(err)
	}
	drainAll(t, sub)

	// The session retires asynchronously after its terminal push; a
	// SUBSCRIBE that races it draws BUSY, then the cursor mismatch.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err = cl.Subscribe(client.SubOptions{Kind: "KNN", K: 3, Tau: 0.2, Q: q, Name: "m"})
		if !client.IsCode(err, "BUSY") || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !client.IsCode(err, "CURSORMISMATCH") {
		t.Fatalf("predicate change accepted: err=%v", err)
	}

	sub2, err := cl.Subscribe(client.SubOptions{
		Kind: "KNN", K: 3, Tau: 0.2, Q: q, Name: "m", Fresh: true})
	if err != nil {
		t.Fatalf("FRESH re-subscribe: %v", err)
	}
	if sub2.Mode != server.ModeFull {
		t.Fatalf("FRESH mode %q, want %q", sub2.Mode, server.ModeFull)
	}
	if err := cl.Unsubscribe(sub2); err != nil {
		t.Fatal(err)
	}
	drainAll(t, sub2)
}
