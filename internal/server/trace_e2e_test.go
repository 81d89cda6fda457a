package server_test

import (
	"context"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"probprune/internal/obs"
	"probprune/internal/query"
	"probprune/internal/server"
	"probprune/internal/wal"
)

// TestTraceWireEquivalence: a KNN ... TRACE round trip over real TCP
// returns the same query anatomy an in-process traced KNN records —
// the wire adds transport, not a different execution. Covered for both
// a one-shard and a 4-shard Store.
func TestTraceWireEquivalence(t *testing.T) {
	db := testDB(11, 48)
	q := testObj(rand.New(rand.NewSource(77)), -1)

	backends := map[string]*query.Store{}
	store, err := query.NewStore(db, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	backends["store"] = store
	sharded, err := query.NewShardedStore(db, query.ShardedOptions{Shards: 4}, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sharded.Close() })
	backends["sharded"] = sharded

	for name, backend := range backends {
		t.Run(name, func(t *testing.T) {
			_, addr := startServer(t, backend, server.Options{})
			cl := dial(t, addr)

			// In-process reference trace on the same backend. One warm-up
			// query first so the decomposition-cache state matches between
			// the reference run and the wire run.
			if _, _, err := cl.KNNTrace(q, 5, 0.3); err != nil {
				t.Fatal(err)
			}
			var ref obs.Trace
			ctx := obs.WithTrace(context.Background(), &ref)
			if _, err := backend.Snapshot().KNN(ctx, q, 5, 0.3); err != nil {
				t.Fatal(err)
			}
			refSnap := ref.Snapshot()

			matches, wireSnap, err := cl.KNNTrace(q, 5, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			if len(matches) == 0 {
				t.Fatal("traced KNN returned no matches on a 48-object database")
			}
			if wireSnap.Candidates != refSnap.Candidates ||
				wireSnap.Preselected != refSnap.Preselected ||
				wireSnap.Refined != refSnap.Refined ||
				wireSnap.Undecided != refSnap.Undecided ||
				wireSnap.Iterations != refSnap.Iterations {
				t.Fatalf("wire trace diverges from in-process trace:\nwire %+v\nref  %+v", wireSnap, refSnap)
			}
			if wireSnap.Candidates == 0 {
				t.Fatal("trace shows zero candidates — the trace was not threaded through the query")
			}
			// The wire trace carries spans no in-process run has: the
			// dispatch queue time is always measured.
			if wireSnap.Queue <= 0 {
				t.Fatalf("traced wire query has no queue span: %+v", wireSnap)
			}

			// Untraced queries still work and equal the traced results.
			plain, err := cl.KNN(q, 5, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			if len(plain) != len(matches) {
				t.Fatalf("traced (%d) and untraced (%d) results differ", len(matches), len(plain))
			}
		})
	}
}

// TestTracedMutationWALWait: a TRACE-flagged INSERT against a durable
// SyncAlways store reports the WAL-wait span — the time the command
// spent inside the commit's fsync — while a volatile store reports
// none.
func TestTracedMutationWALWait(t *testing.T) {
	db := testDB(5, 12)
	durable, err := query.BootstrapStore(db, query.PersistOptions{
		Dir: t.TempDir(), Sync: wal.SyncAlways}, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { durable.Close() })
	_, addr := startServer(t, durable, server.Options{CursorPath: filepath.Join(t.TempDir(), "cursor")})
	cl := dial(t, addr)

	o := testObj(rand.New(rand.NewSource(31)), 9001)
	ts, err := cl.InsertTrace(o)
	if err != nil {
		t.Fatal(err)
	}
	if ts.WALWait <= 0 {
		t.Fatalf("durable traced INSERT reports no WAL wait: %+v", ts)
	}
	if ts.Queue <= 0 {
		t.Fatalf("traced INSERT has no queue span: %+v", ts)
	}
	found, dts, err := cl.DeleteTrace(9001)
	if err != nil || !found {
		t.Fatalf("traced DELETE: found=%v err=%v", found, err)
	}
	if dts.WALWait <= 0 {
		t.Fatalf("durable traced DELETE reports no WAL wait: %+v", dts)
	}

	vol, err := query.NewStore(testDB(6, 12), testOpts)
	if err != nil {
		t.Fatal(err)
	}
	_, vaddr := startServer(t, vol, server.Options{})
	vcl := dial(t, vaddr)
	vts, err := vcl.InsertTrace(testObj(rand.New(rand.NewSource(32)), 9002))
	if err != nil {
		t.Fatal(err)
	}
	if vts.WALWait != 0 {
		t.Fatalf("volatile traced INSERT reports WAL wait %v", vts.WALWait)
	}
}

// TestTracedErrorNotWrapped: an invalid TRACE-flagged command returns a
// plain error reply, not a traced array — the client surfaces the
// server error verbatim.
func TestTracedErrorNotWrapped(t *testing.T) {
	store, err := query.NewStore(testDB(3, 8), testOpts)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, store, server.Options{})
	rc := rawDial(t, addr)
	// KNN with a bad arg count plus the TRACE flag: the flag is
	// stripped, the handler rejects the args, and the error frame goes
	// out bare.
	rc.sendArgs(t, "KNN", "nonsense", "TRACE")
	if f := rc.read(t); f.Type != server.TError {
		t.Fatalf("traced bad KNN replied %q frame, want bare error", f.Type)
	}
	// The connection survives: the error frame was not wrapped into a
	// malformed traced reply, and dispatch continues.
	rc.sendArgs(t, "PING")
	if f := rc.read(t); f.Type != server.TSimple || f.Str != "PONG" {
		t.Fatalf("connection broken after traced error: %+v", f)
	}
}

// TestVersionIdentity: VERSION carries the server's runtime identity
// alongside the store version.
func TestVersionIdentity(t *testing.T) {
	store, err := query.NewStore(testDB(2, 8), testOpts)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, store, server.Options{})
	cl := dial(t, addr)

	info, err := cl.ServerInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != store.Version() {
		t.Fatalf("info.Version = %d, want %d", info.Version, store.Version())
	}
	if info.GoVersion != runtime.Version() {
		t.Fatalf("info.GoVersion = %q, want %q", info.GoVersion, runtime.Version())
	}
	if info.GoMaxProcs != runtime.GOMAXPROCS(0) {
		t.Fatalf("info.GoMaxProcs = %d, want %d", info.GoMaxProcs, runtime.GOMAXPROCS(0))
	}
	if info.UptimeSeconds < 0 || info.UptimeSeconds > 3600 {
		t.Fatalf("info.UptimeSeconds = %d implausible", info.UptimeSeconds)
	}
	// The legacy Version accessor still answers through the new reply.
	v, err := cl.Version()
	if err != nil || v != store.Version() {
		t.Fatalf("Version() = %d, %v", v, err)
	}
}

// TestEventsCommand: with a slow-query threshold of one nanosecond
// every query is "slow", so the flight recorder captures it with its
// full trace, and EVENTS serves it over the wire — full dump and
// newest-n forms.
func TestEventsCommand(t *testing.T) {
	store, err := query.NewStore(testDB(4, 32), testOpts)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, store, server.Options{SlowQuery: time.Nanosecond})
	cl := dial(t, addr)

	q := testObj(rand.New(rand.NewSource(21)), -1)
	if _, err := cl.KNN(q, 3, 0.3); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.KNN(q, 3, 0.3); err != nil {
		t.Fatal(err)
	}

	evs, err := cl.Events(0)
	if err != nil {
		t.Fatal(err)
	}
	var slow []server.RecorderEvent
	for _, ev := range evs {
		if ev.Kind == "slow_query" {
			slow = append(slow, ev)
		}
	}
	if len(slow) < 2 {
		t.Fatalf("recorder captured %d slow-query events, want >= 2 (events: %+v)", len(slow), evs)
	}
	last := slow[len(slow)-1]
	if last.Note != "knn" {
		t.Fatalf("slow-query note = %q, want knn", last.Note)
	}
	if !last.HasTrace || last.Trace.Candidates == 0 {
		t.Fatalf("slow-query event carries no trace: %+v", last)
	}
	if last.Dur <= 0 {
		t.Fatalf("slow-query event has no duration: %+v", last)
	}

	// Newest-n: EVENTS 1 returns exactly the latest event.
	one, err := cl.Events(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 {
		t.Fatalf("EVENTS 1 returned %d events", len(one))
	}
	if one[0].Seq != evs[len(evs)-1].Seq {
		t.Fatalf("EVENTS 1 returned seq %d, want newest %d", one[0].Seq, evs[len(evs)-1].Seq)
	}
}
