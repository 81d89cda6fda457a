package server_test

import (
	"testing"

	"probprune/internal/geom"
	"probprune/internal/query"
	"probprune/internal/server"
	"probprune/internal/server/client"
	"probprune/internal/uncertain"
	"probprune/internal/wal"
)

// wrongDim is a 3-D object for a store of 2-D objects.
func wrongDim(t *testing.T, id int) *uncertain.Object {
	t.Helper()
	o, err := uncertain.NewObject(id, []geom.Point{{1, 0, 0.5}, {0.5, 0.5, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// sendWrongDim sends every command that carries an object, each with a
// 3-D object against the 2-D store: mutations must be refused with
// nothing stored, queries and subscriptions refused with -ERR, and the
// connection and server must keep serving.
func sendWrongDim(t *testing.T, c *client.Client, db uncertain.Database) {
	t.Helper()
	q := wrongDim(t, -1)
	good := db[0]
	refused := func(what string, err error) {
		t.Helper()
		if !client.IsCode(err, "ERR") {
			t.Fatalf("%s with a 3-D object: %v, want -ERR", what, err)
		}
	}
	_, err := c.KNN(q, 5, 0.5)
	refused("KNN", err)
	_, err = c.RKNN(q, 5, 0.5)
	refused("RKNN", err)
	_, err = c.TopKNN(q, 5, 3)
	refused("TOPKNN", err)
	_, err = c.InvRank(q, good)
	refused("INVRANK (object)", err)
	_, err = c.InvRank(good, q)
	refused("INVRANK (reference)", err)
	_, err = c.BatchKNN([]client.BatchReq{{Q: good, K: 2, Tau: 0.5}, {Q: q, K: 2, Tau: 0.5}})
	refused("BATCH", err)
	_, err = c.Subscribe(client.SubOptions{Kind: "KNN", K: 3, Tau: 0.5, Q: q})
	refused("SUBSCRIBE KNN", err)
	_, err = c.Subscribe(client.SubOptions{Kind: "RKNN", K: 3, Tau: 0.5, Q: q})
	refused("SUBSCRIBE RKNN", err)
	refused("INSERT", c.Insert(wrongDim(t, 5000)))
	refused("UPDATE", c.Update(wrongDim(t, good.ID)))

	if err := c.Ping(); err != nil {
		t.Fatalf("PING after the refusals: %v", err)
	}
	if n, err := c.Len(); err != nil || n != len(db) {
		t.Fatalf("LEN after the refused mutations = %d, %v; want %d", n, err, len(db))
	}
	if o, ok, err := c.Get(good.ID); err != nil || !ok || o.Dim() != 2 {
		t.Fatalf("GET %d after the refused UPDATE: %v %v %v", good.ID, o, ok, err)
	}
	if _, ok, err := c.Get(5000); err != nil || ok {
		t.Fatalf("GET of the refused INSERT: found=%v err=%v", ok, err)
	}
	ms, err := c.KNN(good, 3, 0.5) // a decoded copy: every stored object is a candidate
	if err != nil || len(ms) != len(db) {
		t.Fatalf("valid KNN after the refusals: %d matches, %v", len(ms), err)
	}
}

// TestWrongDimensionRefused: a request carrying an object of another
// dimension than the store's gets an error reply and changes nothing;
// it neither kills the server nor poisons the store for later queries.
func TestWrongDimensionRefused(t *testing.T) {
	db := testDB(12, 30)
	store, err := query.NewStore(db, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, store, server.Options{})
	sendWrongDim(t, dial(t, addr), db)
}

// TestWrongDimensionRefusedDurable: on a durable store a refused
// mutation is never journaled, so a restart recovers the store without
// it.
func TestWrongDimensionRefusedDurable(t *testing.T) {
	db := testDB(13, 30)
	dir := t.TempDir()
	popts := query.PersistOptions{Dir: dir, Sync: wal.SyncAlways}
	store, err := query.BootstrapStore(db, popts, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServerManual(t, store, server.Options{CursorPath: dir + "/cursor"})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	sendWrongDim(t, c, db)
	c.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := query.OpenStore(popts, testOpts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { reopened.Close() })
	_, addr = startServer(t, reopened, server.Options{CursorPath: dir + "/cursor"})
	c2 := dial(t, addr)
	if n, err := c2.Len(); err != nil || n != len(db) {
		t.Fatalf("LEN after restart = %d, %v; want %d", n, err, len(db))
	}
	if ms, err := c2.KNN(db[0], 3, 0.5); err != nil || len(ms) != len(db) {
		t.Fatalf("KNN after restart: %d matches, %v", len(ms), err)
	}
}
