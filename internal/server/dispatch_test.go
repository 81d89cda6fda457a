package server_test

import (
	"strings"
	"testing"

	"probprune/internal/geom"
	"probprune/internal/query"
	"probprune/internal/server"
	"probprune/internal/uncertain"
)

// overflowBatch is a BATCH count whose 1+3n wraps to 3 in 64-bit
// arithmetic, the argument count of the frame that carries it.
const overflowBatch = "6148914691236517206"

// TestBatchCountOverflow: a BATCH count that overflows the argument
// arithmetic gets an error reply, and the connection keeps serving.
func TestBatchCountOverflow(t *testing.T) {
	store, err := query.NewStore(testDB(7, 16), testOpts)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, store, server.Options{})
	rc := rawDial(t, addr)
	rc.sendArgs(t, "BATCH", overflowBatch, "a", "b")
	rc.wantError(t, "BADARG")
	rc.sendArgs(t, "PING")
	if f := rc.read(t); f.Type != server.TSimple || f.Str != "PONG" {
		t.Fatalf("PING after the overflow batch: %+v", f)
	}
	q := string(server.EncodeObject(uncertain.PointObject(-1, geom.Point{4, 4})))
	rc.sendArgs(t, "BATCH", "1", "3", "0.5", q)
	if f := rc.read(t); f.Type != server.TArray || len(f.Array) != 1 {
		t.Fatalf("BATCH 1 after the overflow batch: %+v", f)
	}
}

// FuzzDispatch feeds argument lists, one per line of args, to the
// one-shot commands of a served 50-object store, with and without a
// trailing TRACE. No argument list may panic the server, and the
// connection must still answer PING after every reply.
func FuzzDispatch(f *testing.F) {
	commands := []string{"KNN", "RKNN", "TOPKNN", "INVRANK", "BATCH", "GET", "LEN", "EVENTS"}
	store, err := query.NewStore(testDB(5, 50), testOpts)
	if err != nil {
		f.Fatal(err)
	}
	_, addr := startServer(f, store, server.Options{})
	rc := rawDial(f, addr)

	obj := string(server.EncodeObject(uncertain.PointObject(-1, geom.Point{4, 4})))
	f.Add(uint8(4), overflowBatch+"\na\nb", false)
	for _, trace := range []bool{false, true} {
		f.Add(uint8(0), "3\n0.5\n"+obj, trace)
		f.Add(uint8(1), "2\n0.3\n"+obj, trace)
		f.Add(uint8(2), "3\n2\n"+obj, trace)
		f.Add(uint8(3), obj+"\n"+obj, trace)
		f.Add(uint8(4), "2\n1\n0.5\n"+obj+"\n3\n0.9\n"+obj, trace)
		f.Add(uint8(5), "7", trace)
		f.Add(uint8(6), "", trace)
		f.Add(uint8(7), "2", trace)
	}
	f.Add(uint8(0), "-1\nNaN\n"+obj, false)
	f.Add(uint8(2), "100\n-5\n"+obj, false)

	f.Fuzz(func(t *testing.T, cmd uint8, args string, trace bool) {
		if len(args) > 1<<12 {
			return // far below the frame limits, which are the decoder's
		}
		argv := []string{commands[int(cmd)%len(commands)]}
		if args != "" {
			argv = append(argv, strings.Split(args, "\n")...)
		}
		if trace {
			argv = append(argv, "TRACE")
		}
		rc.sendArgs(t, argv...)
		rc.read(t)
		rc.sendArgs(t, "PING")
		if f := rc.read(t); f.Type != server.TSimple || f.Str != "PONG" {
			t.Fatalf("%q: then PING answered %+v", argv, f)
		}
	})
}
