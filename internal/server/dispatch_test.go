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

// TestThresholdQueriesRefuseNaNTau: a NaN tau, which would refine every
// candidate to full depth, gets an error reply from KNN, RKNN, BATCH
// and SUBSCRIBE, and the connection keeps serving. So does any other
// tau outside [0, 1], as SUBSCRIBE already refused it.
func TestThresholdQueriesRefuseNaNTau(t *testing.T) {
	store, err := query.NewStore(testDB(7, 16), testOpts)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, store, server.Options{})
	rc := rawDial(t, addr)
	q := string(server.EncodeObject(uncertain.PointObject(-1, geom.Point{4, 4})))
	for _, tau := range []string{"NaN", "-0.5", "1.5", "+Inf", "-Inf"} {
		for _, argv := range [][]string{
			{"KNN", "5", tau, q},
			{"RKNN", "3", tau, q},
			{"BATCH", "2", "3", "0.5", q, "5", tau, q},
		} {
			rc.sendArgs(t, argv...)
			rc.wantError(t, "ERR")
		}
	}
	rc.sendArgs(t, "SUBSCRIBE", "KNN", "5", "NaN", q)
	if f := rc.read(t); f.Type != server.TError {
		t.Fatalf("SUBSCRIBE with a NaN tau: %+v", f)
	}
	rc.sendArgs(t, "KNN", "5", "0.5", q)
	if f := rc.read(t); f.Type != server.TArray {
		t.Fatalf("KNN after the refusals: %+v", f)
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
	// Thresholds outside [0, 1], and k <= 0.
	for _, tau := range []string{"NaN", "+Inf", "-Inf", "-0.5", "1.5"} {
		f.Add(uint8(0), "5\n"+tau+"\n"+obj, false)
		f.Add(uint8(1), "3\n"+tau+"\n"+obj, false)
		f.Add(uint8(4), "1\n5\n"+tau+"\n"+obj, false)
	}
	for _, k := range []string{"0", "-3"} {
		f.Add(uint8(0), k+"\n0.5\n"+obj, false)
		f.Add(uint8(1), k+"\n0.5\n"+obj, false)
		f.Add(uint8(4), "1\n"+k+"\n0.5\n"+obj, false)
	}
	// k (and TOPKNN's m) far beyond the database: math.MaxInt and 2^40.
	for _, k := range []string{"9223372036854775807", "1099511627776"} {
		f.Add(uint8(0), k+"\n0.5\n"+obj, false)
		f.Add(uint8(1), k+"\n0.5\n"+obj, false)
		f.Add(uint8(2), k+"\n2\n"+obj, false)
		f.Add(uint8(2), "3\n"+k+"\n"+obj, false)
		f.Add(uint8(2), k+"\n"+k+"\n"+obj, false)
		f.Add(uint8(4), "1\n"+k+"\n0.5\n"+obj, false)
	}

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
