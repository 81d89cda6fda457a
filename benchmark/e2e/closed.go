package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"probprune/benchmark/ops"
)

// op is one pre-encoded request of a closed-loop pass.
type op struct {
	req     []byte
	traced  []byte // the same command with the TRACE flag
	primary bool   // counts toward the workload's primary latency
	knn     bool   // the reply is a matches array
}

func knnOp(w ops.Workload, query []byte, primary bool) op {
	return op{req: w.KNNCommand(query, false), traced: w.KNNCommand(query, true), primary: primary, knn: true}
}

func updateOp(u ops.Update) op {
	return op{req: u.Command(false), traced: u.Command(true), primary: true}
}

// closedLoop drives the three one-connection workloads: warm-up passes
// that decode and verify every reply, then timed rounds that only skim
// them.
type closedLoop struct {
	cfg config
	w   ops.Workload

	// Read-only workloads replay list every round. The write workload
	// walks list once: it is one stream of updates with the reads
	// interleaved, and next is the first op not yet sent to the live
	// server.
	readOnly bool
	list     []op
	next     int
	updates  []ops.Update // write: the stream's updates, in order

	warmCRC []uint32 // read-only: per op of list, from its verified pass
	warmIDs [][]int  // result ids of the verified KNNs, in list order

	srv   *server
	c     *client
	dir   string // durable store directory of the live server
	v0    int64  // store version before the first update
	acked int    // updates the live server has acknowledged
}

func (cl *closedLoop) serverArgs(dir string, fresh bool) []string {
	args := []string{"-iterations", strconv.Itoa(cl.w.Iterations), "-log-level", "warn"}
	if fresh {
		args = append(args, "-db", cl.cfg.dataset)
	}
	if cl.w.Durable {
		args = append(args, "-dir", dir, "-sync", "always", "-checkpoint-every", "4096")
	}
	return args
}

// buildList draws the op list. The write workload needs the database
// first (a drift starts from the object's position), so it is called
// from inside the first set-up, after the fetch.
func (cl *closedLoop) buildList(db []ops.Object) {
	if cl.readOnly {
		for _, q := range cl.w.Queries(cl.cfg.seed, cl.w.PerRound) {
			cl.list = append(cl.list, knnOp(cl.w, q, true))
		}
		cl.warmCRC = make([]uint32, len(cl.list))
		cl.warmIDs = make([][]int, len(cl.list))
		return
	}
	n := cl.w.WarmOps() + (cl.cfg.maxRounds+ops.TracedPasses)*cl.w.PerRound
	cl.updates = cl.w.Updates(cl.cfg.seed, db, nil, n)
	reads := cl.w.Queries(cl.cfg.seed, n/cl.w.ReadEvery)
	for i, u := range cl.updates {
		cl.list = append(cl.list, updateOp(u))
		if g := i + 1; g%cl.w.ReadEvery == 0 {
			cl.list = append(cl.list, knnOp(cl.w, reads[g/cl.w.ReadEvery-1], false))
		}
	}
}

// span is list[from:to], in list positions.
type span struct{ from, to int }

// warmSpan is what set-up i of the run verifies. The write workload
// verifies the stream's first WarmOps updates on every fresh server; a
// read-only one verifies the i-th of cfg.setups() equal parts of the
// list, so that the set-ups of one run cover it.
func (cl *closedLoop) warmSpan(i int) span {
	if !cl.readOnly {
		return span{0, cl.w.WarmOps() + cl.w.WarmOps()/cl.w.ReadEvery}
	}
	n, k := len(cl.list), cl.cfg.setups()
	return span{i * n / k, (i + 1) * n / k}
}

// round is the span of the next timed or traced pass.
func (cl *closedLoop) round() span {
	if cl.readOnly {
		return span{0, len(cl.list)}
	}
	return span{cl.next, cl.next + cl.w.PerRound + cl.w.PerRound/cl.w.ReadEvery}
}

// setup is one spawn → ready → verified warm-up pass, the interval
// setup_s reports.
func (cl *closedLoop) setup(i int) (float64, error) {
	start := time.Now()
	cl.dir = filepath.Join(cl.cfg.work, fmt.Sprintf("store-%d", i))
	if cl.w.Durable {
		if err := os.MkdirAll(cl.dir, 0o755); err != nil {
			return 0, err
		}
	}
	srv, err := startServer(cl.cfg.tool("udbserver"), cl.serverArgs(cl.dir, true)...)
	if err != nil {
		return 0, err
	}
	cl.srv = srv
	if cl.c, err = dial(srv.addr); err != nil {
		return 0, err
	}
	if !cl.readOnly {
		db, err := cl.c.fetchDB(cl.w.N)
		if err != nil {
			return 0, err
		}
		if cl.list == nil {
			cl.buildList(db)
		}
		if cl.v0, err = cl.c.version(); err != nil {
			return 0, err
		}
		cl.warmIDs, cl.acked = cl.warmIDs[:0], 0
	}
	if err := cl.verify(cl.warmSpan(i)); err != nil {
		return 0, fmt.Errorf("warm-up pass: %w", err)
	}
	return time.Since(start).Seconds(), nil
}

func (cl *closedLoop) teardown() {
	if cl.c != nil {
		cl.c.close()
	}
	if cl.srv != nil {
		cl.srv.kill()
	}
	cl.c, cl.srv = nil, nil
}

// checkKNN decodes a KNN reply, applies the match invariants and
// returns the result ids.
func (cl *closedLoop) checkKNN(v ops.Value) ([]int, error) {
	ms, err := ops.Matches(v)
	if err != nil {
		return nil, err
	}
	ids := []int{}
	for _, m := range ms {
		if err := m.Check(cl.w.Tau); err != nil {
			return nil, err
		}
		if m.IsResult {
			ids = append(ids, m.ID)
		}
	}
	return ids, nil
}

// verify is a warm-up pass: every reply of the span fully decoded and
// checked, and on the read-only workloads its digest recorded for the
// timed rounds to match.
func (cl *closedLoop) verify(sp span) error {
	for i := sp.from; i < sp.to; i++ {
		o := cl.list[i]
		rep, err := cl.c.do(o.req, true)
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		v, err := decodeReply(rep)
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		if !o.knn {
			if v.Type != ops.TSimple || string(v.Str) != "OK" {
				return fmt.Errorf("op %d: UPDATE answered %q %s", i, v.Type, v.Str)
			}
			cl.acked++
			continue
		}
		ids, err := cl.checkKNN(v)
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		if cl.readOnly {
			cl.warmCRC[i], cl.warmIDs[i] = rep.CRC, ids
		} else {
			cl.warmIDs = append(cl.warmIDs, ids)
		}
	}
	cl.next = sp.to
	return nil
}

// timed replays a span with replies skimmed, not decoded. An op fails
// on an error reply or — read-only workloads — a reply whose digest
// differs from its verified pass's; a transport error or timeout ends
// the run.
func (cl *closedLoop) timed(sp span) (round, int, error) {
	var r round
	failed := 0
	cpu0, bytes0, t0 := cl.srv.cpuMs(), cl.c.sk.Bytes, time.Now()
	for i := sp.from; i < sp.to; i++ {
		o := cl.list[i]
		start := time.Now()
		rep, err := cl.c.do(o.req, false)
		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		if err != nil {
			return r, failed, fmt.Errorf("op %d: %w", i, err)
		}
		if rep.Type == ops.TError || (cl.readOnly && rep.CRC != cl.warmCRC[i]) {
			failed++
		}
		if o.primary {
			r.lat = append(r.lat, ms)
			r.ops++
		} else {
			r.reads = append(r.reads, ms)
		}
	}
	r.wall = time.Since(t0).Seconds()
	r.cpuMs = cl.srv.cpuMs() - cpu0
	r.bytes = cl.c.sk.Bytes - bytes0
	if !cl.readOnly {
		cl.next, cl.acked = sp.to, cl.acked+r.ops
	}
	return r, failed, nil
}

// traceSums accumulates the trace frames of one traced pass.
type traceSums struct {
	n         int
	clientMs  float64 // request written → last reply byte read
	replySize float64
	t         ops.Trace
}

func (s *traceSums) add(ms float64, size int, t ops.Trace) {
	s.n++
	s.clientMs += ms
	s.replySize += float64(size)
	s.t.Candidates += t.Candidates
	s.t.Preselected += t.Preselected
	s.t.Refined += t.Refined
	s.t.Undecided += t.Undecided
	s.t.Iterations += t.Iterations
	s.t.CacheHits += t.CacheHits
	s.t.CacheMisses += t.CacheMisses
	s.t.PrepareNs += t.PrepareNs
	s.t.EvalNs += t.EvalNs
	s.t.WALWaitNs += t.WALWaitNs
	s.t.QueueNs += t.QueueNs
}

// traced replays a span with the TRACE flag on every command. Only the
// trace frame is decoded: the wrapped reply is checked by its checksum
// (read-only workloads) or its type, because decoding ten thousand
// matches per reply here would put the harness's garbage collector in
// the next op's way and charge it to the trace.
func (cl *closedLoop) traced(sp span) (primary, queries traceSums, failed int, err error) {
	for i := sp.from; i < sp.to; i++ {
		o := cl.list[i]
		start := time.Now()
		rep, err := cl.c.do(o.traced, true)
		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		if err != nil {
			return primary, queries, failed, fmt.Errorf("traced op %d: %w", i, err)
		}
		inner, tr, err := ops.SplitTraced(rep.Raw)
		if err != nil {
			return primary, queries, failed, fmt.Errorf("traced op %d: %w", i, err)
		}
		if inner[0] == ops.TError || (cl.readOnly && ops.Checksum(inner) != cl.warmCRC[i]) {
			failed++
		}
		if o.primary {
			primary.add(ms, rep.Bytes, tr)
		}
		if o.knn {
			queries.add(ms, rep.Bytes, tr)
		}
	}
	if !cl.readOnly {
		cl.next, cl.acked = sp.to, cl.acked+primary.n
	}
	return primary, queries, failed, nil
}

// verifyRecovery is the durability check of write-durable: the server was
// killed with SIGKILL after its last acknowledgement; a restart on the
// same directory must report the version and size the acknowledgements
// imply and return the last 200 acknowledged objects byte for byte.
// It returns the restart's time to ready and the directory's size.
func (cl *closedLoop) verifyRecovery(acked int) (recoverS, diskMB float64, err error) {
	ents, _ := os.ReadDir(cl.dir)
	for _, e := range ents {
		if info, err := e.Info(); err == nil {
			diskMB += float64(info.Size()) / (1 << 20)
		}
	}
	start := time.Now()
	srv, err := startServer(cl.cfg.tool("udbserver"), cl.serverArgs(cl.dir, false)...)
	if err != nil {
		return 0, 0, err
	}
	recoverS = time.Since(start).Seconds()
	defer srv.kill()
	c, err := dial(srv.addr)
	if err != nil {
		return 0, 0, err
	}
	defer c.close()
	ver, err := c.version()
	if err != nil {
		return 0, 0, err
	}
	if want := cl.v0 + int64(acked); ver != want {
		return 0, 0, fmt.Errorf("recovered version %d, acknowledged through %d", ver, want)
	}
	n, err := c.call("LEN")
	if err != nil {
		return 0, 0, err
	}
	if n.Int != int64(cl.w.N) {
		return 0, 0, fmt.Errorf("recovered %d objects, want %d", n.Int, cl.w.N)
	}
	last := make(map[int][]byte)
	var ids []int
	for i := acked - 1; i >= 0 && len(ids) < 200; i-- {
		u := cl.updates[i]
		if _, seen := last[u.ID]; !seen {
			last[u.ID] = u.Payload
			ids = append(ids, u.ID)
		}
	}
	got, err := c.getObjects(ids)
	if err != nil {
		return 0, 0, err
	}
	for i, id := range ids {
		if !bytes.Equal(got[i], last[id]) {
			return 0, 0, fmt.Errorf("object %d after recovery differs from its last acknowledged update", id)
		}
	}
	return recoverS, diskMB, nil
}

func (cl *closedLoop) run() (*result, error) {
	res := &result{layer: map[string]float64{}}
	defer cl.teardown()
	if cl.readOnly {
		cl.buildList(nil)
	}
	for i := 0; i < cl.cfg.setups(); i++ {
		cl.teardown()
		s, err := cl.setup(i)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		res.setups = append(res.setups, s)
	}
	if err := cl.cfg.saveOracle(ops.Oracle{KNN: cl.warmIDs}); err != nil {
		return nil, err
	}
	if cl.readOnly && cl.cfg.setups() > 1 {
		// The live server has answered only its own part of the list;
		// one untimed pass warms the rest, checked against the digests
		// the earlier servers gave.
		_, failed, err := cl.timed(cl.round())
		if err != nil {
			return nil, fmt.Errorf("priming pass: %w", err)
		}
		res.attempted += len(cl.list)
		res.failed += failed
	}

	s0, err := cl.c.stats()
	if err != nil {
		return nil, err
	}
	self0, srv0, t0 := selfCPUms(), cl.srv.cpuMs(), time.Now()
	for len(res.rounds) < cl.cfg.maxRounds {
		// Stop when the next round would overrun the run length by more
		// than the previous one fell short of it.
		if n := len(res.rounds); n >= cl.cfg.minRounds() &&
			time.Since(t0).Seconds()+res.rounds[n-1].wall/2 > cl.cfg.seconds {
			break
		}
		sp := cl.round()
		r, failed, err := cl.timed(sp)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", len(res.rounds)+1, err)
		}
		res.rounds = append(res.rounds, r)
		res.attempted += sp.to - sp.from
		res.failed += failed
	}
	res.harnessCPUms, res.serverCPUms = selfCPUms()-self0, cl.srv.cpuMs()-srv0
	s1, err := cl.c.stats()
	if err != nil {
		return nil, err
	}
	if cl.cfg.trace {
		var primary, queries traceSums
		for t := 0; t < ops.TracedPasses; t++ {
			sp := cl.round()
			p, q, failed, err := cl.traced(sp)
			if err != nil {
				return nil, err
			}
			res.attempted += sp.to - sp.from
			res.failed += failed
			if t == 0 || p.clientMs/float64(p.n) < primary.clientMs/float64(primary.n) {
				primary, queries = p, q
			}
		}
		quiet := pool(quietRounds(res.rounds))
		traceLayers(res.layer, primary, queries, mean(quiet.lat), cl.w.Durable)
		tailLayers(res.layer, quiet)
		statLayers(res.layer, s0, s1, pool(res.rounds), cl.w)
	}
	res.rssMB = cl.srv.hwmMB()
	cl.teardown()

	if cl.w.Durable {
		recoverS, diskMB, err := cl.verifyRecovery(cl.acked)
		if err != nil {
			res.notes = append(res.notes, "recovery: "+err.Error())
			res.failed = res.attempted
		}
		if cl.cfg.trace {
			res.layer["wal.recovery_s"] = recoverS
			res.layer["wal.disk_mb"] = diskMB
		}
	}
	return res, nil
}
