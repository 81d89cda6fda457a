package main

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"probprune/benchmark/ops"
)

// pushRec is one received subscription event, reduced to what the run
// needs (the frame's buffer is reused by the next read).
type pushRec struct {
	sub     int64
	kind    string
	version int64
	objID   int
	at      time.Time
	bytes   int
	bad     bool // decoded, but violates a match invariant
}

// pushLoop drives push-fanout: connection one holds the standing
// subscriptions and only receives; connection two issues paced UPDATEs
// on a fixed schedule, whether or not earlier pushes have arrived
// (subscribers do not wait on writers, so the loop is open).
type pushLoop struct {
	cfg config
	w   ops.Workload

	srv     *server
	sub, wr *client
	replies chan ops.Value // non-push frames read on the subscriber connection

	mu      sync.Mutex
	recs    []pushRec
	readErr error

	subIndex map[int64]int // server subscription id → position in the seeded list
	initial  [][]int       // per subscription, the ids of its initial result set
	stream   []op          // the paced UPDATEs, pre-encoded
	v0       int64         // store version before the stream's first update

	due, ackAt []time.Time     // per mutation of the stream
	cpuAt      map[int]float64 // server CPU when mutation g came due, at slice starts
}

func (pl *pushLoop) received() int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return len(pl.recs)
}

// records snapshots the pushes received so far.
func (pl *pushLoop) records() []pushRec {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return append([]pushRec(nil), pl.recs...)
}

func (pl *pushLoop) readFailed(err error) {
	pl.mu.Lock()
	pl.readErr = err
	pl.mu.Unlock()
}

// readPushes is the subscriber connection's only reader. Every frame
// is stamped when its last byte arrives and decoded after that.
func (pl *pushLoop) readPushes(c *client) {
	defer close(pl.replies)
	for {
		rep, err := c.sk.Next(true)
		at := time.Now()
		if err != nil {
			pl.readFailed(err)
			return
		}
		v, _, err := ops.Decode(rep.Raw)
		if err != nil {
			pl.readFailed(err)
			return
		}
		if v.Type != ops.TPush {
			pl.replies <- cloneValue(v)
			continue
		}
		ev, err := ops.EventFrom(v)
		if err != nil {
			pl.readFailed(err)
			return
		}
		rec := pushRec{sub: ev.Sub, kind: ev.Kind, version: ev.Version,
			objID: ev.Match.ID, at: at, bytes: rep.Bytes}
		rec.bad = ev.Match.Check(pl.w.Tau) != nil ||
			(ev.Kind == "entered" && !ev.Match.IsResult) || (ev.Kind == "left" && ev.Match.IsResult)
		pl.mu.Lock()
		pl.recs = append(pl.recs, rec)
		pl.mu.Unlock()
	}
}

func cloneValue(v ops.Value) ops.Value {
	v.Str = append([]byte(nil), v.Str...)
	elems := make([]ops.Value, len(v.Elems))
	for i, e := range v.Elems {
		elems[i] = cloneValue(e)
	}
	v.Elems = elems
	return v
}

// drain waits until every event the server has enqueued has been read:
// STATS reports the enqueued count and the undelivered backlog.
func (pl *pushLoop) drain() error {
	deadline := time.Now().Add(opTimeout)
	for {
		st, err := pl.wr.stats()
		if err != nil {
			return err
		}
		if st["server.push.backlog"] == 0 && int(st["server.pushed"]) == pl.received() {
			return nil
		}
		pl.mu.Lock()
		err = pl.readErr
		pl.mu.Unlock()
		if err != nil {
			return fmt.Errorf("subscriber connection: %w", err)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("pushes not drained: server enqueued %d (backlog %d), received %d",
				st["server.pushed"], st["server.push.backlog"], pl.received())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (pl *pushLoop) teardown() {
	for _, c := range []*client{pl.sub, pl.wr} {
		if c != nil {
			c.close()
		}
	}
	if pl.srv != nil {
		pl.srv.kill()
	}
	if pl.replies != nil {
		for range pl.replies { // the reader ends when its connection closes
		}
	}
	pl.sub, pl.wr, pl.srv, pl.replies = nil, nil, nil, nil
}

// timedSlices is how many PerRound-mutation slices the run length holds
// at the workload's rate: an open loop's length is its schedule's.
func (pl *pushLoop) timedSlices() int {
	n := int(pl.cfg.seconds * float64(pl.w.Rate) / float64(pl.w.PerRound))
	return max(min(n, pl.cfg.maxRounds), 1)
}

// setup is spawn → ready → database read back → subscriptions placed
// and their initial result sets received → a warm-up slice of paced
// mutations, fully delivered.
func (pl *pushLoop) setup() (float64, error) {
	start := time.Now()
	srv, err := startServer(pl.cfg.tool("udbserver"), "-db", pl.cfg.dataset,
		"-iterations", strconv.Itoa(pl.w.Iterations), "-log-level", "warn")
	if err != nil {
		return 0, err
	}
	pl.srv = srv
	if pl.wr, err = dial(srv.addr); err != nil {
		return 0, err
	}
	if pl.sub, err = dial(srv.addr); err != nil {
		return 0, err
	}
	pl.recs, pl.readErr = nil, nil
	pl.replies = make(chan ops.Value, 1)
	go pl.readPushes(pl.sub)

	db, err := pl.wr.fetchDB(pl.w.N)
	if err != nil {
		return 0, err
	}
	pl.subIndex = make(map[int64]int, pl.w.Subs)
	for i, q := range pl.w.Queries(pl.cfg.seed, pl.w.Subs) {
		req := ops.Command(nil, []byte("SUBSCRIBE"), []byte("KNN"), []byte(strconv.Itoa(pl.w.K)),
			strconv.AppendFloat(nil, pl.w.Tau, 'g', -1, 64), q)
		pl.sub.nc.SetWriteDeadline(time.Now().Add(opTimeout))
		if _, err := pl.sub.nc.Write(req); err != nil {
			return 0, err
		}
		select {
		case v, ok := <-pl.replies:
			if !ok || v.Type != ops.TArray || len(v.Elems) != 2 {
				return 0, fmt.Errorf("SUBSCRIBE %d answered %q %s", i, v.Type, v.Str)
			}
			pl.subIndex[v.Elems[0].Int] = i
		case <-time.After(opTimeout):
			return 0, fmt.Errorf("SUBSCRIBE %d: no reply", i)
		}
	}
	if err := pl.drain(); err != nil {
		return 0, err
	}
	pl.initial = make([][]int, pl.w.Subs)
	hotSet := map[int]bool{}
	for _, r := range pl.records() {
		if r.kind != "entered" {
			return 0, fmt.Errorf("initial result set carries a %q event", r.kind)
		}
		i := pl.subIndex[r.sub]
		pl.initial[i] = append(pl.initial[i], r.objID)
		hotSet[r.objID] = true
	}
	if pl.stream == nil {
		hot := make([]int, 0, len(hotSet))
		for id := range hotSet {
			hot = append(hot, id)
		}
		sort.Ints(hot)
		n := pl.w.WarmOps() + (pl.timedSlices()+ops.TracedPasses)*pl.w.PerRound
		for _, u := range pl.w.Updates(pl.cfg.seed, db, hot, n) {
			pl.stream = append(pl.stream, updateOp(u))
		}
	}
	if pl.v0, err = pl.wr.version(); err != nil {
		return 0, err
	}
	pl.due = make([]time.Time, len(pl.stream))
	pl.ackAt = make([]time.Time, len(pl.stream))
	pl.cpuAt = map[int]float64{}
	if _, _, err := pl.drive(0, pl.w.WarmOps(), false); err != nil {
		return 0, fmt.Errorf("warm-up slice: %w", err)
	}
	return time.Since(start).Seconds(), nil
}

// drive issues count mutations from the stream's position first, one
// every 1/Rate seconds on a schedule fixed before the first is sent,
// then waits for the monitor to pass the last version and for every
// resulting push to arrive. It returns how late each send ran.
func (pl *pushLoop) drive(first, count int, traced bool) (late []float64, tr []traceSums, err error) {
	t0 := time.Now().Add(time.Millisecond)
	gap := time.Second / time.Duration(pl.w.Rate)
	per := pl.w.PerRound
	for g := first; g < first+count; g++ {
		due := t0.Add(time.Duration(g-first) * gap)
		time.Sleep(time.Until(due))
		if (g-first)%per == 0 {
			pl.cpuAt[g] = pl.srv.cpuMs()
			tr = append(tr, traceSums{})
		}
		req := pl.stream[g].req
		if traced {
			req = pl.stream[g].traced
		}
		sent := time.Now()
		rep, err := pl.wr.do(req, traced)
		pl.due[g], pl.ackAt[g] = due, time.Now()
		if err != nil {
			return nil, nil, fmt.Errorf("mutation %d: %w", g, err)
		}
		if rep.Type == ops.TError {
			return nil, nil, fmt.Errorf("mutation %d: error reply", g)
		}
		late = append(late, float64(sent.Sub(due).Nanoseconds())/1e6)
		if traced {
			_, t, err := ops.SplitTraced(rep.Raw)
			if err != nil {
				return nil, nil, err
			}
			tr[len(tr)-1].add(float64(pl.ackAt[g].Sub(sent).Nanoseconds())/1e6, rep.Bytes, t)
		}
	}
	pl.cpuAt[first+count] = pl.srv.cpuMs()
	if _, err := pl.wr.call("WAITVERSION", strconv.FormatInt(pl.v0+int64(first+count), 10)); err != nil {
		return nil, nil, err
	}
	return late, tr, pl.drain()
}

// slices turns the pushes of n consecutive PerRound-mutation slices,
// the first starting at mutation first, into rounds. A push's latency
// runs from its mutation's due time — not its send time, so a stalled
// generator cannot hide a wait — to the arrival of the frame's last
// byte.
func (pl *pushLoop) slices(first, n int) (rounds []round, pushes, bad int) {
	per := pl.w.PerRound
	rounds = make([]round, n)
	ends := make([]time.Time, n)
	for s := range rounds {
		g0 := first + s*per
		rounds[s].ops = per
		rounds[s].bytes = int64(per * len("+OK\r\n"))
		rounds[s].cpuMs = pl.cpuAt[g0+per] - pl.cpuAt[g0]
		ends[s] = pl.ackAt[g0+per-1]
	}
	for _, r := range pl.records() {
		g := int(r.version - pl.v0 - 1)
		if g < first || g >= first+n*per {
			continue
		}
		s := (g - first) / per
		pushes++
		if r.bad {
			bad++
		}
		rounds[s].lat = append(rounds[s].lat, float64(r.at.Sub(pl.due[g]).Nanoseconds())/1e6)
		rounds[s].bytes += int64(r.bytes)
		if r.at.After(ends[s]) {
			ends[s] = r.at
		}
	}
	// A slice's wall time runs from its first mutation's due time to
	// the last acknowledgement or push of its mutations, plus the one
	// schedule gap that separates it from the next slice's first.
	for s := range rounds {
		rounds[s].wall = ends[s].Sub(pl.due[first+s*per]).Seconds() + 1/float64(pl.w.Rate)
	}
	return rounds, pushes, bad
}

func (pl *pushLoop) run() (*result, error) {
	res := &result{layer: map[string]float64{}}
	defer pl.teardown()
	for i := 0; i < pl.cfg.setups(); i++ {
		pl.teardown()
		s, err := pl.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		res.setups = append(res.setups, s)
	}
	oracle := ops.Oracle{Initial: pl.initial}
	for _, r := range pl.records() {
		if r.version > pl.v0 {
			oracle.Events = append(oracle.Events, ops.OracleEvent{
				Mutation: int(r.version - pl.v0 - 1), Sub: pl.subIndex[r.sub], Kind: r.kind, Object: r.objID})
		}
	}
	if err := pl.cfg.saveOracle(oracle); err != nil {
		return nil, err
	}

	per, n, first := pl.w.PerRound, pl.timedSlices(), pl.w.WarmOps()
	s0, err := pl.wr.stats()
	if err != nil {
		return nil, err
	}
	self0, srv0 := selfCPUms(), pl.srv.cpuMs()
	late, _, err := pl.drive(first, n*per, false)
	if err != nil {
		return nil, err
	}
	res.harnessCPUms, res.serverCPUms = selfCPUms()-self0, pl.srv.cpuMs()-srv0
	s1, err := pl.wr.stats()
	if err != nil {
		return nil, err
	}
	rounds, pushes, bad := pl.slices(first, n)
	res.rounds = rounds
	res.attempted = n * per
	res.failed = bad
	// Delivery is complete when the client holds exactly the events the
	// monitor says it produced and the server shed none.
	if want := int(s1["cq.events"] - s0["cq.events"]); want != pushes || s1["server.shed"] != 0 {
		res.notes = append(res.notes, fmt.Sprintf("monitor produced %d events, %d delivered, %d shed", want, pushes, s1["server.shed"]))
		res.failed = res.attempted
	}
	for s := range rounds {
		if len(rounds[s].lat) == 0 {
			return nil, errors.New("a slice delivered no push: the hot set is not hot")
		}
		res.rounds[s].lateMs = late[s*per : (s+1)*per]
	}
	if pl.cfg.trace {
		_, sums, err := pl.drive(first+n*per, ops.TracedPasses*per, true)
		if err != nil {
			return nil, err
		}
		res.attempted += ops.TracedPasses * per
		tracedRounds, _, bad := pl.slices(first+n*per, ops.TracedPasses)
		res.failed += bad
		best := 0
		for t, r := range tracedRounds {
			if len(r.lat) > 0 && mean(r.lat) < mean(tracedRounds[best].lat) {
				best = t
			}
		}
		quiet := pool(quietRounds(res.rounds))
		traceLayers(res.layer, sums[best], traceSums{}, 0, false)
		tailLayers(res.layer, quiet)
		res.layer["obs.trace_overhead_pct"] = (mean(tracedRounds[best].lat) - mean(quiet.lat)) / mean(quiet.lat) * 100
		all := pool(res.rounds)
		statLayers(res.layer, s0, s1, all, pl.w)
		res.layer["loadgen.late_p95_ms"] = quantile(all.lateMs, 0.95)
	}
	res.rssMB = pl.srv.hwmMB()
	return res, nil
}
