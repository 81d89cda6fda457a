package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"probprune/internal/cq"
	"probprune/internal/obs"
	"probprune/internal/query"
	"probprune/internal/uncertain"
)

// Error reply codes. -PROTO additionally means the server is about to
// close the connection, because the stream can no longer be framed.
const (
	codeErr            = "ERR"
	codeProto          = "PROTO"
	codeUnknown        = "UNKNOWN"
	codeBadArg         = "BADARG"
	codeBusy           = "BUSY"
	codeGone           = "GONE"
	codeCursorMismatch = "CURSORMISMATCH"
	codeNoDurable      = "NODURABLE"
)

// conn is one client connection: a reader goroutine decodes and
// dispatches commands strictly in order (pipelining is just reading
// ahead), a writer goroutine drains the frame queue onto the socket.
// Command replies enter the queue from the dispatch loop, subscription
// events from session delivery goroutines; the queue gives the
// connection one total output order, and the client separates the two
// streams by frame type (pushes are '>').
type conn struct {
	srv *Server
	nc  net.Conn
	id  int64 // server-unique, for log correlation

	outq   chan Frame
	queued atomic.Int64 // frames enqueued but not yet flushed to the socket
	closed chan struct{}
	once   sync.Once

	mu   sync.Mutex
	subs map[int64]*subState // sessions attached to this connection

	// tr is the connection's reusable trace for TRACE-flagged commands.
	// Dispatch is strictly serial on the read goroutine (pipelining is
	// just reading ahead), so one trace per connection suffices and the
	// traced path allocates no trace per command. qstart is the current
	// command's dispatch start, the base of the queue span.
	tr     obs.Trace
	qstart time.Time
}

func newConn(srv *Server, nc net.Conn) *conn {
	return &conn{
		srv:    srv,
		nc:     nc,
		id:     srv.nextConnID.Add(1),
		outq:   make(chan Frame, srv.opts.outQueue()),
		closed: make(chan struct{}),
		subs:   make(map[int64]*subState),
	}
}

// send enqueues a frame, blocking until there is room. It aborts (and
// reports false) when the connection closes or abort or unbind is
// closed.
func (c *conn) send(f Frame, abort, unbind <-chan struct{}) bool {
	c.queued.Add(1)
	select {
	case c.outq <- f:
		return true
	case <-c.closed:
	case <-abort:
	case <-unbind:
	}
	c.queued.Add(-1)
	return false
}

// reply enqueues a command reply (aborts only on connection close).
func (c *conn) reply(f Frame) bool {
	c.queued.Add(1)
	select {
	case c.outq <- f:
		return true
	case <-c.closed:
		c.queued.Add(-1)
		return false
	}
}

// trySend enqueues without blocking; best-effort.
func (c *conn) trySend(f Frame) bool {
	c.queued.Add(1)
	select {
	case c.outq <- f:
		return true
	default:
		c.queued.Add(-1)
		return false
	}
}

func (c *conn) addSub(st *subState) {
	c.mu.Lock()
	c.subs[st.id] = st
	c.mu.Unlock()
}

func (c *conn) dropSub(st *subState) {
	c.mu.Lock()
	delete(c.subs, st.id)
	c.mu.Unlock()
}

func (c *conn) findSub(id int64) *subState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.subs[id]
}

// close shuts the connection down exactly once: the socket closes, the
// writer drains out, and every attached session detaches (named ones
// park for RESUME, ephemeral ones terminate).
func (c *conn) close() {
	c.once.Do(func() {
		close(c.closed)
		c.nc.Close()
		c.mu.Lock()
		subs := make([]*subState, 0, len(c.subs))
		for _, st := range c.subs {
			subs = append(subs, st)
		}
		c.subs = make(map[int64]*subState)
		c.mu.Unlock()
		for _, st := range subs {
			st.detach(c)
		}
		c.srv.dropConn(c)
	})
}

// writeLoop owns the socket's write side.
func (c *conn) writeLoop() {
	defer c.srv.wg.Done()
	w := NewWriter(c.nc)
	unflushed := 0
	for {
		select {
		case f := <-c.outq:
			if err := w.WriteFrame(f); err != nil {
				c.close()
				return
			}
			unflushed++
			// Flush only when the queue drained: pipelined replies and
			// event bursts batch into large writes. queued counts down
			// only here, so Close can tell when a tail really hit the
			// socket rather than just the queue.
			if len(c.outq) == 0 {
				if err := w.Flush(); err != nil {
					c.close()
					return
				}
				c.queued.Add(-int64(unflushed))
				unflushed = 0
			}
		case <-c.closed:
			return
		}
	}
}

// readLoop owns the socket's read side: decode, dispatch, reply, in
// strict order.
func (c *conn) readLoop() {
	defer c.srv.wg.Done()
	defer c.close()
	r := NewReader(c.nc)
	for {
		f, err := r.ReadFrame()
		if err != nil {
			if errors.Is(err, ErrProto) {
				c.srv.metrics.protoErrors.Inc()
				c.srv.rec.Record(obs.EvProtoError, c.srv.rec.Note(err.Error()), 0, c.id, 0)
				c.srv.logf("server: protocol violation from %s: %v", c.nc.RemoteAddr(), err)
				c.srv.log.Warn("protocol violation", "conn", c.id, "err", err)
				c.reply(errf(codeProto, "%v", err))
				// Give the writer a moment to flush the diagnosis.
				time.Sleep(10 * time.Millisecond)
			}
			return
		}
		args, ok := commandArgs(f)
		if !ok {
			c.srv.metrics.protoErrors.Inc()
			c.srv.rec.Record(obs.EvProtoError, c.srv.rec.Note("command is not an array of bulk strings"), 0, c.id, 0)
			c.srv.log.Warn("protocol violation", "conn", c.id, "err", "command is not an array of bulk strings")
			c.reply(errf(codeProto, "commands must be arrays of bulk strings"))
			time.Sleep(10 * time.Millisecond)
			return
		}
		if len(args) == 0 {
			continue
		}
		c.dispatch(args)
		select {
		case <-c.closed:
			return
		default:
		}
	}
}

// commandArgs flattens a decoded command frame into its byte-slice
// arguments.
func commandArgs(f Frame) ([][]byte, bool) {
	if f.Type != TArray || f.Null {
		return nil, false
	}
	args := make([][]byte, len(f.Array))
	for i, el := range f.Array {
		if el.Type != TBulk || el.Null {
			return nil, false
		}
		args[i] = el.Bulk
	}
	return args, true
}

// Argument parsing helpers. They return ok=false after replying.

func argInt(b []byte) (int, error) {
	n, err := strconv.Atoi(string(b))
	if err != nil {
		return 0, fmt.Errorf("bad integer %q", b)
	}
	return n, nil
}

func argUint(b []byte) (uint64, error) {
	n, err := strconv.ParseUint(string(b), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad unsigned integer %q", b)
	}
	return n, nil
}

func argFloat(b []byte) (float64, error) {
	return parseFloat(string(b))
}

func argKind(b []byte) (cq.Kind, error) {
	switch {
	case bytes.EqualFold(b, []byte("KNN")):
		return cq.KNN, nil
	case bytes.EqualFold(b, []byte("RKNN")):
		return cq.RKNN, nil
	}
	return 0, fmt.Errorf("bad subscription kind %q (want KNN or RKNN)", b)
}

func argPolicy(b []byte) (Policy, error) {
	switch {
	case bytes.EqualFold(b, []byte("disconnect")):
		return PolicyDisconnect, nil
	case bytes.EqualFold(b, []byte("dropoldest")):
		return PolicyDropOldest, nil
	}
	return 0, fmt.Errorf("bad policy %q (want disconnect or dropoldest)", b)
}

// stripTrace recognizes a trailing TRACE flag on a command's argument
// list, reporting whether it was present (and returning the arguments
// without it).
func stripTrace(rest [][]byte) ([][]byte, bool) {
	if n := len(rest); n > 0 && bytes.EqualFold(rest[n-1], []byte("TRACE")) {
		return rest[:n-1], true
	}
	return rest, false
}

// markQueue closes the traced command's queue span: dispatch start to
// store execution start, i.e. the server-side time spent parsing
// arguments and decoding objects before the store saw the request.
// Handlers call it immediately before invoking the store.
func (c *conn) markQueue(ctx context.Context) {
	if tr := obs.TraceFrom(ctx); tr != nil {
		tr.AddQueue(time.Since(c.qstart))
	}
}

// dispatch executes one command and enqueues its reply. Query and
// mutation commands accept a trailing TRACE flag: the server threads an
// obs.Trace through the store call and appends the trace snapshot to
// the reply as a second frame (see encodeTraceFrame).
func (c *conn) dispatch(args [][]byte) {
	cmd := string(bytes.ToUpper(args[0]))
	rest := args[1:]
	start := time.Now()
	c.qstart = start
	ctx := c.srv.ctx
	var tr *obs.Trace
	switch cmd {
	case "KNN", "RKNN", "TOPKNN", "INVRANK", "BATCH", "INSERT", "UPDATE", "DELETE":
		var traced bool
		if rest, traced = stripTrace(rest); traced {
			tr = &c.tr
			tr.Reset()
			ctx = obs.WithTrace(ctx, tr)
		}
	}
	var f Frame
	switch cmd {
	case "PING":
		if len(rest) == 1 {
			f = bulk(bytes.Clone(rest[0]))
		} else {
			f = simple("PONG")
		}
	case "VERSION":
		f = c.cmdVersion(rest)
	case "LEN":
		f = intf(int64(c.srv.store.Len()))
	case "GET":
		f = c.cmdGet(rest)
	case "INSERT":
		f = c.cmdMutate(ctx, rest, c.srv.store.InsertCtx)
	case "UPDATE":
		f = c.cmdMutate(ctx, rest, c.srv.store.UpdateCtx)
	case "DELETE":
		f = c.cmdDelete(ctx, rest)
	case "KNN":
		f = c.cmdThresholdQuery(ctx, rest, c.srv.store.KNNCtx)
	case "RKNN":
		f = c.cmdThresholdQuery(ctx, rest, c.srv.store.RKNNCtx)
	case "TOPKNN":
		f = c.cmdTopKNN(ctx, rest)
	case "INVRANK":
		f = c.cmdInvRank(ctx, rest)
	case "BATCH":
		f = c.cmdBatch(ctx, rest)
	case "WAITVERSION":
		f = c.cmdWaitVersion(rest)
	case "SUBSCRIBE":
		f = c.cmdSubscribe(rest)
	case "RESUME":
		f = c.cmdResume(rest)
	case "UNSUBSCRIBE":
		f = c.cmdUnsubscribe(rest)
	case "STATS":
		f = c.cmdStats(rest)
	case "EVENTS":
		f = c.cmdEvents(rest)
	default:
		f = errf(codeUnknown, "unknown command %q", cmd)
	}
	if tr != nil && f.Type != 0 && f.Type != TError {
		f = array(f, encodeTraceFrame(tr.Snapshot()))
	}
	cm := c.srv.metrics.cmd(cmd)
	cm.calls.Inc()
	cm.latency.Observe(time.Since(start))
	if f.Type == TError {
		cm.errors.Inc()
	}
	if f.Type != 0 { // zero Frame: the handler already replied
		c.reply(f)
	}
}

// cmdVersion serves the identity reply: the store's mutation epoch plus
// the serving process's identity — Go version, GOMAXPROCS, and uptime.
func (c *conn) cmdVersion(rest [][]byte) Frame {
	if len(rest) != 0 {
		return errf(codeBadArg, "VERSION takes no arguments")
	}
	return array(
		intf(int64(c.srv.store.Version())),
		bulkStr(runtime.Version()),
		intf(int64(runtime.GOMAXPROCS(0))),
		intf(int64(time.Since(c.srv.started)/time.Second)),
	)
}

// cmdEvents serves the flight recorder: EVENTS [n] returns the ring's
// current events oldest-first (the newest n when a count is given).
func (c *conn) cmdEvents(rest [][]byte) Frame {
	if len(rest) > 1 {
		return errf(codeBadArg, "EVENTS [n]")
	}
	n := 0
	if len(rest) == 1 {
		v, err := argInt(rest[0])
		if err != nil || v < 0 {
			return errf(codeBadArg, "bad event count %q", rest[0])
		}
		n = v
	}
	evs := c.srv.rec.Snapshot()
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	elems := make([]Frame, len(evs))
	for i, ev := range evs {
		elems[i] = encodeRecorderEvent(ev)
	}
	return array(elems...)
}

func (c *conn) cmdGet(rest [][]byte) Frame {
	if len(rest) != 1 {
		return errf(codeBadArg, "GET <id>")
	}
	id, err := argInt(rest[0])
	if err != nil {
		return errf(codeBadArg, "%v", err)
	}
	o, ok := c.srv.store.Get(id)
	if !ok {
		return Frame{Type: TBulk, Null: true}
	}
	return bulk(EncodeObject(o))
}

func (c *conn) cmdMutate(ctx context.Context, rest [][]byte, op func(context.Context, *uncertain.Object) error) Frame {
	if len(rest) != 1 {
		return errf(codeBadArg, "INSERT|UPDATE <object>")
	}
	o, err := DecodeObject(rest[0])
	if err != nil {
		return errf(codeBadArg, "%v", err)
	}
	c.markQueue(ctx)
	if err := op(ctx, o); err != nil {
		return errf(codeErr, "%v", err)
	}
	return simple("OK")
}

func (c *conn) cmdDelete(ctx context.Context, rest [][]byte) Frame {
	if len(rest) != 1 {
		return errf(codeBadArg, "DELETE <id>")
	}
	id, err := argInt(rest[0])
	if err != nil {
		return errf(codeBadArg, "%v", err)
	}
	c.markQueue(ctx)
	found, err := c.srv.store.DeleteCtx(ctx, id)
	if err != nil {
		return errf(codeErr, "%v", err)
	}
	return intf(boolInt(found))
}

func (c *conn) cmdThresholdQuery(ctx context.Context, rest [][]byte, run func(context.Context, *uncertain.Object, int, float64) ([]query.Match, error)) Frame {
	if len(rest) != 3 {
		return errf(codeBadArg, "KNN|RKNN <k> <tau> <object>")
	}
	k, err := argInt(rest[0])
	if err != nil {
		return errf(codeBadArg, "%v", err)
	}
	tau, err := argFloat(rest[1])
	if err != nil {
		return errf(codeBadArg, "%v", err)
	}
	q, err := DecodeObject(rest[2])
	if err != nil {
		return errf(codeBadArg, "%v", err)
	}
	c.markQueue(ctx)
	ms, err := run(ctx, q, k, tau)
	if err != nil {
		return errf(codeErr, "%v", err)
	}
	return EncodeMatches(ms)
}

func (c *conn) cmdTopKNN(ctx context.Context, rest [][]byte) Frame {
	if len(rest) != 3 {
		return errf(codeBadArg, "TOPKNN <k> <m> <object>")
	}
	k, err := argInt(rest[0])
	if err != nil {
		return errf(codeBadArg, "%v", err)
	}
	m, err := argInt(rest[1])
	if err != nil {
		return errf(codeBadArg, "%v", err)
	}
	q, err := DecodeObject(rest[2])
	if err != nil {
		return errf(codeBadArg, "%v", err)
	}
	c.markQueue(ctx)
	ms, err := c.srv.store.TopKNNCtx(ctx, q, k, m)
	if err != nil {
		return errf(codeErr, "%v", err)
	}
	return EncodeMatches(ms)
}

func (c *conn) cmdInvRank(ctx context.Context, rest [][]byte) Frame {
	if len(rest) != 2 {
		return errf(codeBadArg, "INVRANK <object-b> <object-r>")
	}
	b, err := DecodeObject(rest[0])
	if err != nil {
		return errf(codeBadArg, "%v", err)
	}
	r, err := DecodeObject(rest[1])
	if err != nil {
		return errf(codeBadArg, "%v", err)
	}
	c.markQueue(ctx)
	rd, err := c.srv.store.InverseRankCtx(ctx, b, r)
	if err != nil {
		return errf(codeErr, "%v", err)
	}
	return EncodeRankDist(rd)
}

// cmdBatch routes a whole pipeline of kNN queries onto the store's
// one-snapshot BatchKNN path: BATCH <n> then n×(<k> <tau> <object>).
func (c *conn) cmdBatch(ctx context.Context, rest [][]byte) Frame {
	if len(rest) < 1 {
		return errf(codeBadArg, "BATCH <n> (<k> <tau> <object>)...")
	}
	n, err := argInt(rest[0])
	if err != nil || n < 0 {
		return errf(codeBadArg, "bad batch size %q", rest[0])
	}
	// Divide rather than multiply: 1+3*n wraps for a hostile n.
	if (len(rest)-1)%3 != 0 || n != (len(rest)-1)/3 {
		return errf(codeBadArg, "BATCH %d wants 3 arguments per query, got %d", n, len(rest)-1)
	}
	reqs := make([]query.KNNRequest, n)
	for i := 0; i < n; i++ {
		k, err := argInt(rest[1+3*i])
		if err != nil {
			return errf(codeBadArg, "query %d: %v", i, err)
		}
		tau, err := argFloat(rest[2+3*i])
		if err != nil {
			return errf(codeBadArg, "query %d: %v", i, err)
		}
		q, err := DecodeObject(rest[3+3*i])
		if err != nil {
			return errf(codeBadArg, "query %d: %v", i, err)
		}
		reqs[i] = query.KNNRequest{Q: q, K: k, Tau: tau}
	}
	c.markQueue(ctx)
	results, err := c.srv.store.BatchKNN(ctx, reqs)
	if err != nil {
		return errf(codeErr, "%v", err)
	}
	elems := make([]Frame, len(results))
	for i, ms := range results {
		elems[i] = EncodeMatches(ms)
	}
	return array(elems...)
}

func (c *conn) cmdWaitVersion(rest [][]byte) Frame {
	if len(rest) != 1 {
		return errf(codeBadArg, "WAITVERSION <version>")
	}
	v, err := argUint(rest[0])
	if err != nil {
		return errf(codeBadArg, "%v", err)
	}
	ctx, cancel := context.WithTimeout(c.srv.ctx, 30*time.Second)
	defer cancel()
	if err := c.srv.mon.WaitVersion(ctx, v); err != nil {
		return errf(codeErr, "%v", err)
	}
	return intf(int64(c.srv.mon.Version()))
}

// subSpec is a parsed subscription predicate plus session options.
type subSpec struct {
	kind   cq.Kind
	k      int
	tau    float64
	q      *uncertain.Object
	name   string
	policy Policy
	fresh  bool
}

// parseSubSpec parses <kind> <k> <tau> <object> [NAME n] [POLICY p]
// [FRESH] starting at rest[0].
func parseSubSpec(rest [][]byte) (subSpec, error) {
	var sp subSpec
	if len(rest) < 4 {
		return sp, fmt.Errorf("want <KNN|RKNN> <k> <tau> <object>")
	}
	var err error
	if sp.kind, err = argKind(rest[0]); err != nil {
		return sp, err
	}
	if sp.k, err = argInt(rest[1]); err != nil {
		return sp, err
	}
	if sp.tau, err = argFloat(rest[2]); err != nil {
		return sp, err
	}
	if sp.q, err = DecodeObject(rest[3]); err != nil {
		return sp, err
	}
	rest = rest[4:]
	for len(rest) > 0 {
		switch {
		case bytes.EqualFold(rest[0], []byte("NAME")) && len(rest) >= 2:
			sp.name = string(rest[1])
			if sp.name == "" {
				return sp, fmt.Errorf("empty NAME")
			}
			rest = rest[2:]
		case bytes.EqualFold(rest[0], []byte("POLICY")) && len(rest) >= 2:
			if sp.policy, err = argPolicy(rest[1]); err != nil {
				return sp, err
			}
			rest = rest[2:]
		case bytes.EqualFold(rest[0], []byte("FRESH")):
			sp.fresh = true
			rest = rest[1:]
		default:
			return sp, fmt.Errorf("bad subscription option %q", rest[0])
		}
	}
	return sp, nil
}

func (c *conn) cmdSubscribe(rest [][]byte) Frame {
	sp, err := parseSubSpec(rest)
	if err != nil {
		return errf(codeBadArg, "SUBSCRIBE: %v", err)
	}
	st, mode, ef := c.srv.subscribe(c, sp)
	if ef != nil {
		return *ef
	}
	c.srv.log.Info("subscribe", "conn", c.id, "sub", st.id, "name", st.name, "mode", mode)
	// Reply while delivery is held: the client sees [id, mode] strictly
	// before the subscription's first push frame.
	c.reply(array(intf(st.id), bulkStr(mode)))
	c.srv.release(st)
	return Frame{} // already replied
}

func (c *conn) cmdResume(rest [][]byte) Frame {
	if len(rest) < 7 {
		return errf(codeBadArg, "RESUME <name> <version> <objid> <KNN|RKNN> <k> <tau> <object>")
	}
	name := string(rest[0])
	wv, err := argUint(rest[1])
	if err != nil {
		return errf(codeBadArg, "%v", err)
	}
	wid, err := argInt(rest[2])
	if err != nil {
		return errf(codeBadArg, "%v", err)
	}
	sp, err := parseSubSpec(rest[3:])
	if err != nil {
		return errf(codeBadArg, "RESUME: %v", err)
	}
	sp.name = name
	st, mode, lost, ef := c.srv.resume(c, sp, watermark{v: wv, id: wid})
	if ef != nil {
		return *ef
	}
	c.srv.log.Info("resume", "conn", c.id, "sub", st.id, "name", name, "mode", mode, "lost", lost)
	c.reply(array(intf(st.id), bulkStr(mode), intf(int64(lost))))
	c.srv.release(st)
	return Frame{}
}

func (c *conn) cmdUnsubscribe(rest [][]byte) Frame {
	if len(rest) != 1 {
		return errf(codeBadArg, "UNSUBSCRIBE <subid>")
	}
	id, err := argInt(rest[0])
	if err != nil {
		return errf(codeBadArg, "%v", err)
	}
	st := c.findSub(int64(id))
	if st == nil {
		return errf(codeErr, "no subscription %d on this connection", id)
	}
	st.unsubscribe()
	return intf(1)
}

// predicateEqual compares a session's standing predicate against a
// RESUME request: the query object is part of the predicate and is
// compared by value, exactly as the durable cursor does.
func (st *subState) predicateEqual(sp subSpec) bool {
	return st.kind == sp.kind && st.k == sp.k && st.tau == sp.tau && reflect.DeepEqual(st.q, sp.q)
}
