package server

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"probprune/internal/cq"
	"probprune/internal/obs"
	"probprune/internal/query"
)

// Options configures a Server.
type Options struct {
	// CursorPath enables durable (named) subscriptions: it becomes the
	// subscription monitor's cursor file (see cq.Options.CursorPath).
	// Empty disables NAME/RESUME-after-restart; anonymous subscriptions
	// still work.
	CursorPath string
	// CursorEvery auto-saves the durable cursor after that many
	// processed changes; <= 0 selects 512.
	CursorEvery int
	// Retain is the per-session retained event ring, the one place a
	// session buffers events: the resume window of a parked
	// subscription, the backpressure bound of an attached one, and the
	// largest initial result set a SUBSCRIBE accepts. The ring grows
	// with the events it holds. <= 0 selects 8192.
	Retain int
	// OutQueue is the per-connection outbound frame queue; <= 0
	// selects 1024.
	OutQueue int
	// DrainTimeout bounds how long Close waits for subscription
	// sessions to deliver their tails before force-closing
	// connections; <= 0 selects 5s.
	DrainTimeout time.Duration
	// SlowQuery arms the flight recorder's slow-query capture: every
	// query at least this slow records its full trace snapshot into the
	// recorder ring, whether or not the client asked for TRACE. <= 0
	// disables the capture (the recorder still logs errors and
	// durability events).
	SlowQuery time.Duration
	// RecorderSize is the flight-recorder ring capacity in events;
	// <= 0 selects 1024.
	RecorderSize int
	// Logf, when set, receives server diagnostics.
	Logf func(format string, args ...any)
	// Logger, when set, receives structured lifecycle logging: connect,
	// disconnect, park, resume and protocol errors, each tagged with the
	// connection ID. Nil discards.
	Logger *slog.Logger
}

func (o Options) cursorEvery() int {
	if o.CursorEvery <= 0 {
		return 512
	}
	return o.CursorEvery
}

func (o Options) retain() int {
	if o.Retain <= 0 {
		return 8192
	}
	return o.Retain
}

func (o Options) outQueue() int {
	if o.OutQueue <= 0 {
		return 1024
	}
	return o.OutQueue
}

func (o Options) drainTimeout() time.Duration {
	if o.DrainTimeout <= 0 {
		return 5 * time.Second
	}
	return o.DrainTimeout
}

func (o Options) recorderSize() int {
	if o.RecorderSize <= 0 {
		return 1024
	}
	return o.RecorderSize
}

// Modes a SUBSCRIBE/RESUME reply reports, telling the client how to
// interpret the initial events:
const (
	// ModeFull: the initial ObjectEntered events are the complete
	// current result set.
	ModeFull = "full"
	// ModeDelta: the initial events are the coalesced delta against the
	// durable cursor's persisted result set (resume across a server
	// restart) — exact if the client had drained the stream up to the
	// last cursor save.
	ModeDelta = "delta"
	// ModeContinue: an exact continuation — the events that follow are
	// precisely the stream suffix past the watermark the client
	// presented. Nothing is missing, nothing repeats.
	ModeContinue = "continue"
)

// Server serves the protocol of this package over a *query.Store at any
// shard count. The server adds a wire, never its own query semantics,
// so everything it answers is bit-identical to calling the store in
// process (the equivalence test tier enforces this). Construct with
// New, start with Serve or ListenAndServe, stop with Close.
//
// One cq.Monitor (and thus one maintenance worker) is shared by all
// connections; subscription sessions live in the server's registry so
// they survive the connections that created them (see subs.go).
type Server struct {
	opts    Options
	store   *query.Store
	mon     *cq.Monitor
	metrics *srvMetrics
	rec     *obs.Recorder
	started time.Time
	log     *slog.Logger

	nextConnID atomic.Int64

	ctx    context.Context // server lifetime: cancels in-flight queries on Close
	cancel context.CancelFunc

	wg sync.WaitGroup // connection loops + session deliveries

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	sessions map[int64]*subState
	named    map[string]*subState
	nextSub  int64
	closed   bool
}

// New wraps store in a server. The subscription monitor attaches
// immediately (mutations from now on publish snapshots); the server
// owns it until Close.
func New(store *query.Store, opts Options) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	log := opts.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		opts:     opts,
		store:    store,
		metrics:  newSrvMetrics(),
		rec:      obs.NewRecorder(opts.recorderSize()),
		started:  time.Now(),
		log:      log,
		ctx:      ctx,
		cancel:   cancel,
		conns:    make(map[*conn]struct{}),
		sessions: make(map[int64]*subState),
		named:    make(map[string]*subState),
	}
	// The flight recorder is server-owned but records store-side events
	// too, along with the slow-query capture.
	store.SetRecorder(s.rec)
	if opts.SlowQuery > 0 {
		store.SetSlowQueryThreshold(opts.SlowQuery)
	}
	// Sessions consume their subscriptions' events into their rings
	// (SubscribeTo), so the monitor's channel options go unused.
	s.mon = cq.NewMonitor(store, cq.Options{
		CursorPath:  opts.CursorPath,
		CursorEvery: opts.cursorEvery(),
	})
	return s
}

// ListenAndServe listens on addr (TCP) and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close. It returns nil after
// Close, the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		c := newConn(s, nc)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.metrics.connsAccepted.Inc()
		s.metrics.connsOpen.Inc()
		s.log.Info("connection accepted", "conn", c.id, "remote", nc.RemoteAddr().String())
		s.wg.Add(2)
		go c.readLoop()
		go c.writeLoop()
	}
}

// Addr returns the listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Monitor exposes the server's subscription monitor (stats, SaveCursor).
func (s *Server) Monitor() *cq.Monitor { return s.mon }

// Recorder exposes the server's flight recorder (the EVENTS command and
// the debug endpoint serve its snapshots).
func (s *Server) Recorder() *obs.Recorder { return s.rec }

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Close shuts the server down gracefully: stop accepting, close the
// monitor (every committed change is still processed and delivered),
// let sessions push their tails and terminal EvEnd frames, then drop
// the connections. Sessions that cannot drain within DrainTimeout
// (stalled peers) are cut off.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	// Ends every cq stream after draining committed changes; sessions
	// deliver what remains in their rings and terminate.
	s.mon.Close()
	deadline := time.Now().Add(s.opts.drainTimeout())
	for {
		s.mu.Lock()
		n := len(s.sessions)
		s.mu.Unlock()
		if n == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	// A retired session only proves its terminal frame reached the
	// connection's queue; wait for the writers to flush the tails onto
	// the sockets before cutting them.
	for {
		s.mu.Lock()
		var pending int64
		for c := range s.conns {
			pending += c.queued.Load()
		}
		s.mu.Unlock()
		if pending == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.cancel()
	s.mu.Lock()
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) dropConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.metrics.connsOpen.Dec()
	s.log.Info("connection closed", "conn", c.id)
}

// retire removes a terminated session from the registry.
func (s *Server) retire(st *subState) {
	s.mu.Lock()
	delete(s.sessions, st.id)
	if st.name != "" && s.named[st.name] == st {
		delete(s.named, st.name)
	}
	s.mu.Unlock()
}

func efp(f Frame) *Frame { return &f }

// subscribeErrFrame maps cq subscribe errors to protocol error replies.
func subscribeErrFrame(err error) Frame {
	switch {
	case errors.Is(err, cq.ErrCursorMismatch):
		return errf(codeCursorMismatch, "%v", err)
	case errors.Is(err, cq.ErrDuplicateName):
		return errf(codeBusy, "%v", err)
	default:
		return errf(codeErr, "%v", err)
	}
}

// newSessionLocked subscribes a new session to the monitor and
// registers it, claimed by c (hold is set: delivery stays silent until
// the dispatch goroutine has enqueued the command reply and calls
// release). The session is the subscription's consumer, so the initial
// result set is in its ring when the subscribe returns. Caller holds
// s.mu.
func (s *Server) newSessionLocked(c *conn, sp subSpec) (*subState, *Frame) {
	st := &subState{
		srv:      s,
		id:       s.nextSub + 1,
		name:     sp.name,
		kind:     sp.kind,
		k:        sp.k,
		tau:      sp.tau,
		q:        sp.q,
		policy:   sp.policy,
		retain:   s.opts.retain(),
		attached: c,
		hold:     true,
		kick:     make(chan struct{}, 1),
		dead:     make(chan struct{}),
		unbind:   make(chan struct{}),
	}
	sub, err := s.mon.SubscribeTo(st, sp.name, sp.kind, sp.q, sp.k, sp.tau)
	if err != nil {
		return nil, efp(subscribeErrFrame(err))
	}
	s.nextSub++
	st.sub = sub
	s.sessions[st.id] = st
	if st.name != "" {
		s.named[st.name] = st
	}
	c.addSub(st)
	s.wg.Add(1)
	go st.delivery()
	return st, nil
}

// subscribe creates a subscription session for c. On success the
// session is claimed by c with delivery held; the caller replies and
// then calls release. The *Frame return, when non-nil, is the error
// reply instead.
func (s *Server) subscribe(c *conn, sp subSpec) (*subState, string, *Frame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, "", efp(errf(codeErr, "server shutting down"))
	}
	mode := ModeFull
	if sp.name != "" {
		if s.opts.CursorPath == "" {
			return nil, "", efp(errf(codeNoDurable, "durable subscriptions need a server cursor (run udbserver with -dir)"))
		}
		if st := s.named[sp.name]; st != nil && !st.isTerminated() {
			return nil, "", efp(errf(codeBusy, "subscription %q is live; RESUME it or UNSUBSCRIBE first", sp.name))
		}
		if sp.fresh {
			if err := s.mon.Forget(sp.name); err != nil {
				return nil, "", efp(errf(codeErr, "%v", err))
			}
		} else if s.mon.HasCursorSub(sp.name) {
			mode = ModeDelta
		}
	}
	st, ef := s.newSessionLocked(c, sp)
	return st, mode, ef
}

// resume reattaches c to the named subscription at the client's
// watermark. Three outcomes (see docs/PROTOCOL.md):
//
//   - the session is live in this server: exact continuation from the
//     retained ring (ModeContinue), or -GONE if the resume point was
//     evicted under PolicyDisconnect. A session still attached to
//     another connection is taken from it (the newer connection wins);
//   - the session is gone but the durable cursor knows the name
//     (server restarted): a fresh cq subscription delivers the
//     coalesced delta since the cursor (ModeDelta);
//   - neither: a full fresh subscription (ModeFull).
func (s *Server) resume(c *conn, sp subSpec, w watermark) (*subState, string, uint64, *Frame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, "", 0, efp(errf(codeErr, "server shutting down"))
	}
	if st := s.named[sp.name]; st != nil && !st.isTerminated() {
		st.mu.Lock()
		if !st.predicateEqual(sp) {
			st.mu.Unlock()
			return nil, "", 0, efp(errf(codeCursorMismatch, "predicate differs from the live subscription %q", sp.name))
		}
		from, lost, ok := st.resumeFromLocked(w)
		if !ok {
			st.mu.Unlock()
			return nil, "", 0, efp(errf(codeGone, "resume point evicted from the retained ring; SUBSCRIBE ... FRESH for a full snapshot"))
		}
		if st.attached != nil {
			st.supersedeLocked()
		}
		st.attachLocked(c, from)
		st.hold = true
		st.mu.Unlock()
		c.addSub(st)
		s.rec.Record(obs.EvSessionResume, s.rec.Note(sp.name), 0, st.id, int64(lost))
		return st, ModeContinue, lost, nil
	}
	if s.opts.CursorPath == "" {
		return nil, "", 0, efp(errf(codeNoDurable, "no session %q and the server has no durable cursor", sp.name))
	}
	mode := ModeFull
	if s.mon.HasCursorSub(sp.name) {
		mode = ModeDelta
	}
	st, ef := s.newSessionLocked(c, sp)
	return st, mode, 0, ef
}

// release lifts the delivery hold set by subscribe/resume, after the
// dispatch goroutine enqueued the command reply — this is what orders
// the [id, mode] reply strictly before the session's first push frame.
func (s *Server) release(st *subState) {
	st.mu.Lock()
	st.hold = false
	st.mu.Unlock()
	st.kickDelivery()
}
