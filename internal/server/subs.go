package server

import (
	"fmt"
	"sync"

	"probprune/internal/cq"
	"probprune/internal/obs"
	"probprune/internal/uncertain"
)

// Subscription sessions.
//
// A subscription on the wire is owned by the server's session
// registry, not by the connection that created it. The session is the
// cq.Subscription's consumer: the monitor worker appends each version's
// events to the session's retained ring under the session lock, so the
// ring is the only place a session buffers events, and one delivery
// goroutine per session walks the ring and writes events to the
// attached connection (if any), in order.
//
// The ring retains events after delivery, bounded by Options.Retain,
// which also bounds the initial result set: a set larger than the ring
// fails SUBSCRIBE with an error reply.
// Because the cq stream is strictly ordered — versions ascend, object
// IDs ascend within a version — the pair (Version, Object.ID) is a
// total-order watermark over the stream, and a client that reconnects
// can present the watermark of the last event it actually processed:
// RESUME replays exactly the ring suffix past it. The session tracks
// the watermark of the newest ring eviction, so it can tell exactly
// when a requested resume point is no longer replayable (-GONE) rather
// than guessing from what it believes it delivered — TCP never
// confirms what a dead peer really received.
//
// Backpressure maps the cq policies onto connections:
//
//   - PolicyDisconnect (DisconnectSlow): delivered events may be
//     evicted (shrinking the resume window), but when the ring fills
//     with events the subscriber has not consumed, the subscription is
//     terminated with an EvEnd "slow" push — no silent gaps, the
//     NATS-style contract.
//   - PolicyDropOldest: the oldest event is shed and counted in lost;
//     gaps are the subscriber's accepted trade.

// Policy is the server-level backpressure policy of one subscription.
type Policy uint8

const (
	// PolicyDisconnect terminates a subscription rather than ever
	// skipping an event (maps cq.DisconnectSlow to the connection).
	PolicyDisconnect Policy = iota
	// PolicyDropOldest sheds the oldest retained event and keeps going.
	PolicyDropOldest
)

func (p Policy) String() string {
	if p == PolicyDropOldest {
		return "dropoldest"
	}
	return "disconnect"
}

// watermark is a position in a subscription's totally ordered event
// stream: the (version, object ID) of the last processed event.
type watermark struct {
	v  uint64
	id int
}

func (w watermark) less(x watermark) bool {
	return w.v < x.v || (w.v == x.v && w.id < x.id)
}

func eventWatermark(ev EventMsg) watermark {
	return watermark{v: ev.Version, id: ev.Object.ID}
}

// subState is one live (attached or parked) subscription session.
type subState struct {
	srv    *Server
	id     int64
	name   string // durable identity; "" for ephemeral subscriptions
	kind   cq.Kind
	k      int
	tau    float64
	q      *uncertain.Object
	policy Policy
	retain int

	sub *cq.Subscription

	mu         sync.Mutex
	seeded     bool // the initial result set was delivered
	ring       []EventMsg
	delivered  int       // ring[:delivered] handed to the attached connection
	evicted    watermark // newest evicted event; zero until evictedAny
	evictedAny bool
	lost       uint64
	attached   *conn
	unbind     chan struct{} // closed when a RESUME supersedes attached; aborts a push to it
	hold       bool          // delivery paused until the subscribe/resume reply is enqueued
	streamEnd  bool          // the cq stream closed; endReason says why
	endReason  string
	terminated bool // terminal state reached; the session is dead

	kick    chan struct{} // cap-1 wakeup for the delivery loop
	dead    chan struct{} // closed on termination; aborts blocked sends
	sending sync.Mutex    // held across each push to the attached connection
}

// isTerminated reports whether the session reached its terminal state
// (it may not be retired from the registry yet).
func (st *subState) isTerminated() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.terminated
}

func endReasonFor(err error) string {
	switch err {
	case cq.ErrUnsubscribed:
		return EndUnsubscribed
	case cq.ErrSlowConsumer:
		return EndSlow
	default:
		return EndClosed
	}
}

// kickDelivery wakes the delivery loop (coalescing).
func (st *subState) kickDelivery() {
	select {
	case st.kick <- struct{}{}:
	default:
	}
}

// Deliver is the session's cq.Consumer side, called by the monitor
// worker: it appends one version's events to the ring. The first call
// carries the initial result set, which must fit the ring whole —
// otherwise the subscribe fails rather than start a stream it would
// have to end at once. A ring the disconnect policy terminates refuses
// with cq.ErrSlowConsumer, which ends the cq subscription.
func (st *subState) Deliver(evs []cq.Event) error {
	st.mu.Lock()
	defer st.kickDelivery()
	defer st.mu.Unlock()
	if !st.seeded {
		st.seeded = true
		if len(evs) > st.retain {
			return fmt.Errorf("initial result set of %d events exceeds the %d-event session ring", len(evs), st.retain)
		}
	}
	for _, ev := range evs {
		if !st.appendLocked(eventFromCQ(st.id, ev.Kind.String(), ev.Version, ev.Object, ev.Match)) {
			return cq.ErrSlowConsumer
		}
	}
	return nil
}

// End is the cq.Consumer end of stream: the delivery loop pushes the
// ring's tail and then the terminal frame.
func (st *subState) End(err error) {
	st.mu.Lock()
	if !st.streamEnd {
		st.streamEnd = true
		st.endReason = endReasonFor(err)
	}
	st.mu.Unlock()
	st.kickDelivery()
}

// appendLocked admits one event into the ring, applying the retention
// cap and the backpressure policy. It reports false when the policy
// terminated the session. Caller must hold st.mu.
func (st *subState) appendLocked(ev EventMsg) bool {
	if st.terminated {
		return true // an ephemeral session's cancel is in flight
	}
	st.ring = append(st.ring, ev)
	if len(st.ring) > st.retain {
		switch {
		case st.delivered > 0:
			// The front was already handed to a connection: evicting it
			// only shrinks the resume window.
			st.evictFrontLocked()
		case st.policy == PolicyDropOldest:
			st.evictFrontLocked()
			st.lost++
			st.srv.metrics.shed.Inc()
			st.srv.rec.Record(obs.EvSessionShed, 0, 0, st.id, 1)
		default:
			// PolicyDisconnect with an entirely unconsumed ring: the
			// subscriber (parked, or attached but stalled) is further
			// behind than the server retains. Terminate rather than gap.
			st.srv.metrics.slowKills.Inc()
			st.terminateLocked(EndSlow)
			return false
		}
	}
	return true
}

// evictFrontLocked drops ring[0], advancing the eviction watermark.
func (st *subState) evictFrontLocked() {
	st.evicted = eventWatermark(st.ring[0])
	st.evictedAny = true
	st.ring = st.ring[1:]
	if st.delivered > 0 {
		st.delivered--
	}
}

// terminateLocked marks the session dead. Caller must hold st.mu.
func (st *subState) terminateLocked(reason string) {
	if st.terminated {
		return
	}
	st.terminated = true
	st.streamEnd = true
	st.endReason = reason
	close(st.dead)
}

// attach binds the session to a connection, resuming delivery at ring
// index from. Caller must hold st.mu.
func (st *subState) attachLocked(c *conn, from int) {
	st.attached = c
	st.delivered = from
}

// supersedeLocked takes the session from its attached connection for a
// RESUME on another one. The newer connection wins, so neither a RESUME
// that races the server noticing a dropped connection nor a half-open
// peer that is never noticed can lock the name. A push blocked on the
// old connection aborts, and the old stream ends with a best-effort
// superseded frame after the last event pushed to it: trySend, so a
// stalled peer cannot block the RESUME. Caller must hold st.mu.
func (st *subState) supersedeLocked() {
	old := st.attached
	close(st.unbind)
	st.unbind = make(chan struct{})
	st.sending.Lock()
	old.trySend(encodeEvent(EventMsg{Sub: st.id, Kind: EvEnd, Reason: EndSuperseded}))
	st.sending.Unlock()
	old.dropSub(st)
	st.attached = nil
	st.srv.log.Info("supersede", "conn", old.id, "sub", st.id, "name", st.name)
}

// push writes one event to c unless the attachment it was read under
// was superseded meanwhile (unbind closed): holding sending orders it
// before, or drops it after, the superseded frame.
func (st *subState) push(c *conn, ev EventMsg, unbind chan struct{}) bool {
	st.sending.Lock()
	defer st.sending.Unlock()
	select {
	case <-unbind:
		return false
	default:
	}
	return c.send(encodeEvent(ev), st.dead, unbind)
}

// detach unbinds the session from a dying connection: named sessions
// park (events keep accruing in the ring, RESUME reattaches), ephemeral
// ones terminate.
func (st *subState) detach(c *conn) {
	parked := false
	st.mu.Lock()
	if st.attached == c {
		st.attached = nil
		if st.name == "" {
			if !st.terminated {
				// Cancel synchronizes with the monitor worker, which may
				// be waiting for st.mu to hand this session an event.
				go st.sub.Cancel()
			}
			st.terminateLocked(EndUnsubscribed)
		} else {
			parked = !st.terminated
		}
	}
	st.mu.Unlock()
	if parked {
		st.srv.log.Info("park", "conn", c.id, "sub", st.id, "name", st.name)
		st.srv.rec.Record(obs.EvSessionPark, st.srv.rec.Note(st.name), 0, st.id, 0)
	}
	st.kickDelivery()
}

// unsubscribe ends the session on client request. The terminal EvEnd
// push is delivered after every event already in the stream.
func (st *subState) unsubscribe() {
	// Cancel synchronously: the monitor stops maintaining the
	// subscription and ends the stream with ErrUnsubscribed, after the
	// events already in the ring.
	st.sub.Cancel()
}

// delivery walks the ring and writes events to the attached
// connection, followed by the terminal push once the stream ended and
// the ring drained. One goroutine per session; exits when the session
// reaches its terminal state (every session does at server shutdown).
func (st *subState) delivery() {
	defer st.srv.wg.Done()
	for {
		st.mu.Lock()
		for {
			if st.terminated && !st.hold {
				c := st.attached
				reason := st.endReason
				st.attached = nil
				st.mu.Unlock()
				if c != nil {
					if reason == EndSlow {
						// The policy IS the disconnect: best-effort end
						// frame, then drop the stalled connection.
						c.trySend(encodeEvent(EventMsg{Sub: st.id, Kind: EvEnd, Reason: reason}))
						c.dropSub(st)
						c.close()
					} else {
						c.send(encodeEvent(EventMsg{Sub: st.id, Kind: EvEnd, Reason: reason}), nil, nil)
						c.dropSub(st)
					}
				}
				st.srv.retire(st)
				return
			}
			c := st.attached
			if c == nil || st.hold {
				break
			}
			if st.delivered >= len(st.ring) {
				if st.streamEnd {
					// Stream over and fully delivered: terminal next loop.
					st.terminated = true
					close(st.dead)
					continue
				}
				break
			}
			ev := st.ring[st.delivered]
			st.delivered++
			unbind := st.unbind
			st.mu.Unlock()
			if st.push(c, ev, unbind) {
				st.srv.metrics.pushed.Inc()
			}
			st.mu.Lock()
		}
		// Parked sessions whose stream ended retire without a peer to
		// notify — the stream can only end while parked at monitor
		// shutdown, when any remaining ring backlog is undeliverable.
		if st.streamEnd && st.attached == nil && !st.hold && !st.terminated {
			st.terminated = true
			close(st.dead)
			st.mu.Unlock()
			continue
		}
		st.mu.Unlock()
		select {
		case <-st.kick:
		case <-st.dead:
		}
	}
}

// resumeFrom locates the ring index of the first event past w and
// validates replayability. It reports:
//
//	ok=true:  replay from index from; lost is the cumulative shed count
//	ok=false: the resume point was evicted under PolicyDisconnect —
//	          an exact continuation is impossible (-GONE)
//
// Caller must hold st.mu.
func (st *subState) resumeFromLocked(w watermark) (from int, lost uint64, ok bool) {
	if st.evictedAny && w.less(st.evicted) && st.policy == PolicyDisconnect {
		return 0, st.lost, false
	}
	// Ring is (version, id)-ascending: scan to the first event past w.
	for from < len(st.ring) && !w.less(eventWatermark(st.ring[from])) {
		from++
	}
	return from, st.lost, true
}
