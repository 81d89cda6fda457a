package cq

import (
	"errors"

	"probprune/internal/query"
	"probprune/internal/uncertain"
)

// EventKind identifies what happened to one object of a subscription's
// result set.
type EventKind uint8

const (
	// ObjectEntered: the object satisfies the subscription predicate at
	// Event.Version and did not at the previous version (or the
	// subscription just started and this is part of its initial result
	// set).
	ObjectEntered EventKind = iota + 1
	// ObjectLeft: the object no longer satisfies the predicate (or left
	// the database).
	ObjectLeft
	// BoundsChanged: the object remains in the result set but its
	// probability bounds changed.
	BoundsChanged
)

// String returns a short human-readable kind name.
func (k EventKind) String() string {
	switch k {
	case ObjectEntered:
		return "entered"
	case ObjectLeft:
		return "left"
	case BoundsChanged:
		return "bounds"
	default:
		return "unknown"
	}
}

// Event is one result-set transition of a standing subscription.
// Events are delivered in version order; within one version, in
// ascending object ID order. The cumulative event stream reconstructs
// the subscription's exact result set — objects and probability bounds
// bit-identical to re-running the query on the store state of
// Event.Version (the mutation-trace oracle test enforces this).
type Event struct {
	// Kind is the transition.
	Kind EventKind
	// Version is the store mutation epoch the event is valid at.
	Version uint64
	// Object is the affected object (for updates, the post-update
	// object; for ObjectLeft after a delete, the removed object).
	Object *uncertain.Object
	// Match is the candidate's state after the change: probability
	// bounds and verdict as a from-scratch query at Version would
	// report them. It is the zero Match when the object left by
	// deletion — there is no post-change state.
	Match query.Match
}

// Consumer takes a subscription's events in place of its Events
// channel; SubscribeTo installs one. The monitor worker calls Deliver
// first with the initial result set (possibly empty) before the
// subscribe call returns, then with each later version's events, in
// stream order, and calls End exactly once when the subscription ends,
// with the error Subscription.Err reports. A Deliver error ends the
// subscription with that error, and the events of that call count as
// undelivered. Neither method may block or call back into the Monitor.
type Consumer interface {
	Deliver(evs []Event) error
	End(err error)
}

// chanConsumer is the Events channel as a Consumer: a bounded buffer
// under the monitor's slow-consumer Policy.
type chanConsumer struct {
	s      *Subscription
	ch     chan Event
	policy Policy
}

// Deliver buffers evs, shedding the oldest buffered events under
// DropOldest and refusing with ErrSlowConsumer under DisconnectSlow once
// the buffer is full.
func (c *chanConsumer) Deliver(evs []Event) error {
	for _, ev := range evs {
		for {
			select {
			case c.ch <- ev:
			default:
				if c.policy != DropOldest {
					return ErrSlowConsumer
				}
				select {
				case <-c.ch:
					c.s.lost.Add(1)
					c.s.m.lost.Add(1)
				default:
				}
				continue
			}
			break
		}
	}
	return nil
}

// End closes the channel after the events already buffered.
func (c *chanConsumer) End(error) { close(c.ch) }

// Policy selects what happens to a subscription whose consumer does not
// drain events fast enough to keep its bounded buffer from filling.
type Policy uint8

const (
	// DisconnectSlow (the default): the subscription is cancelled and
	// its event channel closed; Subscription.Err reports
	// ErrSlowConsumer. A consumer that needs an exact cumulative view
	// must resubscribe — a gap in the stream would silently corrupt the
	// view, so the stream is ended instead (the NATS-style slow-consumer
	// contract).
	DisconnectSlow Policy = iota
	// DropOldest: the oldest buffered event is discarded to make room,
	// the subscription stays alive, and Subscription.Lost counts the
	// discarded events. For consumers that only care about the latest
	// state transitions and can tolerate gaps.
	DropOldest
)

// String returns a short human-readable policy name.
func (p Policy) String() string {
	switch p {
	case DropOldest:
		return "drop-oldest"
	default:
		return "disconnect-slow"
	}
}

// Options configures a Monitor.
type Options struct {
	// Buffer is the per-subscription event channel capacity; <= 0
	// selects DefaultBuffer. It sizes Events channels only: a
	// subscription made with SubscribeTo hands its events to its
	// Consumer and has no channel.
	Buffer int
	// Policy is the slow-consumer policy of Events channels; the zero
	// value is DisconnectSlow.
	Policy Policy
	// CursorPath, when set, gives the monitor a durable cursor: the
	// file persists the last fully-delivered store version and the
	// result set of every named subscription (SubscribeKNNDurable /
	// SubscribeRKNNDurable). After a restart, re-subscribing under the
	// same name delivers the coalesced delta between the cursor and the
	// recovered store head instead of the full result set — resumption
	// from the last delivered version, not from genesis.
	CursorPath string
	// CursorEvery auto-saves the cursor after that many processed
	// changes; 0 saves only on SaveCursor and Close. Saves append a
	// delta — only the subscriptions that woke since the last save —
	// to a cursor log, and the log compacts into a fresh base (atomic
	// write + rename, fsynced) once the deltas outgrow it. Delta
	// appends are not fsynced: an OS crash can cost the last few saves
	// (a slightly larger resume delta), never a corrupt cursor.
	// Auto-save failures are deferred and surfaced by the next
	// SaveCursor or Close, and counted in Stats.
	CursorEvery int
}

// DefaultBuffer is the per-subscription event buffer capacity used when
// Options does not choose one.
const DefaultBuffer = 64

func (o Options) buffer() int {
	if o.Buffer <= 0 {
		return DefaultBuffer
	}
	return o.Buffer
}

// Terminal subscription errors, reported by Subscription.Err after the
// event channel closed.
var (
	// ErrSlowConsumer: the DisconnectSlow policy cancelled the
	// subscription because its event buffer overflowed (a Consumer may
	// report it for its own bound too).
	ErrSlowConsumer = errors.New("cq: slow consumer, subscription dropped")
	// ErrUnsubscribed: the subscription was cancelled by the client.
	ErrUnsubscribed = errors.New("cq: unsubscribed")
	// ErrMonitorClosed: the monitor shut down.
	ErrMonitorClosed = errors.New("cq: monitor closed")
	// ErrCursorMismatch: a durable subscription's name exists in the
	// cursor with a different predicate (kind, k or tau) — resuming it
	// would silently deliver a wrong delta.
	ErrCursorMismatch = errors.New("cq: durable subscription does not match its cursor state")
)

// Stats aggregates monitor-wide maintenance counters; all values are
// cumulative since the monitor started.
type Stats struct {
	// Changes is the number of store change records processed.
	Changes uint64
	// Woken is the number of (change, subscription) pairs that required
	// maintenance — subscriptions whose influence region the mutated
	// object intersected. Changes outside every region wake nobody.
	Woken uint64
	// Runs is the number of per-candidate IDCA evaluations executed by
	// incremental maintenance. Re-running every subscription from
	// scratch on each change would execute one run per non-preselected
	// candidate instead — the incrementality the benchmark measures.
	Runs uint64
	// SetupRuns is the number of per-candidate evaluations spent on
	// initial subscription evaluation (not maintenance).
	SetupRuns uint64
	// Saved is the number of (change, candidate) pairs a woken
	// subscription visited and decided WITHOUT an IDCA re-run — the
	// persisted verdict stood. Only the working set is visited (tracked
	// candidates plus the untracked objects the change could bring in),
	// so objects preselected away before and after a change are in
	// neither counter. Runs vs. Saved is the incremental-maintenance
	// economy: a from-scratch re-evaluation would have executed a run
	// for every saved tracked candidate too.
	Saved uint64
	// Events is the number of events delivered to subscribers.
	Events uint64
	// Lost is the number of events discarded by the DropOldest policy.
	Lost uint64
	// Dropped is the number of subscriptions ended because their
	// consumer refused events: an Events channel full under the
	// DisconnectSlow policy, or a Consumer's Deliver error.
	Dropped uint64
	// CursorSaves counts successful cursor saves (delta appends and
	// full rewrites alike); CursorSaveFailures the failed ones. A
	// failed auto-save is deferred and surfaced by the next SaveCursor
	// or Close, never silently dropped.
	CursorSaves, CursorSaveFailures uint64
	// CursorDeltaBytes is the cumulative size of appended cursor
	// deltas; CursorCompactions the number of base rewrites triggered
	// by delta growth. Together they describe the write volume the
	// append-only cursor log pays compared to a full rewrite per save.
	CursorDeltaBytes, CursorCompactions uint64
}

// SubStats are the per-subscription counters of Stats.
type SubStats struct {
	Woken, Runs, SetupRuns, Saved, Events, Lost uint64
}
