// Package cq turns the one-shot probabilistic queries of package query
// into continuous ones: standing KNN/RkNN subscriptions over a live
// query.Store, kept current incrementally as Insert/Update/Delete
// commit, with clients consuming an ordered stream of result-set events
// — the serving model of production geofence systems (tile38-style),
// built on the paper's domination-count bounds.
//
// # Incremental, pruning-aware maintenance
//
// The paper's economy — decide predicates with cheap bounds instead of
// full integration — is applied twice over:
//
//   - Across subscriptions: each subscription registers its influence
//     region (the area where a mutation could change its result) in an
//     R-tree; a committed change wakes only the subscriptions whose
//     region the mutated object intersects. Everything else stays
//     asleep, provably unaffected.
//   - Within a subscription: per-candidate IDCA verdicts and bounds are
//     persisted. On a change, a candidate re-runs only when its
//     preselection status flipped or the mutated object's filter role
//     (core.ClassifyRole) in that candidate's run changed or is an
//     influence-set membership. All other candidates keep their decided
//     verdicts. The step visits only the tracked candidates and the
//     untracked objects the change could bring in (an index walk, see
//     Subscription.apply) — never the database. Because re-evaluation
//     goes through the same EvalKNNCandidate/EvalRKNNCandidate paths a
//     from-scratch query uses, the maintained state stays bit-identical
//     to recomputing the query at every version (the mutation-trace
//     oracle test enforces this).
//
// # Event delivery
//
// Events are delivered per subscription, in store version order, with
// ascending object IDs within a version, to one consumer: the Events
// channel, a bounded buffer whose consumer either loses the
// subscription when it stops draining (DisconnectSlow, the default — no
// silent gaps) or sheds the oldest events (DropOldest, counted in Lost),
// see Options; or a Consumer given to SubscribeTo, which holds the
// events itself — the server's session rings do — so the subscription
// buffers nothing of its own.
package cq

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"

	"probprune/internal/geom"
	"probprune/internal/query"
	"probprune/internal/rtree"
	"probprune/internal/uncertain"
	"probprune/internal/wal"
)

// Monitor maintains standing subscriptions over one Store. It consumes
// the store's committed change stream (Store.Watch) on a single worker
// goroutine: changes are applied strictly in version order, so every
// subscription observes every version exactly once. Construct with
// NewMonitor, release with Close.
//
// The change queue between the store and the worker is unbounded:
// accepting a change must never block (the Watch callback runs under
// the store's write lock) and per-version exactness rules out shedding
// or coalescing, so a writer that sustains more commits per second than
// maintenance drains grows the backlog — and each queued change pins
// the snapshot of its version. Writers that can outpace maintenance for
// long stretches should watch QueueLen (or compare Version against
// Store.Version) and throttle; bounding the queue with an explicit
// backpressure or degrade-to-requery mode is future work.
type Monitor struct {
	store *query.Store
	opts  Options

	qmu    sync.Mutex
	qcond  *sync.Cond
	queue  []item
	closed bool

	done chan struct{} // closed when the worker exits

	// Worker-owned state: only the run goroutine touches these.
	snap      *query.Snapshot
	subs      map[int64]*Subscription
	regions   *rtree.Tree[*Subscription] // bounded influence regions
	unbounded map[int64]*Subscription    // subscriptions that wake on every change
	cursor    *wal.Cursor                // in-memory durable cursor view (nil without one)
	clog      *wal.CursorLog             // append-only cursor log behind CursorPath; set under wmu (Stats reads it)
	cursorErr error                      // cursor open failure, surfaced on durable subscribes
	sinceSave int                        // changes processed since the last cursor save
	dirty     map[string]bool            // names whose result set changed since the last successful save
	deleted   map[string]bool            // names forgotten since the last successful save
	forceFull bool                       // next save rewrites the base (after a failed save)
	saveErr   error                      // deferred auto-save failure, surfaced by SaveCursor/Close
	closeErr  error                      // final save/close failure, returned by Close

	wmu       sync.Mutex
	processed uint64
	vv        []uint64 // per-shard version-vector cursor (multi-shard stores)
	advanced  chan struct{}

	stopWatch func()
	nextID    atomic.Int64
	subCount  atomic.Int64

	changes, woken, runs, setupRuns, saved, events, lost, dropped atomic.Uint64
	cursorSaves, cursorSaveFails                                  atomic.Uint64
}

// item is one unit of worker input: a store change or a control request.
type item struct {
	change    *query.Change
	sub       *Subscription
	unsub     *Subscription
	save      chan error // SaveCursor request
	forget    string     // Forget request (discriminated by forgetRes)
	forgetRes chan error
	hasName   string // HasCursorSub request (discriminated by hasRes)
	hasRes    chan bool
	shutdown  bool
	done      chan struct{}
}

// NewMonitor attaches a monitor to the store (for a multi-shard store,
// its merged change stream). The registration is
// atomic with a snapshot of the current state: subscriptions made
// before any further mutation see exactly that state as their initial
// result. The monitor owns a background worker until Close.
//
// While a monitor is attached every store mutation publishes a snapshot
// (see Store.Watch), so every commit pays one copy-on-write detach — the
// page tables of the shard's object list and R-tree, plus the list
// chunk and tree pages the commit writes — the cost of a gapless
// per-version subscription feed. Maintenance reaches objects through
// the snapshots' indexes and never flattens their object lists.
func NewMonitor(store *query.Store, opts Options) *Monitor {
	m := &Monitor{
		store:     store,
		opts:      opts,
		done:      make(chan struct{}),
		subs:      make(map[int64]*Subscription),
		regions:   rtree.New[*Subscription](),
		unbounded: make(map[int64]*Subscription),
		advanced:  make(chan struct{}),
	}
	m.qcond = sync.NewCond(&m.qmu)
	if opts.CursorPath != "" {
		m.clog, m.cursor, m.cursorErr = wal.OpenCursorLog(opts.CursorPath)
	}
	snap, stop := store.Watch(func(ch query.Change) {
		c := ch
		m.enqueue(item{change: &c})
	})
	m.snap = snap
	m.processed = snap.Version()
	m.vv = snap.VersionVector()
	m.stopWatch = stop
	go m.run()
	return m
}

// SubscribeKNN registers a standing probabilistic threshold kNN query:
// the event stream tracks every object B with P(B ∈ kNN(q)) >= tau.
// The current result set arrives first, as ObjectEntered events.
func (m *Monitor) SubscribeKNN(q *uncertain.Object, k int, tau float64) (*Subscription, error) {
	return m.SubscribeTo(nil, "", KNN, q, k, tau)
}

// SubscribeRKNN registers a standing probabilistic threshold reverse
// kNN query: the stream tracks every object that has q among its k
// nearest neighbors with probability >= tau.
func (m *Monitor) SubscribeRKNN(q *uncertain.Object, k int, tau float64) (*Subscription, error) {
	return m.SubscribeTo(nil, "", RKNN, q, k, tau)
}

// SubscribeKNNDurable is SubscribeKNN with a durable identity: the
// subscription's result set is persisted in the monitor's cursor under
// name, and a monitor restarted with the same cursor file resumes the
// subscription with the coalesced delta since the cursor — an object
// that entered and left while the monitor was down produces no event;
// everything whose membership or bounds differ produces exactly one.
// After the resume events, per-version streaming continues as usual.
// Requires Options.CursorPath; the name must be unique among live
// durable subscriptions, and re-using a name with a different predicate
// fails with ErrCursorMismatch.
func (m *Monitor) SubscribeKNNDurable(name string, q *uncertain.Object, k int, tau float64) (*Subscription, error) {
	return m.subscribeDurable(name, KNN, q, k, tau)
}

// SubscribeRKNNDurable is SubscribeRKNN with a durable identity (see
// SubscribeKNNDurable).
func (m *Monitor) SubscribeRKNNDurable(name string, q *uncertain.Object, k int, tau float64) (*Subscription, error) {
	return m.subscribeDurable(name, RKNN, q, k, tau)
}

func (m *Monitor) subscribeDurable(name string, kind Kind, q *uncertain.Object, k int, tau float64) (*Subscription, error) {
	if name == "" {
		return nil, fmt.Errorf("cq: durable subscription with empty name")
	}
	return m.SubscribeTo(nil, name, kind, q, k, tau)
}

// SubscribeTo registers a standing query of the given kind whose events
// go to c instead of an Events channel (a nil c selects the channel,
// sized and policed by Options). A non-empty name makes it durable, as
// SubscribeKNNDurable does. The initial result set reaches c before
// SubscribeTo returns; if c refuses it, SubscribeTo fails with c's
// error and no subscription remains.
func (m *Monitor) SubscribeTo(c Consumer, name string, kind Kind, q *uncertain.Object, k int, tau float64) (*Subscription, error) {
	if name != "" {
		if m.opts.CursorPath == "" {
			return nil, fmt.Errorf("cq: durable subscription %q without Options.CursorPath", name)
		}
		if m.cursorErr != nil {
			return nil, fmt.Errorf("cq: cursor %s unreadable: %w", m.opts.CursorPath, m.cursorErr)
		}
	}
	if q == nil {
		return nil, fmt.Errorf("cq: nil query object")
	}
	if k < 1 {
		return nil, fmt.Errorf("cq: k = %d, need k >= 1", k)
	}
	if tau < 0 || tau > 1 || math.IsNaN(tau) {
		return nil, fmt.Errorf("cq: tau = %g outside [0, 1]", tau)
	}
	s := &Subscription{
		id:       m.nextID.Add(1),
		m:        m,
		name:     name,
		kind:     kind,
		q:        q,
		k:        k,
		tau:      tau,
		consumer: c,
		cands:    make(map[int]*candState),
		thresh:   math.Inf(1),
	}
	if c == nil {
		s.events = make(chan Event, m.opts.buffer())
		s.consumer = &chanConsumer{s: s, ch: s.events, policy: m.opts.Policy}
	}
	done := make(chan struct{})
	if !m.enqueue(item{sub: s, done: done}) {
		return nil, ErrMonitorClosed
	}
	<-done
	if err := s.Err(); err != nil {
		if err == ErrSlowConsumer && c == nil {
			// The consumer cannot drain before subscribe returns, so an
			// initial result set larger than the buffer would — under
			// DisconnectSlow — kill the subscription deterministically
			// before it ever worked.
			return nil, fmt.Errorf("cq: initial result set overflowed the %d-event buffer (raise Options.Buffer or use DropOldest): %w", m.opts.buffer(), err)
		}
		return nil, err
	}
	return s, nil
}

// ErrDuplicateName: a durable subscription was requested under a name
// that a live durable subscription already holds.
var ErrDuplicateName = fmt.Errorf("cq: durable subscription name already in use")

// Unsubscribe cancels a subscription (see Subscription.Cancel).
func (m *Monitor) Unsubscribe(s *Subscription) { s.Cancel() }

// Close detaches from the store, ends every subscription with
// ErrMonitorClosed and stops the worker. Changes committed before Close
// are still processed; the call blocks until the worker drained them.
func (m *Monitor) Close() error {
	m.stopWatch()
	m.qmu.Lock()
	if m.closed {
		m.qmu.Unlock()
		<-m.done
		return m.closeErr
	}
	m.closed = true
	m.queue = append(m.queue, item{shutdown: true})
	m.qcond.Signal()
	m.qmu.Unlock()
	<-m.done
	// The worker wrote closeErr before closing done; the channel
	// receive orders the read after it.
	return m.closeErr
}

// Version returns the latest store version the monitor has fully
// processed — every subscription's stream is current through it.
func (m *Monitor) Version() uint64 {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	return m.processed
}

// VersionVector returns the monitor's per-shard cursor: the shard
// versions of the latest fully-processed snapshot. It localizes the
// monitor's progress to individual shards of a multi-shard store;
// monitors over a one-shard store return nil.
func (m *Monitor) VersionVector() []uint64 {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if m.vv == nil {
		return nil
	}
	vv := make([]uint64, len(m.vv))
	copy(vv, m.vv)
	return vv
}

// WaitVersion blocks until the monitor has processed store version v
// (every event up to v delivered to the subscription buffers), the
// context is cancelled, or the monitor closes.
func (m *Monitor) WaitVersion(ctx context.Context, v uint64) error {
	for {
		m.wmu.Lock()
		if m.processed >= v {
			m.wmu.Unlock()
			return nil
		}
		ch := m.advanced
		m.wmu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		case <-m.done:
			m.wmu.Lock()
			p := m.processed
			m.wmu.Unlock()
			if p >= v {
				return nil
			}
			return ErrMonitorClosed
		}
	}
}

// Sync blocks until the monitor has caught up with the store's current
// version.
func (m *Monitor) Sync(ctx context.Context) error {
	return m.WaitVersion(ctx, m.store.Version())
}

// NumSubscriptions returns the number of live subscriptions.
func (m *Monitor) NumSubscriptions() int { return int(m.subCount.Load()) }

// QueueLen returns the current maintenance backlog: changes (and
// control requests) accepted but not yet applied. A persistently
// growing value means mutations outpace maintenance — see the queue
// discussion on Monitor.
func (m *Monitor) QueueLen() int {
	m.qmu.Lock()
	defer m.qmu.Unlock()
	return len(m.queue)
}

// Stats returns the monitor-wide cumulative counters.
func (m *Monitor) Stats() Stats {
	st := Stats{
		Changes:            m.changes.Load(),
		Woken:              m.woken.Load(),
		Runs:               m.runs.Load(),
		SetupRuns:          m.setupRuns.Load(),
		Saved:              m.saved.Load(),
		Events:             m.events.Load(),
		Lost:               m.lost.Load(),
		Dropped:            m.dropped.Load(),
		CursorSaves:        m.cursorSaves.Load(),
		CursorSaveFailures: m.cursorSaveFails.Load(),
	}
	m.wmu.Lock()
	clog := m.clog
	m.wmu.Unlock()
	if clog != nil {
		st.CursorDeltaBytes = clog.DeltaBytes()
		st.CursorCompactions = clog.Compactions()
	}
	return st
}

// enqueue hands an item to the worker; it reports false when the
// monitor no longer accepts input. Never blocks — it is called from
// inside store mutations, under the store lock.
func (m *Monitor) enqueue(it item) bool {
	m.qmu.Lock()
	defer m.qmu.Unlock()
	if m.closed {
		return false
	}
	m.queue = append(m.queue, it)
	m.qcond.Signal()
	return true
}

// dequeue blocks until an item is available.
func (m *Monitor) dequeue() item {
	m.qmu.Lock()
	defer m.qmu.Unlock()
	for len(m.queue) == 0 {
		m.qcond.Wait()
	}
	it := m.queue[0]
	m.queue = m.queue[1:]
	return it
}

// run is the worker loop: it serializes subscription management and
// change application, which is what makes the per-subscription state
// single-writer and the event streams strictly ordered.
func (m *Monitor) run() {
	defer close(m.done)
	for {
		it := m.dequeue()
		switch {
		case it.change != nil:
			m.applyChange(*it.change)
		case it.sub != nil:
			m.addSub(it.sub)
			close(it.done)
		case it.unsub != nil:
			m.dropSub(it.unsub, ErrUnsubscribed)
			close(it.done)
		case it.save != nil:
			it.save <- m.saveCursor()
		case it.forgetRes != nil:
			it.forgetRes <- m.forgetNamed(it.forget)
		case it.hasRes != nil:
			it.hasRes <- m.cursorHas(it.hasName)
		case it.shutdown:
			if m.opts.CursorPath != "" {
				// Final cursor save: the next process resumes from the
				// exact position this one delivered through. Its failure
				// (or a deferred auto-save failure) reaches the caller
				// through Close.
				if err := m.saveCursor(); err != nil && m.closeErr == nil {
					m.closeErr = err
				}
				if m.clog != nil {
					if err := m.clog.Close(); err != nil && m.closeErr == nil {
						m.closeErr = err
					}
				}
			}
			for _, s := range m.subs {
				s.finish(ErrMonitorClosed)
			}
			m.subs = make(map[int64]*Subscription)
			m.subCount.Store(0)
			return
		}
	}
}

// addSub evaluates the initial result on the latest processed snapshot,
// registers the influence region and delivers the initial events. A
// durable subscription first resolves its cursor state: present and
// matching, the initial events become the coalesced delta since the
// cursor instead of the full result set. A query object of another
// dimension than the database is refused.
func (m *Monitor) addSub(s *Subscription) {
	if err := m.snap.CheckDim(s.q); err != nil {
		s.finish(err)
		return
	}
	if s.name != "" {
		for _, other := range m.subs {
			if other.name == s.name {
				s.finish(ErrDuplicateName)
				return
			}
		}
		if m.cursor != nil {
			for i := range m.cursor.Subs {
				cs := &m.cursor.Subs[i]
				if cs.Name != s.name {
					continue
				}
				// The query object is part of the predicate: compare it
				// by value (the instance cannot survive a restart).
				if Kind(cs.Kind) != s.kind || cs.K != s.k || cs.Tau != s.tau ||
					!reflect.DeepEqual(cs.Q, s.q) {
					s.finish(ErrCursorMismatch)
					return
				}
				s.resume = cs
				break
			}
		}
	}
	evs := s.init(m.snap)
	s.resume = nil
	m.subs[s.id] = s
	m.subCount.Add(1)
	if s.name != "" {
		m.markDirty(s.name)
	}
	m.place(s, false)
	m.deliver(s, evs)
}

// saveCursor persists the durable cursor and accounts for the outcome.
// A failure deferred from an earlier auto-save is surfaced here first —
// auto-saves are not "best effort", their errors are only postponed to
// the next explicit save point. Worker-only.
func (m *Monitor) saveCursor() error {
	if m.opts.CursorPath == "" {
		return fmt.Errorf("cq: no Options.CursorPath configured")
	}
	deferred := m.saveErr
	m.saveErr = nil
	err := m.writeCursor()
	if err != nil {
		m.cursorSaveFails.Add(1)
	} else {
		m.cursorSaves.Add(1)
	}
	if deferred != nil {
		return fmt.Errorf("cq: deferred cursor auto-save failure: %w", deferred)
	}
	return err
}

// writeCursor rebuilds the durable cursor — the processed watermark
// plus every named subscription's current result set — and persists it
// through the cursor log. Names loaded from the previous cursor that
// have not been re-subscribed yet are carried through unchanged — an
// auto-save firing before the application re-attaches its
// subscriptions must not erase their resume state.
//
// The save appends a delta carrying only the subscriptions that woke
// since the last successful save (plus forgotten names), and rewrites
// the full base when the log wants compaction — or after a failed
// save, when the on-disk log can no longer be assumed to hold what the
// delta bookkeeping builds on. Worker-only.
func (m *Monitor) writeCursor() error {
	m.wmu.Lock()
	c := &wal.Cursor{Version: m.processed, VV: m.vv}
	m.wmu.Unlock()
	ids := make([]int64, 0, len(m.subs))
	for id := range m.subs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	live := make(map[string]bool)
	for _, id := range ids {
		s := m.subs[id]
		if s.name == "" {
			continue
		}
		live[s.name] = true
		c.Subs = append(c.Subs, s.cursorState())
	}
	if m.cursor != nil {
		for i := range m.cursor.Subs {
			if cs := &m.cursor.Subs[i]; !live[cs.Name] {
				c.Subs = append(c.Subs, *cs)
			}
		}
	}
	m.sinceSave = 0
	// Refresh the in-memory cursor too: in-process re-subscribes (and
	// dropSub's remember) work against the latest persisted view.
	m.cursor = c
	if m.clog == nil {
		// The cursor log never opened (m.cursorErr): replace the file
		// with a fresh log holding c, which self-heals it, and append to
		// that log from now on.
		l, err := wal.CreateCursorLog(m.opts.CursorPath, c)
		if err != nil {
			return err
		}
		m.wmu.Lock()
		m.clog = l
		m.wmu.Unlock()
	} else if m.forceFull || m.clog.ShouldCompact() {
		if err := m.clog.WriteFull(c); err != nil {
			m.forceFull = true
			return err
		}
	} else {
		d := &wal.CursorDelta{Version: c.Version, VV: c.VV}
		inBase := make(map[string]bool, len(c.Subs))
		for i := range c.Subs {
			inBase[c.Subs[i].Name] = true
			if m.dirty[c.Subs[i].Name] {
				d.Upserts = append(d.Upserts, c.Subs[i])
			}
		}
		// A forgotten name that was re-subscribed is upserted above;
		// deltas apply upserts before deletes, so it must not also be
		// deleted.
		for name := range m.deleted {
			if !inBase[name] {
				d.Deletes = append(d.Deletes, name)
			}
		}
		sort.Strings(d.Deletes)
		if err := m.clog.AppendDelta(d); err != nil {
			m.forceFull = true
			return err
		}
	}
	m.forceFull = false
	m.dirty = nil
	m.deleted = nil
	return nil
}

// markDirty records that name's persisted resume state is stale: the
// next cursor save must carry it in the delta. Worker-only.
func (m *Monitor) markDirty(name string) {
	if m.opts.CursorPath == "" {
		return
	}
	if m.dirty == nil {
		m.dirty = make(map[string]bool)
	}
	m.dirty[name] = true
	delete(m.deleted, name)
}

// remember installs a named subscription's resume state into the
// in-memory cursor (persisted at the next save). Worker-only.
func (m *Monitor) remember(cs wal.CursorSub) {
	if m.cursor == nil {
		m.cursor = &wal.Cursor{}
	}
	for i := range m.cursor.Subs {
		if m.cursor.Subs[i].Name == cs.Name {
			m.cursor.Subs[i] = cs
			return
		}
	}
	m.cursor.Subs = append(m.cursor.Subs, cs)
}

// forgetNamed drops a name's cursor resume state. Worker-only.
func (m *Monitor) forgetNamed(name string) error {
	for _, s := range m.subs {
		if s.name == name {
			return fmt.Errorf("cq: cannot forget %q: subscription is live", name)
		}
	}
	if m.cursor != nil {
		for i := range m.cursor.Subs {
			if m.cursor.Subs[i].Name == name {
				m.cursor.Subs = append(m.cursor.Subs[:i], m.cursor.Subs[i+1:]...)
				break
			}
		}
	}
	if m.opts.CursorPath != "" {
		delete(m.dirty, name)
		if m.deleted == nil {
			m.deleted = make(map[string]bool)
		}
		m.deleted[name] = true
	}
	return nil
}

// cursorHas reports whether the cursor holds resume state for name.
// Worker-only.
func (m *Monitor) cursorHas(name string) bool {
	if m.cursor == nil {
		return false
	}
	for i := range m.cursor.Subs {
		if m.cursor.Subs[i].Name == name {
			return true
		}
	}
	return false
}

// Forget removes name's durable resume state from the cursor (in
// memory immediately, on disk at the next save): the next subscription
// under that name starts from a full fresh result set instead of a
// delta. It fails while a live subscription holds the name.
func (m *Monitor) Forget(name string) error {
	reply := make(chan error, 1)
	if !m.enqueue(item{forget: name, forgetRes: reply}) {
		return ErrMonitorClosed
	}
	return <-reply
}

// HasCursorSub reports whether the durable cursor currently holds
// resume state for name — a subscription under that name would start
// with a coalesced delta rather than a full result set.
func (m *Monitor) HasCursorSub(name string) bool {
	reply := make(chan bool, 1)
	if !m.enqueue(item{hasName: name, hasRes: reply}) {
		return false
	}
	return <-reply
}

// dropSub removes a subscription and closes its stream. A named
// subscription's final result set is remembered in the in-memory
// cursor first, so re-subscribing under the same name — in the same
// process or after the next cursor save, in the next one — resumes
// with the delta since this exact point rather than a stale snapshot.
func (m *Monitor) dropSub(s *Subscription, err error) {
	if _, ok := m.subs[s.id]; !ok {
		return
	}
	delete(m.subs, s.id)
	m.subCount.Add(-1)
	if s.bounded {
		m.regions.Delete(s.region, s)
	} else {
		delete(m.unbounded, s.id)
	}
	if s.name != "" && m.opts.CursorPath != "" {
		m.remember(s.cursorState())
		m.markDirty(s.name)
	}
	s.finish(err)
}

// place (re)registers the subscription's influence region after its
// state changed. existing distinguishes repositioning from the first
// registration.
func (m *Monitor) place(s *Subscription, existing bool) {
	region, bounded := s.computeRegion(m.snap)
	if existing {
		if bounded == s.bounded && (!bounded || region.Equal(s.region)) {
			return
		}
		if s.bounded {
			m.regions.Delete(s.region, s)
		} else {
			delete(m.unbounded, s.id)
		}
	}
	s.region, s.bounded = region, bounded
	if bounded {
		m.regions.Insert(region, s)
	} else {
		m.unbounded[s.id] = s
	}
}

// applyChange routes one committed change to the affected
// subscriptions: the ones whose influence region the mutated object's
// (old or new) extent intersects, plus the unbounded ones. Untouched
// subscriptions do no work at all.
func (m *Monitor) applyChange(ch query.Change) {
	m.snap = ch.Snap
	var woken []*Subscription
	wake := wakeRect(ch)
	m.regions.SearchIntersect(wake, func(_ geom.Rect, s *Subscription) bool {
		woken = append(woken, s)
		return true
	})
	for _, s := range m.unbounded {
		woken = append(woken, s)
	}
	sort.Slice(woken, func(i, j int) bool { return woken[i].id < woken[j].id })
	for _, s := range woken {
		if err := ch.Snap.CheckDim(s.q); err != nil {
			// Subscribed while the store was empty, and the first object
			// has another dimension: the query cannot be evaluated.
			m.dropSub(s, err)
			continue
		}
		s.woken.Add(1)
		m.woken.Add(1)
		evs := s.apply(ch)
		if s.name != "" {
			// Waking can refine candidate bounds without emitting an
			// event, so the persisted entry is stale either way.
			m.markDirty(s.name)
		}
		m.place(s, true)
		if len(evs) > 0 {
			m.deliver(s, evs)
		}
	}
	m.changes.Add(1)
	m.advance(ch.Version, ch.Snap.VersionVector())
	if m.opts.CursorPath != "" && m.opts.CursorEvery > 0 {
		if m.sinceSave++; m.sinceSave >= m.opts.CursorEvery {
			// An auto-save failure is deferred, not dropped: the next
			// SaveCursor or Close reports it, and the dirty bookkeeping
			// is retained so nothing is lost from the next attempt.
			if err := m.writeCursor(); err != nil {
				m.cursorSaveFails.Add(1)
				if m.saveErr == nil {
					m.saveErr = err
				}
			} else {
				m.cursorSaves.Add(1)
			}
		}
	}
}

// SaveCursor persists the durable cursor now: every event delivered to
// the subscription buffers so far is covered by it. The save runs on
// the worker, strictly ordered with change processing.
func (m *Monitor) SaveCursor() error {
	reply := make(chan error, 1)
	if !m.enqueue(item{save: reply}) {
		return ErrMonitorClosed
	}
	return <-reply
}

// wakeRect is the spatial extent a change can influence directly: the
// union of the mutated object's old and new uncertainty regions.
func wakeRect(ch query.Change) geom.Rect {
	switch {
	case ch.Old == nil:
		return ch.New.MBR
	case ch.New == nil:
		return ch.Old.MBR
	default:
		return ch.Old.MBR.Union(ch.New.MBR)
	}
}

// deliver hands one version's events to the subscription's consumer; a
// consumer that refuses them ends the subscription with its error.
func (m *Monitor) deliver(s *Subscription, evs []Event) {
	if err := s.consumer.Deliver(evs); err != nil {
		m.dropped.Add(1)
		m.dropSub(s, err)
		return
	}
	s.emitted.Add(uint64(len(evs)))
	m.events.Add(uint64(len(evs)))
}

// advance publishes the new watermark (and version-vector cursor) to
// WaitVersion blockers.
func (m *Monitor) advance(v uint64, vv []uint64) {
	m.wmu.Lock()
	m.processed = v
	m.vv = vv
	ch := m.advanced
	m.advanced = make(chan struct{})
	m.wmu.Unlock()
	close(ch)
}
