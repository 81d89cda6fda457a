package query

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"probprune/internal/core"
	"probprune/internal/obs"
	"probprune/internal/uncertain"
	"probprune/internal/wal"
)

// ErrStoreExists reports a bootstrap over a directory that already
// holds a store; open it instead.
var ErrStoreExists = errors.New("store: directory already holds a store")

var errClosed = errors.New("store: closed")

// bootstrapHook, when set (tests only), runs once a bootstrap has
// attached its journal, before the genesis checkpoint installs.
var bootstrapHook func(*Store)

// PersistOptions configures the durability of a store opened with
// BootstrapShardedStore/OpenShardedStore (or their one-shard
// shorthands): where the journal lives, when it is fsynced, and when
// the log is compacted into checkpoints.
type PersistOptions struct {
	// Dir is the store directory (created if absent). It holds the
	// store's one journal — log segments and checkpoints — whatever the
	// shard count: the records and checkpoints name each object's shard.
	Dir string
	// Sync is the fsync policy for journaled commits; the zero value is
	// wal.SyncOS (no explicit fsync).
	Sync wal.SyncPolicy
	// SyncEvery is the wal.SyncBackground flush interval; <= 0 selects
	// one second.
	SyncEvery time.Duration
	// CheckpointEvery writes a checkpoint (and truncates the log)
	// automatically once that many commits accumulated since the last
	// one; 0 disables auto-checkpointing (call Checkpoint explicitly).
	CheckpointEvery int
	// SegmentBytes is the log segment rotation threshold; <= 0 selects
	// wal.DefaultSegmentBytes.
	SegmentBytes int64
}

func (p PersistOptions) wal() wal.Options {
	return wal.Options{Sync: p.Sync, SyncEvery: p.SyncEvery, SegmentBytes: p.SegmentBytes}
}

// durability is the durability coordinator of a durable store: it owns
// the checkpoint policy, the background installer and the deferred
// errors, so neither fsyncs nor checkpoint serialization stall
// committers.
type durability struct {
	popts PersistOptions
	since uint64 // commits since the last checkpoint pin; guarded by the store lock

	// installMu serializes checkpoint installs (background and
	// synchronous Checkpoint calls); the journal skips stale pins itself.
	installMu sync.Mutex

	// The background installer holds at most one pending install: a
	// newer pin submitted while another install runs replaces a
	// not-yet-started one (whose install would be skipped as superseded
	// anyway), so a burst of auto-checkpoints coalesces into the newest
	// state instead of queueing stale encodes.
	smu     sync.Mutex
	idle    *sync.Cond   // broadcast when the installer runs dry
	pending func() error // newest not-yet-started install; the closure owns its pinned state
	busy    bool         // an installer goroutine is live (running or between jobs)
	gate    func()       // test hook: runs before each install, outside smu
	queue   *obs.Gauge   // pending + running installs (0..2)
	merged  *obs.Counter // pins coalesced away before installing

	// rec is the armed flight recorder (nil when disarmed); atomic so
	// arming is safe mid-serving.
	rec atomic.Pointer[obs.Recorder]

	emu     sync.Mutex // guards ckptErr (the installer writes it off the store lock)
	ckptErr error      // first deferred failure (auto-checkpoint, rebalance)
}

func newDurability(popts PersistOptions, m *Metrics) *durability {
	d := &durability{popts: popts, queue: m.ckptQueue, merged: m.ckptMerged}
	d.idle = sync.NewCond(&d.smu)
	return d
}

// submit runs install in the background, replacing any pending one.
func (d *durability) submit(install func() error) {
	d.smu.Lock()
	if d.pending != nil {
		d.merged.Inc()
		// Record is lock-free, so holding smu across it is safe.
		d.rec.Load().Record(obs.EvCheckpointSupersede, 0, 0, 0, 0)
	}
	d.pending = install
	spawn := !d.busy
	d.busy = true
	d.publishLocked()
	d.smu.Unlock()
	if spawn {
		go d.run()
	}
}

// run drains pending installs until none remain, then exits; submit
// spawns a new run when needed. Install failures are deferred.
func (d *durability) run() {
	d.smu.Lock()
	for d.pending != nil {
		install, gate := d.pending, d.gate
		d.pending = nil
		d.publishLocked()
		d.smu.Unlock()
		if gate != nil {
			gate()
		}
		if err := install(); err != nil {
			d.noteCkptErr(err)
		}
		d.smu.Lock()
	}
	d.busy = false
	d.publishLocked()
	d.idle.Broadcast()
	d.smu.Unlock()
}

// drain blocks until no install is pending or running — the point Sync
// and Close use to make deferred checkpoint errors deterministic.
func (d *durability) drain() {
	d.smu.Lock()
	for d.busy || d.pending != nil {
		d.idle.Wait()
	}
	d.smu.Unlock()
}

// publishLocked updates the depth gauge. Requires d.smu held.
func (d *durability) publishLocked() {
	n := int64(0)
	if d.busy {
		n++
	}
	if d.pending != nil {
		n++
	}
	d.queue.Set(n)
}

// record logs a durability failure as a deferred-error event.
func (d *durability) record(err error) {
	// Cold path: registering the error text as a note may lock and
	// allocate, which a failure path can afford.
	if r := d.rec.Load(); r != nil {
		r.Record(obs.EvDeferredError, r.Note(err.Error()), 0, 0, 0)
	}
}

// noteCkptErr records a deferred durability failure (keeping the first).
func (d *durability) noteCkptErr(err error) {
	d.emu.Lock()
	if d.ckptErr == nil {
		d.ckptErr = err
	}
	d.emu.Unlock()
	d.record(err)
}

// deferredErr returns and clears the deferred failure. The mutation or
// Sync that observes it is rejected, so the caller learns about the
// degraded durability right away instead of only at Close.
func (d *durability) deferredErr() error {
	d.emu.Lock()
	err := d.ckptErr
	d.ckptErr = nil
	d.emu.Unlock()
	if err != nil {
		return fmt.Errorf("store: deferred auto-checkpoint failure: %w", err)
	}
	return nil
}

// journalLocked journals rec before it is applied and returns the
// sequence to wait on — 0 in memory. A logical commit first surfaces a
// deferred failure. Requires s.mu held for writing.
func (s *Store) journalLocked(rec wal.Record) (uint64, error) {
	if s.closed {
		return 0, errClosed
	}
	if s.journal == nil {
		return 0, nil
	}
	if rec.Op.Logical() {
		if err := s.dur.deferredErr(); err != nil {
			return 0, err
		}
	}
	return s.journal.AppendAsync(rec)
}

// maybeCheckpointLocked runs the auto-checkpoint policy after a commit:
// when the threshold is reached the state is pinned here and the
// install handed to the background installer. A checkpoint failure does
// not fail a commit (the commit is already in the log); it is deferred
// and surfaced by the next mutation or Sync — or by Close, whichever
// comes first. Requires s.mu held for writing.
func (s *Store) maybeCheckpointLocked() {
	d := s.dur
	if d == nil {
		return
	}
	d.since++
	if d.popts.CheckpointEvery <= 0 || d.since < uint64(d.popts.CheckpointEvery) {
		return
	}
	job, err := s.pinCheckpointLocked()
	if err != nil {
		d.noteCkptErr(err)
		return
	}
	d.submit(func() error { return s.installCheckpoint(job) })
}

// ckptJob is one pinned checkpoint: the journal pin, the store version
// and a published cut per shard.
type ckptJob struct {
	pin     wal.CheckpointPin
	version uint64
	cuts    []*Snapshot
}

// pinCheckpointLocked pins the current state for a checkpoint: the
// journal rotates (O(1)) and every shard's cut is published — it is
// immutable, so the install flattens and serializes it off the lock
// while commits proceed. A checkpoint holds the version and the objects,
// shard by shard in ascending ID order, so its bytes depend on the
// database and its placement only, not on the order of the writes.
// Requires s.mu held for writing.
func (s *Store) pinCheckpointLocked() (*ckptJob, error) {
	pin, err := s.journal.BeginCheckpoint()
	if err != nil {
		return nil, err
	}
	// Lock-free, allocation-free record: the pin runs on the commit path
	// under s.mu, which the recorder never stalls.
	s.dur.rec.Load().Record(obs.EvCheckpointBegin, 0, 0, int64(s.version), 0)
	job := &ckptJob{pin: pin, version: s.version, cuts: make([]*Snapshot, len(s.shards))}
	for i, sh := range s.shards {
		job.cuts[i] = s.cutLocked(sh)
	}
	s.dur.since = 0
	return job, nil
}

// installCheckpoint installs one pinned checkpoint, truncating the log:
// one shard's objects at the store version, or with more than one every
// shard's objects in turn and the shard trailer of versions and counts.
// A superseded pin counts as success (a newer checkpoint already covers
// its state).
func (s *Store) installCheckpoint(job *ckptJob) error {
	d := s.dur
	d.installMu.Lock()
	defer d.installMu.Unlock()
	start := time.Now()
	ck := &wal.Checkpoint{Version: job.version, Objects: job.cuts[0].Database()}
	if len(job.cuts) > 1 {
		ck.Objects = nil
		for _, c := range job.cuts {
			ck.Objects = append(ck.Objects, c.Database()...)
			ck.Shards = append(ck.Shards, wal.ShardState{Version: c.version, Len: c.Len()})
		}
	}
	err := s.journal.InstallCheckpoint(job.pin, ck)
	switch {
	case errors.Is(err, wal.ErrCheckpointSuperseded):
		d.rec.Load().Record(obs.EvCheckpointSupersede, 0, 0, int64(job.version), 0)
		return nil
	case err != nil:
		return err
	}
	d.rec.Load().Record(obs.EvCheckpointInstall, 0, time.Since(start), int64(job.version), 0)
	return nil
}

// Checkpoint durably snapshots the store's current state — every
// shard's objects in ascending ID order, the version and, with more than
// one shard, every shard's version — and truncates the journal to it.
// No decomposition is persisted, so the file does not depend on which
// queries ran. Reopening afterwards loads the snapshot and replays only
// commits journaled since. The state is pinned under the store lock but
// encoded and installed outside it, so concurrent commits are never
// stalled by the write.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	var job *ckptJob
	err := errors.New("store: not durable (no journal)")
	switch {
	case s.dur == nil:
	case s.closed:
		err = errClosed
	default:
		job, err = s.pinCheckpointLocked()
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.installCheckpoint(job)
}

// Sync forces journaled commits to stable storage, regardless of the
// sync policy. It first drains the background installer and surfaces
// (and clears) a deferred failure, so a caller that never mutates again
// still learns a checkpoint did not land. No-op in memory.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur == nil || s.closed {
		return nil
	}
	s.dur.drain()
	if err := s.dur.deferredErr(); err != nil {
		return err
	}
	return s.journal.Sync()
}

// Close drains the background installer and releases the journal.
// Mutations fail after Close; snapshots and queries remain usable. Close
// writes no checkpoint — reopening replays the log tail. No-op in
// memory.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur == nil || s.closed {
		return nil
	}
	s.closed = true
	s.dur.drain()
	return cmp.Or(s.dur.deferredErr(), s.journal.Close())
}

// openJournal opens the journal in popts.Dir, refusing a directory in
// the retired per-shard layout: one journal per shard in shard-i under
// a MANIFEST, which earlier versions wrote for more than one shard.
func openJournal(popts PersistOptions) (*wal.Journal, error) {
	_, err := os.Stat(filepath.Join(popts.Dir, "MANIFEST"))
	shardDirs, _ := filepath.Glob(filepath.Join(popts.Dir, "shard-*"))
	if err == nil || len(shardDirs) > 0 {
		return nil, fmt.Errorf("store: %s holds a store in the retired per-shard layout (shard-i journals under a MANIFEST); this version keeps one journal per store: bootstrap a new store from its objects", popts.Dir)
	}
	return wal.Open(popts.Dir, popts.wal())
}

// BootstrapStore creates a NEW durable one-shard store over db at
// popts.Dir: BootstrapShardedStore with Shards: 1.
func BootstrapStore(db uncertain.Database, popts PersistOptions, opts core.Options) (*Store, error) {
	return BootstrapShardedStore(db, popts, ShardedOptions{Shards: 1}, opts)
}

// BootstrapShardedStore creates a NEW durable store over db at
// popts.Dir — one journal in the directory itself, whatever the shard
// count — writing the initial database as the first checkpoint. It
// fails with ErrStoreExists when the directory already holds a store —
// recover that with OpenShardedStore instead (an explicit choice, so a
// typo cannot silently shadow an existing database with a fresh one).
func BootstrapShardedStore(db uncertain.Database, popts PersistOptions, sopts ShardedOptions, opts core.Options) (*Store, error) {
	j, err := openJournal(popts)
	if err != nil {
		return nil, err
	}
	// The probe stops at the first checkpoint or intact record instead
	// of replaying the log — one read, however long the history.
	if has, err := j.HasData(); err != nil || has {
		if err == nil {
			err = fmt.Errorf("%w: %s holds a %d-shard store (open it instead of bootstrapping)", ErrStoreExists, popts.Dir, len(storedShards(j.Checkpoint())))
		}
		j.Close()
		return nil, err
	}
	return bootstrap(j, db, popts, sopts, opts)
}

// bootstrap builds a store over db on j, a journal without data, and
// makes the genesis state durable as the first checkpoint before the
// store accepts a commit.
func bootstrap(j *wal.Journal, db uncertain.Database, popts PersistOptions, sopts ShardedOptions, opts core.Options) (*Store, error) {
	s, err := NewShardedStore(db, sopts, opts)
	if err == nil {
		// Replay positions the (empty) journal for appending.
		err = j.Replay(nil)
	}
	if err == nil {
		s.journal, s.dur = j, newDurability(popts, s.obs)
		if bootstrapHook != nil {
			bootstrapHook(s)
		}
		err = s.Checkpoint()
	}
	if err != nil {
		j.Close()
		return nil, err
	}
	return s, nil
}

// OpenStore opens (or initializes) a durable store rooted at
// popts.Dir: OpenShardedStore with whatever shard count the directory
// holds (one for a fresh directory).
func OpenStore(popts PersistOptions, opts core.Options) (*Store, error) {
	return OpenShardedStore(popts, ShardedOptions{}, opts)
}

// OpenShardedStore opens (or initializes) a durable store rooted at
// popts.Dir; the directory, not the caller, decides the shard count. A
// fresh directory is bootstrapped empty with sopts' layout. An existing
// one is recovered from its one journal: the newest checkpoint — every
// shard's objects and version, and the store version — then the log
// tail replayed through the same shard bodies live commits run,
// stopping cleanly at the last intact record. Each record names its
// object's shard, so the recovered store holds the database that wrote
// the journal with the same placement: same version vector, same
// objects, same query answers. sopts.Shards, when non-zero, must match
// the directory's shard count; sopts.Partition must be the partitioner
// the store was created with and opts the options it was written under
// (neither is persisted). Decompositions are rebuilt from the samples
// as queries need them, whatever opts.MaxHeight is. A directory whose
// checkpoint files all fail to decode fails the open, and the files
// stay on disk; so does a directory in the retired per-shard layout.
func OpenShardedStore(popts PersistOptions, sopts ShardedOptions, opts core.Options) (*Store, error) {
	j, err := openJournal(popts)
	if err != nil {
		return nil, err
	}
	has, err := j.HasData()
	if err == nil && !has {
		return bootstrap(j, nil, popts, sopts, opts)
	}
	var s *Store
	if err == nil {
		s, err = recoverStore(j, popts, sopts, opts)
	}
	if err != nil {
		j.Close()
		return nil, err
	}
	return s, nil
}

// storedShards returns the shard sections of ck, a journal's newest
// checkpoint (nil for none): its trailer, or one shard holding every
// object at the checkpoint's version.
func storedShards(ck *wal.Checkpoint) []wal.ShardState {
	switch {
	case ck == nil:
		return []wal.ShardState{{}}
	case ck.Shards != nil:
		return ck.Shards
	default:
		return []wal.ShardState{{Version: ck.Version, Len: len(ck.Objects)}}
	}
}

// recoverStore rebuilds the store j holds: its checkpoint's shards, then
// the log tail.
func recoverStore(j *wal.Journal, popts PersistOptions, sopts ShardedOptions, opts core.Options) (*Store, error) {
	var ck wal.Checkpoint
	if c := j.Checkpoint(); c != nil {
		ck = *c
	}
	parts := storedShards(&ck)
	if sopts.Shards > 0 && sopts.Shards != len(parts) {
		return nil, fmt.Errorf("store: %s holds a %d-shard store, options ask for %d", popts.Dir, len(parts), sopts.Shards)
	}
	sopts.Shards = len(parts)
	s, err := newStore(sopts, opts, len(ck.Objects))
	if err != nil {
		return nil, err
	}
	s.version = ck.Version
	objs := ck.Objects // newShard sorts each part in place: nothing else reads them
	for i, p := range parts {
		part := objs[:p.Len]
		objs = objs[p.Len:]
		s.shards[i] = newShard(part)
		s.shards[i].version = p.Version
		for k, o := range part {
			s.byID[o.ID] = slot{o, i, k}
		}
	}
	if err := j.Replay(s.replay); err != nil {
		return nil, err
	}
	for _, e := range s.byID {
		s.cache.Add(e.obj)
		s.dim = e.obj.Dim()
	}
	s.journal, s.dur = j, newDurability(popts, s.obs)
	return s, nil
}

// replay applies one journal record with the shard bodies live commits
// run. A logical record advances the store version by one, a move
// leaves it as it is; each advances the versions of the shards it
// touches: the record's shard and, for a move, the source.
func (s *Store) replay(rec wal.Record) error {
	want := s.version + 1
	if !rec.Op.Logical() {
		want = s.version
	}
	if rec.Version != want {
		return fmt.Errorf("store: journal %v record version %d after version %d", rec.Op, rec.Version, s.version)
	}
	if rec.Shard < 0 || rec.Shard >= len(s.shards) {
		return fmt.Errorf("store: journal record on shard %d of a %d-shard store", rec.Shard, len(s.shards))
	}
	id := rec.ObjectID()
	e, ok := s.byID[id]
	switch {
	case ok == (rec.Op == wal.OpInsert):
		return fmt.Errorf("store: journal %v of object ID %d (stored: %v)", rec.Op, id, ok)
	case ok && rec.Op != wal.OpMove && e.shard != rec.Shard:
		return fmt.Errorf("store: journal %v of object ID %d on shard %d, its home is shard %d", rec.Op, id, rec.Shard, e.shard)
	}
	sh := s.shards[rec.Shard]
	switch rec.Op {
	case wal.OpInsert:
		s.byID[id] = sh.insert(rec.Shard, rec.Obj)
	case wal.OpUpdate:
		s.byID[id] = sh.replace(e, rec.Obj)
	case wal.OpDelete:
		sh.remove(s.byID, e)
		delete(s.byID, id)
	case wal.OpMove:
		s.shards[e.shard].remove(s.byID, e)
		s.shards[e.shard].version++
		s.byID[id] = sh.insert(rec.Shard, e.obj)
	}
	sh.version++
	s.version = rec.Version
	return nil
}
