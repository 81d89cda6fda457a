package query

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"probprune/internal/core"
	"probprune/internal/obs"
	"probprune/internal/uncertain"
	"probprune/internal/wal"
)

// manifestName is the store-level durable state file of a multi-shard
// store's directory.
const manifestName = "MANIFEST"

// ErrStoreExists reports a bootstrap over a directory that already
// holds a store; open it instead.
var ErrStoreExists = errors.New("store: directory already holds a store")

var errClosed = errors.New("store: closed")

// bootstrapHook, when set (tests only), runs once a bootstrap has
// attached its journals, before any genesis checkpoint installs.
var bootstrapHook func(*Store)

// PersistOptions configures the durability of a store opened with
// BootstrapShardedStore/OpenShardedStore (or their one-shard
// shorthands): where the journals live, when they are fsynced, and when
// the logs are compacted into checkpoints.
type PersistOptions struct {
	// Dir is the store directory (created if absent). A one-shard store
	// journals in Dir itself; a multi-shard store keeps one journal per
	// shard (shard-0, shard-1, ...) plus a MANIFEST carrying the version
	// vector.
	Dir string
	// Sync is the fsync policy for journaled commits; the zero value is
	// wal.SyncOS (no explicit fsync).
	Sync wal.SyncPolicy
	// SyncEvery is the wal.SyncBackground flush interval; <= 0 selects
	// one second.
	SyncEvery time.Duration
	// CheckpointEvery writes a checkpoint (and truncates the logs)
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

// durability is the one durability coordinator of a durable store: the
// logs are the shards' journals; it owns the checkpoint policy, the
// manifest, the background installer and the deferred errors, so
// neither fsyncs nor checkpoint serialization stall committers.
type durability struct {
	popts PersistOptions
	since uint64 // commits since the last checkpoint pin; guarded by the store lock

	// installMu serializes checkpoint installs (background and
	// synchronous Checkpoint calls). installed, guarded by it, keeps a
	// late older install from regressing the manifest below a newer one:
	// the shard logs past an older manifest epoch are truncated by the
	// newer shard checkpoints, so a regressed manifest would be
	// unrecoverable. The journals skip stale pins themselves.
	installMu sync.Mutex
	installed uint64

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

// journalLocked journals rec on shard si before it is applied, stamped
// with the shard version and (N > 1) the store epoch global, and returns
// the sequence to wait on — 0 in memory. A logical commit first
// surfaces a deferred failure. Requires s.mu held for writing.
func (s *Store) journalLocked(si int, rec wal.Record, global uint64) (uint64, error) {
	if s.closed {
		return 0, errClosed
	}
	if s.failed != nil {
		return 0, s.failed
	}
	sh := s.shards[si]
	if sh.journal == nil {
		return 0, nil
	}
	if rec.Op.Logical() {
		if err := s.dur.deferredErr(); err != nil {
			return 0, err
		}
	}
	rec.Version = sh.version + 1
	if len(s.shards) > 1 {
		rec.Global = global
	}
	return sh.journal.AppendAsync(rec)
}

// failLocked latches the store (keeping the first error): every later
// mutation, Sync and Close returns it. Requires s.mu held for writing.
func (s *Store) failLocked(err error) {
	if s.failed == nil {
		s.failed = err
		s.dur.record(err)
	}
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

// ckptJob is one pinned checkpoint: a journal pin and a published cut
// per shard, plus the manifest of a multi-shard store.
type ckptJob struct {
	m    *wal.Manifest
	pins []wal.CheckpointPin
	cuts []*Snapshot
}

// pinCheckpointLocked pins the current state for a checkpoint: every
// shard journal rotates (O(1)) and every shard's cut is published — it
// is immutable, so the install flattens and serializes it off the lock
// while commits proceed. A checkpoint holds the version and the objects
// in ascending ID order, so its bytes depend on the database only, not
// on the order of the writes; with more than one shard the manifest
// adds the version vector. Requires s.mu held for writing.
func (s *Store) pinCheckpointLocked() (*ckptJob, error) {
	job := &ckptJob{}
	if len(s.shards) > 1 {
		job.m = &wal.Manifest{Version: s.version, Shards: len(s.shards)}
	}
	for _, sh := range s.shards {
		pin, err := sh.journal.BeginCheckpoint()
		if err != nil {
			return nil, err
		}
		if job.m != nil {
			job.m.VV = append(job.m.VV, sh.version)
		}
		// Lock-free, allocation-free record: the pin runs on the commit
		// path under s.mu, which the recorder never stalls.
		s.dur.rec.Load().Record(obs.EvCheckpointBegin, 0, 0, int64(sh.version), 0)
		job.pins = append(job.pins, pin)
		job.cuts = append(job.cuts, s.cutLocked(sh))
	}
	s.dur.since = 0
	return job, nil
}

// installCheckpoint installs one pinned checkpoint: the manifest first
// (the commit point recovery trusts), then every shard's checkpoint,
// truncating the shard logs. A crash between the two leaves the
// manifest current and the shard logs long — recovery replays the
// surplus records into states the manifest already describes, landing
// on the same head. A superseded shard pin counts as success (a newer
// checkpoint already covers its state).
func (s *Store) installCheckpoint(job *ckptJob) error {
	d := s.dur
	d.installMu.Lock()
	defer d.installMu.Unlock()
	if job.m != nil {
		if job.m.Version < d.installed {
			return nil
		}
		if err := wal.SaveManifest(filepath.Join(d.popts.Dir, manifestName), job.m); err != nil {
			return err
		}
		d.installed = job.m.Version
	}
	for i, sh := range s.shards {
		start := time.Now()
		cut := job.cuts[i]
		err := sh.journal.InstallCheckpoint(job.pins[i], &wal.Checkpoint{Version: cut.version, Objects: cut.database()})
		switch {
		case errors.Is(err, wal.ErrCheckpointSuperseded):
			d.rec.Load().Record(obs.EvCheckpointSupersede, 0, 0, int64(cut.version), 0)
		case err != nil:
			return err
		default:
			d.rec.Load().Record(obs.EvCheckpointInstall, 0, time.Since(start), int64(cut.version), 0)
		}
	}
	return nil
}

// Checkpoint durably snapshots the store's current state — every
// shard's objects in ascending ID order and version and, with more than
// one shard, the manifest of version vector — and truncates the
// journals to it. No decomposition is persisted, so the files do not
// depend on which queries ran. Reopening afterwards loads
// the snapshot and replays only commits journaled since. The state is
// pinned under the store lock but encoded and installed outside it, so
// concurrent commits are never stalled by the write.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	var job *ckptJob
	err := errors.New("store: not durable (no journal)")
	switch {
	case s.dur == nil:
	case s.closed:
		err = errClosed
	case s.failed != nil:
		err = s.failed
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
	if s.dur == nil || s.failed != nil {
		return s.failed
	}
	if s.closed {
		return nil
	}
	s.dur.drain()
	if err := s.dur.deferredErr(); err != nil {
		return err
	}
	for _, sh := range s.shards {
		if err := sh.journal.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Close drains the background installer and releases the journals.
// Mutations fail after Close; snapshots and queries remain usable. Close
// writes no checkpoint — reopening replays the log tails. No-op in
// memory.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur == nil || s.closed {
		return nil
	}
	s.closed = true
	s.dur.drain()
	return cmp.Or(s.failed, s.dur.deferredErr(), s.closeJournals())
}

// closeJournals releases every attached shard journal.
func (s *Store) closeJournals() error {
	var err error
	for _, sh := range s.shards {
		if sh != nil && sh.journal != nil { // nil: a shard that failed to recover
			err = cmp.Or(err, sh.journal.Close())
		}
	}
	return err
}

// shardDir is the journal directory of shard i of a multi-shard store.
func shardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d", i))
}

// storedLayout returns the journal directory of every shard of the
// store dir holds — shard-i under a MANIFEST, or dir itself for one
// shard — and the manifest; none when dir holds no store.
func storedLayout(dir string) ([]string, *wal.Manifest, error) {
	m, err := wal.LoadManifest(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, nil, err
	}
	if m != nil {
		dirs := make([]string, m.Shards)
		for i := range dirs {
			dirs[i] = shardDir(dir, i)
		}
		return dirs, m, nil
	}
	// The probe stops at the first checkpoint or intact record instead
	// of replaying the log — one read, however long the history.
	j, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, nil, err
	}
	has, err := j.HasData()
	j.Close()
	if err != nil || !has {
		return nil, nil, err
	}
	return []string{dir}, nil, nil
}

// BootstrapStore creates a NEW durable one-shard store over db at
// popts.Dir: BootstrapShardedStore with Shards: 1.
func BootstrapStore(db uncertain.Database, popts PersistOptions, opts core.Options) (*Store, error) {
	return BootstrapShardedStore(db, popts, ShardedOptions{Shards: 1}, opts)
}

// BootstrapShardedStore creates a NEW durable store over db at
// popts.Dir, writing the initial database as the first checkpoint: a
// one-shard store journals in popts.Dir itself, a multi-shard one keeps
// one journal per shard plus the MANIFEST. It fails with ErrStoreExists
// when the directory already holds a store of either layout — recover
// that with OpenShardedStore instead (an explicit choice, so a typo
// cannot silently shadow an existing database with a fresh one).
func BootstrapShardedStore(db uncertain.Database, popts PersistOptions, sopts ShardedOptions, opts core.Options) (*Store, error) {
	if dirs, _, err := storedLayout(popts.Dir); err != nil {
		return nil, err
	} else if dirs != nil {
		return nil, fmt.Errorf("%w: %s holds a %d-shard store (open it instead of bootstrapping)", ErrStoreExists, popts.Dir, len(dirs))
	}
	s, err := NewShardedStore(db, sopts, opts)
	if err != nil {
		return nil, err
	}
	// The first manifest is the commit point of a multi-shard bootstrap:
	// shard journals without one are the debris of a bootstrap that
	// crashed half way (the store was never handed to a caller) and would
	// otherwise wedge the directory. Clear them and start over.
	if stale, err := filepath.Glob(filepath.Join(popts.Dir, "shard-*")); err == nil {
		for _, dir := range stale {
			os.RemoveAll(dir)
		}
	}
	for i, sh := range s.shards {
		dir := popts.Dir
		if len(s.shards) > 1 {
			dir = shardDir(popts.Dir, i)
		}
		j, err := wal.Open(dir, popts.wal())
		if err == nil {
			// Replay positions the (empty) journal for appending.
			if err = j.Replay(nil); err != nil {
				j.Close()
			}
		}
		if err != nil {
			s.closeJournals()
			return nil, err
		}
		sh.journal = j
	}
	if bootstrapHook != nil {
		bootstrapHook(s)
	}
	// The genesis state is durable before the store accepts a commit.
	// Every shard's genesis checkpoint lands before the first manifest: a
	// crash in between leaves shard debris, not a manifest over empty
	// shards.
	s.dur = newDurability(popts, s.obs)
	s.mu.Lock()
	job, err := s.pinCheckpointLocked()
	s.mu.Unlock()
	if err == nil {
		m := job.m
		job.m = nil
		if err = s.installCheckpoint(job); err == nil && m != nil {
			err = s.Checkpoint()
		}
	}
	if err != nil {
		s.closeJournals()
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
// popts.Dir; the directory, not the caller, decides the layout. A fresh
// directory is bootstrapped empty with sopts' layout. An existing one
// is recovered: every shard loads its newest checkpoint — objects and
// version — and replays its journal tail, in parallel, stopping cleanly
// at the last intact record; a multi-shard store then checks that the
// epochs its shards' logical records carry continue the manifest's
// without a gap. The recovered store holds the database that wrote the
// journals: same version vector, same objects, same query answers.
// sopts.Shards, when
// non-zero, must match the directory's shard count; sopts.Partition
// must be the partitioner the store was created with and opts the
// options it was written under (neither is persisted). Decompositions
// are rebuilt from the samples as queries need them, whatever
// opts.MaxHeight is. A shard whose checkpoint files all fail to decode
// fails the open, and the files stay on disk.
func OpenShardedStore(popts PersistOptions, sopts ShardedOptions, opts core.Options) (*Store, error) {
	dirs, m, err := storedLayout(popts.Dir)
	if err != nil {
		return nil, err
	}
	if dirs == nil {
		return BootstrapShardedStore(nil, popts, sopts, opts)
	}
	if sopts.Shards > 0 && sopts.Shards != len(dirs) {
		return nil, fmt.Errorf("store: %s holds a %d-shard store, options ask for %d", popts.Dir, len(dirs), sopts.Shards)
	}
	sopts.Shards = len(dirs)
	s, err := newStore(sopts, opts, 0)
	if err != nil {
		return nil, err
	}
	recs := make([]*recovery, len(dirs))
	errs := make([]error, len(dirs))
	var wg sync.WaitGroup
	for i, dir := range dirs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i], errs[i] = recoverShard(i, dir, popts, len(dirs) == 1)
		}()
	}
	wg.Wait()
	for i, r := range recs {
		if r != nil {
			s.shards[i] = r.sh
		}
	}
	err = errors.Join(errs...)
	if err == nil {
		s.dur = newDurability(popts, s.obs)
		err = s.assemble(m, recs)
	}
	if err != nil {
		s.closeJournals()
		return nil, err
	}
	return s, nil
}

// recovery is one shard rebuilt from its journal, plus what assemble
// needs to rebuild the store-level state on top of the shards.
type recovery struct {
	sh     *shard
	at     map[int]slot // the shard's objects, keyed by ID
	epochs []uint64     // store epochs of the replayed logical records
	via    map[int]bool // resident objects that arrived through a replayed move-in
}

// recoverShard loads the journal of shard si in dir: its checkpoint,
// then the log tail. A one-shard journal (single) keeps no epochs: its
// version is the store's.
func recoverShard(si int, dir string, popts PersistOptions, single bool) (*recovery, error) {
	j, err := wal.Open(dir, popts.wal())
	if err != nil {
		return nil, err
	}
	var ck wal.Checkpoint
	if c := j.Checkpoint(); c != nil {
		ck = *c // newShard sorts its objects in place: nothing else reads them
	}
	r := &recovery{sh: newShard(ck.Objects), at: make(map[int]slot, len(ck.Objects)), via: make(map[int]bool)}
	r.sh.journal, r.sh.version = j, ck.Version
	for i, o := range ck.Objects {
		r.at[o.ID] = slot{o, si, i}
	}
	err = j.Replay(func(rec wal.Record) error {
		if err := r.apply(si, rec); err != nil {
			return err
		}
		id := rec.ObjectID()
		if rec.Op.Logical() && !single {
			r.epochs = append(r.epochs, rec.Global)
		}
		if rec.Op == wal.OpMoveIn {
			r.via[id] = true
		} else {
			delete(r.via, id)
		}
		return nil
	})
	if err != nil {
		j.Close()
		return nil, err
	}
	return r, nil
}

// apply replays one journal record of shard si with the shard bodies
// live commits run.
func (r *recovery) apply(si int, rec wal.Record) error {
	sh := r.sh
	if rec.Version != sh.version+1 {
		return fmt.Errorf("store: journal record version %d after version %d", rec.Version, sh.version)
	}
	id := rec.ObjectID()
	e, ok := r.at[id]
	switch rec.Op {
	case wal.OpInsert, wal.OpMoveIn:
		if ok {
			return fmt.Errorf("store: journal re-inserts object ID %d", id)
		}
		r.at[id] = sh.insert(si, rec.Obj)
	case wal.OpDelete, wal.OpMoveOut:
		if !ok {
			return fmt.Errorf("store: journal deletes unknown object ID %d", id)
		}
		sh.remove(r.at, e)
		delete(r.at, id)
	case wal.OpUpdate:
		if !ok {
			return fmt.Errorf("store: journal updates unknown object ID %d", id)
		}
		r.at[id] = sh.replace(e, rec.Obj)
	default:
		return fmt.Errorf("store: journal record with unknown op %d", rec.Op)
	}
	sh.version = rec.Version
	return nil
}

// assemble rebuilds the store-level state from the recovered shards
// and, with more than one shard, the manifest (nil for one) and the
// epochs of the logical records past it.
func (s *Store) assemble(m *wal.Manifest, recs []*recovery) error {
	// Membership and homes come from the shards themselves: an object's
	// home is the shard whose recovered state holds it. An ID on two
	// shards is a migration whose move-out never hit its source journal
	// (the process died between the two appends): the copy that arrived
	// through the dangling move-in is dropped — durably, with the
	// compensating move-out journaled — and the object stays home, as if
	// the migration never started. Anything else is corruption.
	var danglers []slot
	for _, r := range recs {
		for id, e := range r.at {
			if a, dup := s.byID[id]; dup {
				switch {
				case r.via[id] && !recs[a.shard].via[id]:
					danglers = append(danglers, e)
					continue // keep a's copy
				case recs[a.shard].via[id] && !r.via[id]:
					danglers = append(danglers, a)
				default:
					return fmt.Errorf("store: object ID %d recovered on two shards", id)
				}
			}
			s.byID[id] = e
		}
	}
	for _, e := range s.byID {
		s.cache.Add(e.obj)
		s.dim = e.obj.Dim()
	}
	if len(s.shards) == 1 {
		// One shard: its version is the store's epoch.
		s.version = recs[0].sh.version
		return nil
	}
	// The store epoch: the manifest's, continued without a gap by the
	// logical records the shards replayed past it.
	var tail []uint64
	for _, r := range recs {
		for _, g := range r.epochs {
			if g > m.Version {
				tail = append(tail, g)
			}
		}
	}
	slices.Sort(tail)
	s.version = m.Version
	for _, g := range tail {
		if g != s.version+1 {
			return fmt.Errorf("store: journaled commit at epoch %d after epoch %d", g, s.version)
		}
		s.version = g
	}
	if len(danglers) == 0 {
		return nil
	}
	for _, d := range danglers {
		if err := s.migrateLocked(d.shard, d.obj, wal.OpMoveOut); err != nil {
			return fmt.Errorf("store: compensating interrupted migration of object %d: %w", d.obj.ID, err)
		}
		at := recs[d.shard].at // an earlier drop may have moved the copy
		s.shards[d.shard].remove(at, at[d.obj.ID])
		delete(at, d.obj.ID)
	}
	// The drops moved objects within their shards' slabs.
	clear(s.byID)
	for _, r := range recs {
		maps.Copy(s.byID, r.at)
	}
	return nil
}
