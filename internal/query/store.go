package query

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"probprune/internal/core"
	"probprune/internal/cow"
	"probprune/internal/geom"
	"probprune/internal/obs"
	"probprune/internal/rtree"
	"probprune/internal/uncertain"
	"probprune/internal/wal"
)

// Store is a concurrent, mutable uncertain-object store whose
// snapshots answer the queries: live ingest (Insert/Delete/Update)
// interleaves with snapshot-isolated queries — the paper's framework
// operated with the database changing underneath the queries.
//
// A store is N >= 1 shards behind one router. A shard holds only what
// must be per shard: its R-tree, object slab, version and journal. The
// router holds the rest once: the object map (every object's home shard
// and slab slot), the persistent decomposition cache, the version,
// watchers, metrics and durability coordinator. Results come in
// ascending object ID, whatever the slab order. A one-shard store does
// no router work: its snapshot is its shard's cut, so a query scatters
// over exactly that one cut.
//
// Sharding composes exactly: the complete-domination filter classifies
// each object on its own (core.ClassifyRole reads one object, the
// target and the reference), so per-shard filter outcomes merge into
// the monolithic one — dominator and pruned counts add, influence sets
// concatenate in canonical (object ID) order — and the kNN threshold
// m_{k+1} and the RkNN impossibility count are order statistics and
// sums of per-shard values. Results are bit-identical at any shard
// count and Parallelism (the cross-shard equivalence suite enforces
// this), while a mutation detaches only its home shard: O(n/N).
//
// Queries bind to an immutable Snapshot; the first mutation of a shard
// after a publish detaches it. Object slabs and R-trees are both paged
// copy-on-write (package cow), so a detach copies their page tables and
// the commit copies only the slab chunks and tree pages it writes: an
// Update, Insert or Delete costs what it touches, not the database. A
// read burst pays one publish. The persistent decomposition cache pins
// every resident object's kd-split, invalidated per object on update;
// queries read through a per-call overlay. Move and Rebalance migrate
// objects online without changing versions, change streams or any
// query result.
type Store struct {
	opts core.Options
	part ShardFunc

	mu      sync.RWMutex
	dim     int // dimension of the stored objects, fixed by the first one
	byID    map[int]slot
	cache   *core.DecompCache
	version uint64
	shards  []*shard
	snap    *Snapshot // published snapshot; nil after a mutation

	// obs is the store's query metric set; every snapshot the store
	// publishes records into it. Immutable after construction.
	obs *Metrics

	// dur, when non-nil, makes the store durable: every commit is
	// journaled on its shard before it is applied. closed rejects
	// mutations after Close; failed latches a migration whose journals
	// could not be brought back in line (see moveLocked).
	dur    *durability
	closed bool
	failed error

	watchers []*func(Change) // registration order; unregistered by identity
}

// slot locates a stored object: its home shard and its position in
// that shard's slab.
type slot struct {
	obj      *uncertain.Object
	shard, i int
}

// shard is the per-shard state. Its slab holds the objects, paged
// copy-on-write so a snapshot shares it chunk by chunk, in the order the
// writes leave (see insert and remove).
type shard struct {
	slab    cow.List[*uncertain.Object]
	sorted  bool // the slab is in ascending ID order
	index   *objTree
	version uint64
	journal *wal.Journal // nil in memory
	snap    *Snapshot    // published cut of this shard; nil after it mutated
}

// cmpID orders objects by ascending ID, the order of every result.
func cmpID(a, b *uncertain.Object) int { return cmp.Compare(a.ID, b.ID) }

// newShard returns a shard holding objs, sorted in place into ascending
// ID order, with their index STR-bulk-loaded.
func newShard(objs uncertain.Database) *shard {
	slices.SortFunc(objs, cmpID)
	return &shard{slab: cow.ListOf(objs), sorted: true, index: bulkIndex(objs)}
}

// insert appends o, shard si's new object, and returns its slot.
func (sh *shard) insert(si int, o *uncertain.Object) slot {
	n := sh.slab.Len()
	sh.sorted = n == 0 || sh.sorted && sh.slab.At(n-1).ID < o.ID
	sh.slab.Append(o)
	sh.index.Insert(o.MBR, o)
	return slot{o, si, n}
}

// remove takes the object at e out: the slab's last object moves into
// the freed slot, and at records its new slot (e's entry is the
// caller's).
func (sh *shard) remove(at map[int]slot, e slot) {
	last := sh.slab.Len() - 1
	if e.i != last {
		moved := sh.slab.At(last)
		at[moved.ID] = slot{moved, e.shard, e.i}
		sh.sorted = sh.sorted && e.i == last-1
	}
	sh.slab.Delete(e.i)
	sh.index.Delete(e.obj.MBR, e.obj)
}

// replace puts o in e's slot in place of e's object and returns the new
// slot.
func (sh *shard) replace(e slot, o *uncertain.Object) slot {
	sh.slab.Set(e.i, o)
	sh.index.Delete(e.obj.MBR, e.obj)
	sh.index.Insert(o.MBR, o)
	return slot{o, e.shard, e.i}
}

// ShardFunc deterministically assigns an object to one of n shards
// (n >= 1). It must depend only on the object (typically its ID or
// MBR), never on external state: the fuzzers replay routing decisions
// and Rebalance re-applies the function to the live database.
type ShardFunc func(o *uncertain.Object, n int) int

// HashShards is the default router: FNV-1a over the object ID. It
// balances load for arbitrary ID patterns and keeps an object's home
// shard stable under Update.
func HashShards(o *uncertain.Object, n int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	x := uint64(o.ID)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= prime64
		x >>= 8
	}
	return int(h % uint64(n))
}

// StripeShards returns a spatial router: the MBR center along dimension
// dim is binned into n equal stripes of [lo, hi] (values outside clamp
// to the border stripes). Spatially clustered queries then touch few
// shards' worth of influence objects per filter probe; combine with
// Rebalance when updates drift objects across stripe borders.
func StripeShards(dim int, lo, hi float64) ShardFunc {
	return func(o *uncertain.Object, n int) int {
		if n <= 1 || hi <= lo || dim < 0 || dim >= len(o.MBR.Min) {
			return 0
		}
		c := (o.MBR.Min[dim] + o.MBR.Max[dim]) / 2
		// Clamp before converting: int() of a float64 beyond the int64
		// range is undefined (MinInt64 on amd64).
		switch x := float64(n) * (c - lo) / (hi - lo); {
		case !(x > 0): // below lo, or NaN
			return 0
		case x >= float64(n-1):
			return n - 1
		default:
			return int(x)
		}
	}
}

// ShardedOptions configures the shard layout of a store.
type ShardedOptions struct {
	// Shards is the shard count; <= 0 selects 1 — except when opening a
	// durable store, where 0 accepts whatever count the directory holds.
	Shards int
	// Partition routes objects to shards; nil selects HashShards.
	Partition ShardFunc
}

// NewStore builds a one-shard store over db: NewShardedStore with
// Shards: 1.
func NewStore(db uncertain.Database, opts core.Options) (*Store, error) {
	return NewShardedStore(db, ShardedOptions{Shards: 1}, opts)
}

// NewShardedStore builds a store over db (objects must have unique
// IDs and one dimension; the slice is copied, the objects are shared
// and must not be mutated). Every shard's slab is loaded in ascending ID
// order and its index STR bulk-loaded, concurrently across shards. Opts
// configures every query the store serves; Opts.SharedDecomps must be
// left unset — the store manages its own persistent cache.
func NewShardedStore(db uncertain.Database, sopts ShardedOptions, opts core.Options) (*Store, error) {
	s, err := newStore(sopts, opts, len(db))
	if err != nil {
		return nil, err
	}
	parts := make([]uncertain.Database, len(s.shards))
	for _, o := range db {
		if o == nil {
			return nil, errors.New("store: nil object")
		}
		if _, dup := s.byID[o.ID]; dup {
			return nil, fmt.Errorf("store: duplicate object ID %d", o.ID)
		}
		if err := s.checkDim(o); err != nil {
			return nil, err
		}
		s.dim = o.Dim()
		si := s.shardFor(o)
		s.byID[o.ID] = slot{obj: o, shard: si}
		s.cache.Add(o)
		parts[si] = append(parts[si], o)
	}
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.shards[i] = newShard(parts[i])
		}()
	}
	wg.Wait()
	for i, part := range parts {
		for k, o := range part {
			s.byID[o.ID] = slot{o, i, k}
		}
	}
	return s, nil
}

// bulkIndex STR-bulk-loads an R-tree over the objects' MBRs.
func bulkIndex(db uncertain.Database) *objTree {
	items := make([]rtree.BulkItem[*uncertain.Object], len(db))
	for i, o := range db {
		items[i] = rtree.BulkItem[*uncertain.Object]{Rect: o.MBR, Value: o}
	}
	return rtree.Bulk(items)
}

// newStore builds an empty store with the shard layout of sopts, its
// map sized for n objects; the caller fills in the shards.
func newStore(sopts ShardedOptions, opts core.Options, n int) (*Store, error) {
	if opts.SharedDecomps != nil {
		return nil, errors.New("store: Options.SharedDecomps must be unset (the store manages its own cache)")
	}
	s := &Store{
		opts:   opts,
		part:   sopts.Partition,
		byID:   make(map[int]slot, n),
		cache:  core.NewDecompCache(opts.MaxHeight),
		obs:    NewMetrics(),
		shards: make([]*shard, max(sopts.Shards, 1)),
	}
	if s.part == nil {
		s.part = HashShards
	}
	return s, nil
}

// shardFor routes an object, folding out-of-range partitioner results
// back into [0, n).
func (s *Store) shardFor(o *uncertain.Object) int {
	n := len(s.shards)
	if n == 1 {
		return 0
	}
	i := s.part(o, n) % n
	if i < 0 {
		i += n
	}
	return i
}

// NumShards returns the shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// ShardSizes returns the current number of objects per shard.
func (s *Store) ShardSizes() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sizes := make([]int, len(s.shards))
	for i, sh := range s.shards {
		sizes[i] = sh.slab.Len()
	}
	return sizes
}

// ShardOf returns the home shard of the object with the given ID.
func (s *Store) ShardOf(id int) (int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.byID[id]
	return e.shard, ok
}

// Len returns the number of stored objects.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byID)
}

// Version returns the mutation epoch: it increments on every
// Insert/Delete/Update (migrations leave it untouched), and a Snapshot
// carries the epoch it was published at.
func (s *Store) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// Get returns the stored object with the given ID.
func (s *Store) Get(id int) (*uncertain.Object, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.byID[id]
	return e.obj, ok
}

// ChangeKind identifies the mutation a Change record describes.
type ChangeKind uint8

const (
	// ChangeInsert: a new object entered the database.
	ChangeInsert ChangeKind = iota + 1
	// ChangeUpdate: the object carrying an ID was replaced.
	ChangeUpdate
	// ChangeDelete: an object left the database.
	ChangeDelete
)

// String returns a short human-readable kind name.
func (k ChangeKind) String() string {
	switch k {
	case ChangeInsert:
		return "insert"
	case ChangeUpdate:
		return "update"
	case ChangeDelete:
		return "delete"
	default:
		return "unknown"
	}
}

// Change is one committed store mutation, delivered to Watch callbacks.
// Old is nil for inserts, New is nil for deletes; updates carry both
// (same ID, distinct objects). Snap is the immutable database state
// WITH the change applied — Snap.Version() == Version — so a consumer
// replaying the change stream can evaluate every version exactly, even
// when it lags behind the store head.
type Change struct {
	Version  uint64
	Kind     ChangeKind
	Old, New *uncertain.Object
	Snap     *Snapshot
}

// Watch registers a commit hook and returns, atomically with the
// registration, the snapshot of the current state: the callback will
// observe exactly the changes with Version > Snap.Version(), gaplessly
// and in version order, each carrying the snapshot of its version
// (whose version vector localizes the change to its shard). The
// returned stop function unregisters the hook.
//
// The callback runs synchronously inside the mutation, while the store
// lock is held: it must return quickly (hand the Change to a queue) and
// must not call back into the Store — package cq's Monitor is the
// intended consumer. While at least one watcher is registered every
// mutation publishes a snapshot, so every commit pays one copy-on-write
// detach: the page tables of the shard's object slab and R-tree, plus
// the slab chunks (at most two) and tree pages the commit writes. That
// is the price of a gapless per-version change stream.
func (s *Store) Watch(fn func(Change)) (*Snapshot, func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := &fn
	s.watchers = append(s.watchers, w)
	stop := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.watchers = slices.DeleteFunc(s.watchers, func(x *func(Change)) bool { return x == w })
	}
	return s.snapshotLocked(), stop
}

// notifyLocked delivers a committed change to every watcher. Requires
// s.mu held for writing, after the mutation was applied.
func (s *Store) notifyLocked(kind ChangeKind, old, new *uncertain.Object) {
	if len(s.watchers) == 0 {
		return
	}
	ch := Change{
		Version: s.version,
		Kind:    kind,
		Old:     old,
		New:     new,
		Snap:    s.snapshotLocked(),
	}
	for _, w := range s.watchers {
		(*w)(ch)
	}
}

// detachLocked makes shard si private again after a publish: the
// snapshot keeps the old slab and tree, the store continues on clones
// that share their slab chunks and tree pages until it writes them. A
// detach copies page tables only. Requires s.mu held for writing.
func (s *Store) detachLocked(si int) {
	s.snap = nil
	if sh := s.shards[si]; sh.snap != nil {
		sh.slab = sh.slab.Clone()
		sh.index = sh.index.Clone()
		sh.snap = nil
	}
}

// checkDim refuses an object whose dimension differs from the stored
// objects': the first object stored fixes the store's dimension, as it
// fixes its R-trees', and distances across dimensions are undefined.
func (s *Store) checkDim(o *uncertain.Object) error {
	if s.dim != 0 && o.Dim() != s.dim {
		return fmt.Errorf("store: object %d has %d dimensions, the store holds %d-dimensional objects", o.ID, o.Dim(), s.dim)
	}
	return nil
}

// Insert adds a new object, routing it to its partition shard; the ID
// must not be in use. The object is shared with the store and must not
// be mutated afterwards. On a durable store the commit is journaled
// before it is applied; a journaling error leaves the store unchanged.
// Under wal.SyncAlways the commit is acknowledged only once an fsync
// covers its record — on a one-shard store possibly a concurrent
// committer's group fsync, waited for after the store lock is released.
// A group-fsync failure is reported after the commit was applied in
// memory; the journal wedges and every later commit on its shard fails.
func (s *Store) Insert(o *uncertain.Object) error {
	return s.InsertCtx(context.Background(), o)
}

// InsertCtx is Insert with a context: a trace attached via
// obs.WithTrace records the commit's durability wait (the span between
// journaling and the covering group fsync) as its WAL-wait phase. The
// context does not cancel the commit — a journaled commit always
// applies.
func (s *Store) InsertCtx(ctx context.Context, o *uncertain.Object) error {
	if o == nil {
		return errors.New("store: nil object")
	}
	s.mu.Lock()
	if _, dup := s.byID[o.ID]; dup {
		s.mu.Unlock()
		return fmt.Errorf("store: duplicate object ID %d", o.ID)
	}
	if err := s.checkDim(o); err != nil {
		s.mu.Unlock()
		return err
	}
	si := s.shardFor(o)
	seq, err := s.journalLocked(si, wal.Record{Op: wal.OpInsert, Obj: o}, s.version+1)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.detachLocked(si)
	s.byID[o.ID] = s.shards[si].insert(si, o)
	s.dim = o.Dim()
	s.cache.Add(o)
	return s.commitLocked(ctx, si, seq, ChangeInsert, nil, o)
}

// Delete removes the object with the given ID: ok reports whether one
// was stored, err a failure to journal the commit. The store is
// unchanged when err != nil, except a group-fsync failure under
// wal.SyncAlways, which is reported after the commit was applied in
// memory (ok stays true and the journal wedges).
func (s *Store) Delete(id int) (ok bool, err error) {
	return s.DeleteCtx(context.Background(), id)
}

// DeleteCtx is Delete with a context carrying an optional trace (see
// InsertCtx).
func (s *Store) DeleteCtx(ctx context.Context, id int) (bool, error) {
	s.mu.Lock()
	e, ok := s.byID[id]
	if !ok {
		s.mu.Unlock()
		return false, nil
	}
	seq, err := s.journalLocked(e.shard, wal.Record{Op: wal.OpDelete, ID: id}, s.version+1)
	if err != nil {
		s.mu.Unlock()
		return false, err
	}
	s.detachLocked(e.shard)
	s.shards[e.shard].remove(s.byID, e)
	delete(s.byID, id)
	s.cache.Invalidate(e.obj)
	return true, s.commitLocked(ctx, e.shard, seq, ChangeDelete, e.obj, nil)
}

// Update atomically replaces the object carrying o.ID with o: no query
// ever observes the database with the old object gone and the new one
// missing, or with both present. The object keeps its home shard and
// slab slot even when the partitioner would now route it elsewhere
// (Rebalance re-homes drifted objects). It returns an error when the ID
// is not stored (use Insert for new objects).
func (s *Store) Update(o *uncertain.Object) error {
	return s.UpdateCtx(context.Background(), o)
}

// UpdateCtx is Update with a context carrying an optional trace (see
// InsertCtx).
func (s *Store) UpdateCtx(ctx context.Context, o *uncertain.Object) error {
	if o == nil {
		return errors.New("store: nil object")
	}
	s.mu.Lock()
	e, ok := s.byID[o.ID]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("store: update of unknown object ID %d", o.ID)
	}
	if err := s.checkDim(o); err != nil {
		s.mu.Unlock()
		return err
	}
	seq, err := s.journalLocked(e.shard, wal.Record{Op: wal.OpUpdate, Obj: o}, s.version+1)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.detachLocked(e.shard)
	s.byID[o.ID] = s.shards[e.shard].replace(e, o)
	s.cache.Invalidate(e.obj)
	s.cache.Add(o)
	return s.commitLocked(ctx, e.shard, seq, ChangeUpdate, e.obj, o)
}

// commitLocked finishes a logical mutation applied on shard si and
// waits for its record to be durable. Requires s.mu held for writing;
// returns with it released. One journal waits after the release, so
// concurrent committers share fsyncs. Shard journals fsync
// independently, so with more than one a commit stays under the lock
// until durable: recovery must never find an acknowledged epoch past a
// lost one.
func (s *Store) commitLocked(ctx context.Context, si int, seq uint64, kind ChangeKind, old, new *uncertain.Object) error {
	s.shards[si].version++
	s.version++
	s.notifyLocked(kind, old, new)
	s.maybeCheckpointLocked()
	j := s.shards[si].journal
	if len(s.shards) > 1 {
		defer s.mu.Unlock()
		return waitDurableTraced(ctx, j, seq)
	}
	s.mu.Unlock()
	return waitDurableTraced(ctx, j, seq)
}

// waitDurableTraced is a commit's durability wait, measured into the
// context's trace (if any) as its WAL-wait phase; tracing never changes
// commit semantics.
func waitDurableTraced(ctx context.Context, j *wal.Journal, seq uint64) error {
	if j == nil || seq == 0 {
		return nil
	}
	tr := obs.TraceFrom(ctx)
	if tr == nil {
		return j.WaitDurable(seq)
	}
	start := time.Now()
	err := j.WaitDurable(seq)
	tr.AddWALWait(time.Since(start))
	return err
}

// Move migrates the object with the given ID to shard dst without
// changing the logical database: versions, change streams and query
// results are unaffected — in-flight queries keep their snapshots, new
// queries see the object on its new shard with bit-identical bounds.
func (s *Store) Move(id, dst int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if dst < 0 || dst >= len(s.shards) {
		return fmt.Errorf("store: shard %d out of range [0, %d)", dst, len(s.shards))
	}
	e, ok := s.byID[id]
	if !ok {
		return fmt.Errorf("store: move of unknown object ID %d", id)
	}
	if e.shard != dst {
		return s.moveLocked(id, dst)
	}
	return nil
}

// moveLocked migrates id from its home shard to dst. Requires s.mu held for
// writing. The move-in is durable BEFORE the move-out is journaled: a
// crash between the two leaves the object on both shards — never on
// neither — and recovery drops the dangling move-in's copy. A failed
// move-out is rolled back with a compensating move-out on dst. If even
// that fails, the copy is dropped in memory only — the state recovery
// will rebuild — and the store latches: commits on top of the dangling
// move-in could not be recovered, so every mutation, Sync and Close
// returns the error while queries keep serving.
func (s *Store) moveLocked(id, dst int) error {
	from := s.byID[id]
	o := from.obj
	if err := s.migrateLocked(dst, o, wal.OpMoveIn); err != nil {
		return err
	}
	to := s.shards[dst].insert(dst, o)
	err := s.migrateLocked(from.shard, o, wal.OpMoveOut)
	if err == nil {
		s.shards[from.shard].remove(s.byID, from)
		s.byID[id] = to
		s.maybeCheckpointLocked()
		return nil
	}
	// A latched store means the move-out may be durable after all (its
	// fsync failed): compensating on dst could then lose the object.
	if s.failed == nil {
		if uerr := s.migrateLocked(dst, o, wal.OpMoveOut); uerr != nil {
			s.failLocked(fmt.Errorf("store: move of object %d failed (%v) and could not be rolled back: %w", id, err, uerr))
		}
	}
	s.shards[dst].remove(s.byID, to)
	return cmp.Or(s.failed, err)
}

// migrateLocked journals one half of a migration on shard si and, once
// it is durable, detaches the shard and counts its version up for the
// caller to apply the half. A durability failure latches the store: the
// record may or may not have reached the disk.
func (s *Store) migrateLocked(si int, o *uncertain.Object, op wal.Op) error {
	rec := wal.Record{Op: op, Obj: o}
	if op == wal.OpMoveOut {
		rec = wal.Record{Op: op, ID: o.ID}
	}
	seq, err := s.journalLocked(si, rec, s.version)
	if err != nil {
		return err
	}
	sh := s.shards[si]
	if err := sh.journal.WaitDurable(seq); err != nil { // seq 0 (in memory) never waits
		s.failLocked(err)
		return err
	}
	s.detachLocked(si)
	sh.version++
	return nil
}

// Rebalance re-applies the partitioner to every stored object and
// migrates the ones whose current home differs, online, without
// blocking queries (each published snapshot stays valid). It returns
// the number of objects moved. On a durable store a migration that
// fails stops the pass early (the logical database is unaffected — the
// stragglers stay on their old shards); the error is deferred to the
// next mutation, Sync or Close, like auto-checkpoint failures.
func (s *Store) Rebalance() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	moved := 0
	// The cuts stay put while the moves rewrite the slabs (one shard has
	// none).
	for si, cut := range s.snapshotLocked().shards {
		for o := range cut.slab.All() {
			if dst := s.shardFor(o); dst != si {
				if err := s.moveLocked(o.ID, dst); err != nil {
					s.dur.noteCkptErr(err)
					return moved
				}
				moved++
			}
		}
	}
	return moved
}

// Snapshot publishes (or returns the already-published) immutable view
// of the current state; it stays valid whatever mutations follow.
func (s *Store) Snapshot() *Snapshot {
	s.mu.RLock()
	snap := s.snap
	s.mu.RUnlock()
	if snap != nil {
		return snap
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

// snapshotLocked publishes (or returns) the current snapshot: with one
// shard, the shard's own cut. Requires s.mu held for writing.
func (s *Store) snapshotLocked() *Snapshot {
	if s.snap != nil {
		return s.snap
	}
	if len(s.shards) == 1 {
		s.snap = s.cutLocked(s.shards[0])
		return s.snap
	}
	cuts := make([]*Snapshot, len(s.shards))
	for i, sh := range s.shards {
		cuts[i] = s.cutLocked(sh)
	}
	s.snap = &Snapshot{shards: cuts, version: s.version, opts: s.opts, cache: s.cache, obs: s.obs}
	return s.snap
}

// cutLocked publishes (or returns) the immutable snapshot of one shard.
// Requires s.mu held for writing.
func (s *Store) cutLocked(sh *shard) *Snapshot {
	if sh.snap == nil {
		sh.snap = &Snapshot{slab: sh.slab, sorted: sh.sorted, index: sh.index, version: sh.version, opts: s.opts, cache: s.cache, obs: s.obs}
		sh.snap.self[0] = sh.snap
	}
	return sh.snap
}

// Metrics returns the store's query metric set: per-kind latency
// histograms and filter-economy counters accumulated across every
// snapshot the store has published. Registry().Points() is what the
// server renders.
func (s *Store) Metrics() *Metrics { return s.obs }

// SetRecorder arms (or, with nil, disarms) the store's flight
// recorder: slow queries above the SetSlowQueryThreshold record their
// trace anatomy, and a durable store's checkpoint lifecycle and every
// shard journal's durability events (pin, install, supersede,
// group-commit batches, fsync stalls, deferred errors) flow into the
// same ring. Safe to call while the store serves.
func (s *Store) SetRecorder(rec *obs.Recorder) {
	s.obs.SetRecorder(rec)
	if s.dur != nil {
		s.dur.rec.Store(rec)
	}
	for _, sh := range s.shards {
		sh.journal.SetRecorder(rec)
	}
}

// SetSlowQueryThreshold arms the flight-recorder slow-query capture
// (see Metrics.SetSlowQueryThreshold). <= 0 disarms.
func (s *Store) SetSlowQueryThreshold(d time.Duration) {
	s.obs.SetSlowQueryThreshold(d)
}

// WALStats returns the journal metrics of a durable store, merged
// across its shard journals (append/fsync/checkpoint counts and
// latencies); ok is false on an in-memory store.
func (s *Store) WALStats() (wal.MetricsSnapshot, bool) {
	if s.dur == nil {
		return wal.MetricsSnapshot{}, false
	}
	var out wal.MetricsSnapshot
	for _, sh := range s.shards {
		out.Merge(sh.journal.MetricsSnapshot())
	}
	return out, true
}

// Snapshot is the database D at one version, published by a Store: with
// one shard, its object slab and index; with more, a consistent cut of
// per-shard snapshots at one epoch. It is the one read type: every
// query (KNN, RKNN, TopKNN, InverseRank, RankByExpectedRank, UKRanks,
// BatchKNN) is a method of it, reads the store's persistent
// decomposition cache through a per-query overlay and scatters its
// filter stage across the snapshot's shard cuts, so all queries on one
// snapshot see exactly the same objects and results are bit-identical
// at any shard count and Parallelism.
//
// A shard cut's slab is the store's copy-on-write slab as of the
// publish. Readers that scan the database (candidate scans, Database)
// read a flat copy in ascending ID order, built on first use at most
// once per snapshot — sorted only when the slab is out of order, merged
// from the cuts' copies with more than one shard; readers that go
// through the index (continuous-query maintenance) never build it.
type Snapshot struct {
	slab    cow.List[*uncertain.Object] // the shard's slab; empty on a multi-shard cut
	sorted  bool                        // the slab is in ascending ID order
	index   *objTree                    // the shard's index; nil on a multi-shard cut
	shards  []*Snapshot                 // per-shard cuts; nil with one shard
	self    [1]*Snapshot                // a shard cut's one-element cut list: itself
	version uint64
	opts    core.Options
	cache   *core.DecompCache
	obs     *Metrics

	flatOnce sync.Once
	flat     uncertain.Database

	// A shard cut's cached index root MBR, and whether every resident
	// object certainly exists — what the filter plane needs to decide a
	// whole cut wholesale. The snapshot is immutable, so neither answer
	// goes stale; the existence scan runs only when a filter asks.
	rootOnce    sync.Once
	rootMBR     geom.Rect
	nonEmpty    bool
	certainOnce sync.Once
	certain     bool
}

// root returns the cut's cached index root MBR; ok is false on an empty
// cut.
func (sn *Snapshot) root() (geom.Rect, bool) {
	sn.rootOnce.Do(func() { sn.rootMBR, sn.nonEmpty = sn.index.Bounds() })
	return sn.rootMBR, sn.nonEmpty
}

// allCertain reports whether every object of the cut certainly exists,
// scanning the cut on the first call.
func (sn *Snapshot) allCertain() bool {
	sn.certainOnce.Do(func() {
		sn.certain = true
		for o := range sn.slab.All() {
			if o.ExistenceProb() < 1 {
				sn.certain = false
				break
			}
		}
	})
	return sn.certain
}

// Version returns the store mutation epoch (for a shard cut: the shard
// version) the snapshot was published at.
func (sn *Snapshot) Version() uint64 { return sn.version }

// VersionVector returns the per-shard versions at the cut — the cursor
// a merged change-stream consumer uses to localize a change to the one
// shard that advanced — or nil for a one-shard cut, whose version is
// the whole cursor.
func (sn *Snapshot) VersionVector() []uint64 {
	if sn.shards == nil {
		return nil
	}
	vv := make([]uint64, len(sn.shards))
	for i, c := range sn.shards {
		vv[i] = c.version
	}
	return vv
}

// NumShards returns the shard count.
func (sn *Snapshot) NumShards() int { return max(len(sn.shards), 1) }

// cuts returns the per-shard cuts every filter-stage primitive scatters
// over: with one shard, the snapshot itself.
func (sn *Snapshot) cuts() []*Snapshot {
	if sn.shards == nil {
		return sn.self[:]
	}
	return sn.shards
}

// Len returns the number of objects in the snapshot.
func (sn *Snapshot) Len() int {
	n := sn.slab.Len()
	for _, c := range sn.shards {
		n += c.Len()
	}
	return n
}

// Database returns the snapshot's objects in ascending ID order as one
// flat slice, built on the first call. The slice is shared and must be
// treated as read-only.
func (sn *Snapshot) Database() uncertain.Database {
	sn.flatOnce.Do(func() {
		if sn.shards == nil {
			sn.flat = sn.slab.Slice()
			if !sn.sorted {
				slices.SortFunc(sn.flat, cmpID)
			}
			return
		}
		// Every cut's copy ascends by ID: merge them.
		heads := make([]uncertain.Database, len(sn.shards))
		for i, c := range sn.shards {
			heads[i] = c.Database()
		}
		sn.flat = make(uncertain.Database, 0, sn.Len())
		for len(sn.flat) < cap(sn.flat) {
			best := -1
			for i, h := range heads {
				if len(h) > 0 && (best < 0 || h[0].ID < heads[best][0].ID) {
					best = i
				}
			}
			sn.flat = append(sn.flat, heads[best][0])
			heads[best] = heads[best][1:]
		}
	})
	return sn.flat
}

// KNN answers the probabilistic threshold kNN query on the current
// snapshot, dropping its error (a query object of another dimension
// yields nil). It is the one store-level query and exists only for the
// layer benchmark harness (benchmark/layers), which calls it; it goes
// once that harness queries Snapshot().KNN (ROADMAP item 1(b)).
// Everything else queries a Snapshot.
func (s *Store) KNN(q *uncertain.Object, k int, tau float64) []Match {
	matches, _ := s.Snapshot().KNN(context.Background(), q, k, tau)
	return matches
}
