// Package wal provides the durability layer under the live stores: a
// segmented, CRC-framed write-ahead log of store mutations plus
// checkpoint snapshots of the object database, so a reopened store
// recovers bit-identically to the pre-crash one. Checkpoints hold
// objects and versions only; each object's decomposition is rebuilt
// from its samples when a query first needs it.
//
// # On-disk layout
//
// A journal owns one directory:
//
//	wal-00000001.log        append-only record segments
//	wal-00000002.log
//	checkpoint-00000002.ckpt  checkpoint snapshots
//
// Every segment starts with an 8-byte magic and holds a sequence of
// frames [len u32][crc32c u32][payload]; the payload is one Record.
// A checkpoint file is the same framing around one checkpoint payload,
// and records which segment index the log tail starts at. The directory
// is self-describing: on open, the newest checkpoint that decodes
// cleanly wins; older checkpoints and segments older than its tail
// watermark are garbage from an interrupted truncation and are removed.
// A directory whose checkpoints all fail to decode is refused, and
// nothing in it is removed.
//
// # Crash safety
//
// Appends frame every record with a CRC; replay stops at the first
// frame that is short or fails its checksum and truncates the segment
// back to the last intact record, so a torn tail write loses exactly
// the commits that had not finished journaling (the kill-point test
// asserts this at every byte offset). Checkpoints are written to a
// temporary file and renamed into place. Old
// segments are deleted only after the new checkpoint is durably
// installed, so a crash at any point leaves either the old or the new
// checkpoint complete on disk.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"probprune/internal/obs"
)

// SyncPolicy selects when appended records are fsynced to stable
// storage.
type SyncPolicy uint8

const (
	// SyncOS (the default): never fsync explicitly; the OS flushes the
	// page cache on its own schedule. A process crash loses nothing, an
	// OS crash can lose the most recent commits — recovery still stops
	// cleanly at the last intact record.
	SyncOS SyncPolicy = iota
	// SyncAlways: an append is acknowledged only after an fsync covered
	// it. The fsync is GROUPED across concurrent committers
	// (leader/follower): one fsync acknowledges every append that landed
	// before it, possibly a peer's — acknowledged still means fsynced,
	// but N concurrent committers share one fsync instead of paying one
	// each.
	SyncAlways
	// SyncBackground: a background goroutine fsyncs every SyncEvery
	// interval (default one second) — the redis-appendfsync-everysec
	// trade: at most one interval of acknowledged commits at risk.
	SyncBackground
)

// String returns a short human-readable policy name.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncBackground:
		return "background"
	default:
		return "os"
	}
}

// Options configures a journal.
type Options struct {
	// Sync is the fsync policy; the zero value is SyncOS.
	Sync SyncPolicy
	// SyncEvery is the SyncBackground flush interval; <= 0 selects one
	// second.
	SyncEvery time.Duration
	// SegmentBytes rotates to a fresh segment once the current one
	// reaches this size; <= 0 selects DefaultSegmentBytes.
	SegmentBytes int64
}

// DefaultSegmentBytes is the segment rotation threshold used when
// Options does not choose one.
const DefaultSegmentBytes = 4 << 20

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return DefaultSegmentBytes
	}
	return o.SegmentBytes
}

func (o Options) syncEvery() time.Duration {
	if o.SyncEvery <= 0 {
		return time.Second
	}
	return o.SyncEvery
}

const (
	segMagic  = "ppwal\x00\x01\n"
	ckptMagic = "ppckpt\x02\n"

	// Format v1 of checkpoints also persisted decomposition levels and a
	// cache epoch; it is still read.
	ckptMagicV1 = "ppckpt\x01\n"

	frameHeader = 8       // u32 length + u32 crc
	maxFrame    = 1 << 28 // sanity bound on a single payload
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Journal is a segmented write-ahead log plus its checkpoint state,
// rooted in one directory. Typical lifecycle: Open, read Checkpoint(),
// Replay the tail, then Append per commit and BeginCheckpoint +
// InstallCheckpoint periodically; Close releases the files. All methods are safe for
// concurrent use, though the stores serialize commits themselves.
type Journal struct {
	dir  string
	opts Options

	mu        sync.Mutex
	f         *os.File // current segment
	size      int64    // bytes written to current segment
	seg       uint64   // current segment index
	ck        *Checkpoint
	ckSeg     uint64 // first live segment (tail watermark of ck)
	ckIndex   uint64 // index of the installed checkpoint file
	writeSeq  uint64 // sequence number of the last appended record
	replayed  bool
	closed    bool
	failed    error // latched unrecoverable write failure
	stopSync  chan struct{}
	syncErr   error
	buf       []byte // scratch encode buffer
	replayEnd uint64 // version of the last replayed record

	// gen counts segment-file swaps (rotation, close). The group-commit
	// leader fsyncs off j.mu and uses it to tell a real fsync failure
	// from a stale handle whose bytes the swapping path already fsynced.
	gen uint64

	// Group-commit state (SyncAlways): gcSynced is the highest writeSeq
	// covered by an fsync, gcSyncing marks a leader in flight, gcErr
	// latches an fsync failure for every current and future waiter.
	// gcMu is never held while acquiring j.mu (the leader releases it
	// around the fsync), so Close may take gcMu under j.mu.
	gcMu      sync.Mutex
	gcCond    *sync.Cond
	gcSyncing bool
	gcSynced  uint64
	gcBatch   uint64 // size of the last group fsync's batch
	gcErr     error

	// installHook, when set (tests only), is called at each step of
	// InstallCheckpoint so kill-point tests can snapshot the directory
	// mid-install.
	installHook func(step string)

	// metrics are the journal's cumulative durability metrics (see
	// metrics.go); the zero value records from the first append.
	metrics journalMetrics

	// rec is the armed flight recorder (nil when disarmed): every group
	// fsync records an EvGroupCommit event and every fsync past the stall
	// threshold an EvFsyncStall. Recording is lock-free and
	// allocation-free, so the commit path never stalls on a scrape.
	rec atomic.Pointer[obs.Recorder]
}

// SetRecorder arms (or, with nil, disarms) the journal's
// flight-recorder event sources. Safe to call while commits run.
func (j *Journal) SetRecorder(rec *obs.Recorder) {
	if j == nil {
		return
	}
	j.rec.Store(rec)
}

// fsyncStallThreshold marks an fsync worth a flight-recorder event:
// 10ms is roughly the rotational-disk budget, so an fsync beyond it on
// SSD-class storage signals device contention or a saturated queue.
const fsyncStallThreshold = 10 * time.Millisecond

// noteFsync records one completed fsync: the counter and latency
// histogram always, plus a stall event when the armed recorder should
// hear about it.
func (j *Journal) noteFsync(d time.Duration) {
	j.metrics.fsyncs.Inc()
	j.metrics.fsyncLat.Observe(d)
	if d >= fsyncStallThreshold {
		j.rec.Load().Record(obs.EvFsyncStall, 0, d, 0, 0)
	}
}

func segName(i uint64) string  { return fmt.Sprintf("wal-%08d.log", i) }
func ckptName(i uint64) string { return fmt.Sprintf("checkpoint-%08d.ckpt", i) }

// Open opens (or initializes) the journal directory. It loads the
// newest intact checkpoint but does not touch the log tail — call
// Replay next, before the first Append.
func Open(dir string, opts Options) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	j := &Journal{dir: dir, opts: opts, ckSeg: 1} // segments are numbered from 1
	j.gcCond = sync.NewCond(&j.gcMu)
	if err := j.loadCheckpoint(); err != nil {
		return nil, err
	}
	if j.opts.Sync == SyncBackground {
		j.stopSync = make(chan struct{})
		go j.syncLoop()
	}
	return j, nil
}

// SetInstallHook installs a callback invoked at each step of
// InstallCheckpoint ("encode", "installed", "removed-ckpt",
// "removed-segs") — the seam kill-point tests use to capture crash
// images mid-install. The hook must not call back into the journal.
// Test use only.
func (j *Journal) SetInstallHook(fn func(step string)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.installHook = fn
}

// Checkpoint returns the checkpoint loaded at Open, nil when the
// directory had none.
func (j *Journal) Checkpoint() *Checkpoint {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ck
}

// loadCheckpoint loads the newest checkpoint that decodes cleanly and
// removes files an interrupted truncation left behind: checkpoints older
// than the loaded one and segments before its tail watermark. A newer
// file that does not decode (a torn install) is left in place. When
// checkpoint files exist and none decodes, loadCheckpoint fails naming
// the newest and removes nothing: opening such a directory empty would
// lose the store.
func (j *Journal) loadCheckpoint() error {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var cks []uint64
	for _, e := range entries {
		var i uint64
		if n, _ := fmt.Sscanf(e.Name(), "checkpoint-%08d.ckpt", &i); n == 1 {
			cks = append(cks, i)
		}
	}
	sort.Slice(cks, func(a, b int) bool { return cks[a] > cks[b] })
	var firstErr error
	for _, i := range cks {
		path := filepath.Join(j.dir, ckptName(i))
		ck, err := loadCheckpointFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("wal: checkpoint %s: %w", path, err)
			}
			continue // partial write of a newer checkpoint: fall back
		}
		j.ck, j.ckSeg, j.ckIndex = ck, ck.firstSegment, i
		break
	}
	if j.ck == nil && firstErr != nil {
		return firstErr
	}
	// Remove stale files: superseded checkpoints and pre-watermark
	// segments (crash between checkpoint install and truncation).
	for _, i := range cks {
		if i < j.ckIndex {
			os.Remove(filepath.Join(j.dir, ckptName(i)))
		}
	}
	for _, i := range j.segmentIndexes() {
		if i < j.ckSeg {
			os.Remove(filepath.Join(j.dir, segName(i)))
		}
	}
	return nil
}

// segmentIndexes lists the segment files present, ascending.
func (j *Journal) segmentIndexes() []uint64 {
	entries, _ := os.ReadDir(j.dir)
	var segs []uint64
	for _, e := range entries {
		var i uint64
		if n, _ := fmt.Sscanf(e.Name(), "wal-%08d.log", &i); n == 1 {
			segs = append(segs, i)
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a] < segs[b] })
	return segs
}

// Replay feeds every intact record past the checkpoint to fn, in log
// order, then truncates the log back to the last intact record and
// positions the journal for appending. A decode error from the log
// stops replay cleanly (torn tail); an error returned by fn aborts it.
// Replay must be called exactly once, before the first Append.
func (j *Journal) Replay(fn func(Record) error) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.replayed {
		return fmt.Errorf("wal: Replay called twice")
	}
	j.replayed = true
	segs := j.segmentIndexes()
	last := j.ckSeg // next segment to create if none survive
	for si, seg := range segs {
		path := filepath.Join(j.dir, segName(seg))
		goodEnd, err := replaySegment(path, fn)
		if err != nil {
			return err
		}
		if goodEnd < 0 {
			// Corrupt beyond repair (bad magic): an interrupted rotation
			// wrote the file header partially. Drop it and everything
			// after — nothing intact can follow a torn segment.
			for _, s := range segs[si:] {
				os.Remove(filepath.Join(j.dir, segName(s)))
			}
			break
		}
		fi, err := os.Stat(path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if goodEnd < fi.Size() {
			// Torn tail: cut back to the last intact frame and discard
			// any later segments (they were created after the torn one,
			// which cannot happen in a clean shutdown).
			if err := os.Truncate(path, goodEnd); err != nil {
				return fmt.Errorf("wal: truncating torn tail: %w", err)
			}
			for _, s := range segs[si+1:] {
				os.Remove(filepath.Join(j.dir, segName(s)))
			}
			last = seg
			break
		}
		last = seg
	}
	// Re-open the last surviving segment for appending, or start the
	// first one.
	if len(segs) == 0 || last < j.ckSeg {
		last = j.ckSeg
	}
	return j.openSegmentLocked(last)
}

// replaySegment feeds a segment's intact records to fn. It returns the
// byte offset after the last intact frame, or -1 when the file is not a
// segment at all (bad or short magic).
func replaySegment(path string, fn func(Record) error) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return -1, nil
	}
	off := int64(len(segMagic))
	rest := data[len(segMagic):]
	for {
		payload, n := nextFrame(rest)
		if payload == nil {
			return off, nil
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return off, nil // corrupt payload: stop at the last intact record
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return off, err
			}
		}
		off += int64(n)
		rest = rest[n:]
	}
}

// nextFrame parses one [len][crc][payload] frame, returning the payload
// and the total frame size, or (nil, 0) when the input holds no intact
// frame.
func nextFrame(b []byte) ([]byte, int) {
	if len(b) < frameHeader {
		return nil, 0
	}
	size := binary.LittleEndian.Uint32(b)
	crc := binary.LittleEndian.Uint32(b[4:])
	if size == 0 || size > maxFrame || uint64(frameHeader)+uint64(size) > uint64(len(b)) {
		return nil, 0
	}
	payload := b[frameHeader : frameHeader+size]
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, 0
	}
	return payload, frameHeader + int(size)
}

// openSegmentLocked opens segment index i for appending, creating it
// (with magic) when absent.
func (j *Journal) openSegmentLocked(i uint64) error {
	if j.f != nil {
		j.f.Close()
	}
	path := filepath.Join(j.dir, segName(i))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	size := fi.Size()
	if size == 0 {
		if _, err := f.Write([]byte(segMagic)); err != nil {
			f.Close()
			return fmt.Errorf("wal: %w", err)
		}
		// Make the fresh segment's directory entry durable: fsyncing
		// record data into a file whose name is not on disk yet
		// protects nothing.
		if err := syncDir(j.dir); err != nil {
			f.Close()
			return err
		}
		size = int64(len(segMagic))
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	j.f, j.size, j.seg = f, size, i
	j.gen++
	return nil
}

// Append journals one record and, under SyncAlways, waits until an
// fsync covered it: AppendAsync + WaitDurable. Callers that hold a
// coarser lock around the append should call the two halves themselves
// and wait outside the lock, so concurrent committers can share the
// leader's fsync (group commit).
func (j *Journal) Append(rec Record) error {
	seq, err := j.AppendAsync(rec)
	if err != nil {
		return err
	}
	return j.WaitDurable(seq)
}

// AppendAsync journals one record — frame and write, no fsync wait —
// and returns its write sequence number for WaitDurable. The write is
// a single contiguous write call, so a crash leaves either the whole
// frame or a torn tail that replay cuts off — never an interleaved
// state.
func (j *Journal) AppendAsync(rec Record) (uint64, error) {
	start := time.Now()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, fmt.Errorf("wal: journal closed")
	}
	if j.failed != nil {
		return 0, fmt.Errorf("wal: journal failed: %w", j.failed)
	}
	if !j.replayed {
		return 0, fmt.Errorf("wal: Append before Replay")
	}
	if err := j.syncErr; err != nil {
		// A background-flusher failure means durability is degraded NOW;
		// reject the next commit instead of letting the caller discover
		// it at Close. The error is cleared: the caller was told once,
		// later appends proceed (their own fsyncs decide their fate).
		j.syncErr = nil
		return 0, fmt.Errorf("wal: background fsync failed: %w", err)
	}
	if j.size >= j.opts.segmentBytes()+int64(len(segMagic)) {
		if err := j.rotateLocked(); err != nil {
			return 0, err
		}
	}
	j.buf = j.buf[:0]
	payload, err := appendRecord(j.buf[:0], rec)
	if err != nil {
		return 0, err
	}
	j.buf = payload // keep the grown buffer for reuse
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
	copy(frame[frameHeader:], payload)
	if _, err := j.f.Write(frame); err != nil {
		// A partial write leaves garbage past j.size with the file
		// offset advanced; a LATER successful append would land after
		// the torn frame and be silently cut off by the next recovery.
		// Roll the file back to the last intact frame — and if even
		// that fails, latch the journal so no further commit can be
		// acknowledged on top of a torn tail.
		if terr := j.f.Truncate(j.size); terr != nil {
			j.failed = terr
		} else if _, serr := j.f.Seek(j.size, io.SeekStart); serr != nil {
			j.failed = serr
		}
		return 0, fmt.Errorf("wal: %w", err)
	}
	j.size += int64(len(frame))
	j.writeSeq++
	j.metrics.appends.Inc()
	j.metrics.appendBytes.Add(uint64(len(frame)))
	j.metrics.appendLat.Observe(time.Since(start))
	return j.writeSeq, nil
}

// rotateLocked moves appends to the next segment. Under a durable sync
// policy the outgoing segment is fsynced before it is abandoned: the
// group-commit leader and the background flusher only ever fsync the
// CURRENT segment, so without this a record appended right before a
// rotation could be acknowledged by an fsync that never touched its
// file. Requires j.mu held.
func (j *Journal) rotateLocked() error {
	if j.f != nil && j.opts.Sync != SyncOS {
		if err := j.fsyncLocked(); err != nil {
			j.failed = err
			return err
		}
	}
	if err := j.openSegmentLocked(j.seg + 1); err != nil {
		return err
	}
	j.metrics.rotations.Inc()
	return nil
}

// WaitDurable blocks until every record appended up to and including
// seq is covered by an fsync, sharing the fsync across concurrent
// committers: the first waiter to find no fsync in flight becomes the
// leader and fsyncs once for every append that landed before it;
// followers just wait for the watermark to pass their sequence. Under
// SyncOS and SyncBackground it returns immediately — those policies do
// not promise fsync-on-acknowledge. seq 0 (no append) is a no-op.
//
// An fsync failure latches the journal for every current and future
// waiter: after a failed fsync the kernel may have dropped the dirty
// pages, so a retry that "succeeds" would not make the lost writes
// durable.
func (j *Journal) WaitDurable(seq uint64) error {
	if seq == 0 || j.opts.Sync != SyncAlways {
		return nil
	}
	j.gcMu.Lock()
	defer j.gcMu.Unlock()
	for {
		if j.gcErr != nil {
			return j.gcErr
		}
		if j.gcSynced >= seq {
			return nil
		}
		if j.gcSyncing {
			j.gcCond.Wait()
			continue
		}
		j.gcSyncing = true
		synced := j.gcSynced
		siblings := j.gcBatch > 1
		j.gcMu.Unlock()
		fsyncStart := time.Now()
		target, err := j.leaderFsync(synced, siblings)
		fsyncDur := time.Since(fsyncStart)
		j.gcMu.Lock()
		j.gcSyncing = false
		if err != nil {
			j.gcErr = err
		} else if target > j.gcSynced {
			j.gcBatch = target - j.gcSynced
			j.metrics.groupBatch.ObserveValue(j.gcBatch)
			// Lock-free record under gcMu: a scrape can never block the
			// group-commit cohort.
			j.rec.Load().Record(obs.EvGroupCommit, 0, fsyncDur, int64(j.gcBatch), 0)
			j.gcSynced = target
		} else {
			j.gcBatch = 0
		}
		j.gcCond.Broadcast()
	}
}

// Group-commit drain bounds: the leader yields the processor to let
// sibling committers land their appends, stopping after drainQuiet
// consecutive yields with no new append (the siblings have all landed
// or are busy elsewhere) or drainMaxYields total (so a firehose of
// async appenders cannot park a waiter forever).
const (
	drainQuiet     = 2
	drainMaxYields = 64
)

// leaderFsync performs one group fsync: everything appended before it
// (up to the returned sequence) is durable once it returns nil; synced
// is the watermark the caller read and siblings whether the previous
// batch was grouped — together they detect sibling committers.
// The fsync syscall runs OFF j.mu — this is what makes group commit a
// throughput win, because concurrent committers keep appending while
// the leader's fsync is in flight and form the next leader's batch;
// fsyncing under j.mu would serialize every append behind every fsync
// and cap the batch size at ~1.
//
// Appends that land mid-fsync are simply not covered: the returned
// sequence is captured before the fsync starts. If the segment is
// rotated or the journal closed while the fsync is in flight, the
// stale handle may report a failure — but both paths fsync the
// outgoing file before abandoning it (rotateLocked, Close), so a
// failure on a superseded generation is a success for this leader's
// target. (A failed CLOSE fsync latches gcErr, which outranks the
// durability watermark in WaitDurable.)
func (j *Journal) leaderFsync(synced uint64, siblings bool) (uint64, error) {
	f, gen, target, err := j.leaderTarget()
	if err != nil || f == nil {
		return target, err
	}
	if siblings || target > synced+1 {
		// Siblings in flight (visible appends beyond this leader's own,
		// or a grouped previous batch — the committers it acknowledged
		// are appending their next records right now): yield until the
		// append sequence goes quiet, so the whole cohort lands before
		// the one fsync that acknowledges it. This is PostgreSQL's
		// commit_delay idea with scheduler yields instead of a timed
		// park — a timer would round up to its granularity, and without
		// any pause batch formation depends on appends racing the fsync
		// syscall, which on a loaded single-core box yields batches of
		// ~1. A lone committer never pays the drain.
		for quiet, spins := 0, 0; quiet < drainQuiet && spins < drainMaxYields; spins++ {
			runtime.Gosched()
			f2, g2, t2, err := j.leaderTarget()
			if err != nil || f2 == nil {
				return t2, err
			}
			if t2 > target {
				quiet = 0
			} else {
				quiet++
			}
			f, gen, target = f2, g2, t2
		}
	}

	start := time.Now()
	serr := f.Sync()

	j.mu.Lock()
	defer j.mu.Unlock()
	if serr != nil {
		if j.gen == gen {
			j.failed = serr
			return 0, fmt.Errorf("wal: %w", serr)
		}
		// The segment was swapped mid-fsync; its generation's own fsync
		// already covered target.
		return target, nil
	}
	j.noteFsync(time.Since(start))
	return target, nil
}

// leaderTarget snapshots what the leader's fsync will cover: the
// current segment file, its swap generation and the last appended
// sequence. A nil file with nil error means the journal is closed —
// Close fsyncs before releasing the file, so everything appended
// before it is already durable.
func (j *Journal) leaderTarget() (f *os.File, gen, target uint64, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed != nil {
		return nil, 0, 0, fmt.Errorf("wal: journal failed: %w", j.failed)
	}
	if j.closed || j.f == nil {
		return nil, 0, j.writeSeq, nil
	}
	return j.f, j.gen, j.writeSeq, nil
}

// Sync fsyncs the current segment. A pending background-flusher
// failure is surfaced (and cleared) here, like on Append — the caller
// learns about degraded durability at the next explicit barrier, not
// only at Close.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.syncErr; err != nil {
		j.syncErr = nil
		return fmt.Errorf("wal: background fsync failed: %w", err)
	}
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if j.closed || j.f == nil {
		return nil
	}
	return j.fsyncLocked()
}

// fsyncLocked fsyncs the current segment, counting the call and its
// latency. Requires j.mu held and j.f open.
func (j *Journal) fsyncLocked() error {
	start := time.Now()
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	j.noteFsync(time.Since(start))
	return nil
}

// syncLoop is the SyncBackground flusher.
func (j *Journal) syncLoop() {
	t := time.NewTicker(j.opts.syncEvery())
	defer t.Stop()
	for {
		select {
		case <-t.C:
			j.mu.Lock()
			if err := j.syncLocked(); err != nil && j.syncErr == nil {
				j.syncErr = err
			}
			j.mu.Unlock()
		case <-j.stopSync:
			return
		}
	}
}

// CheckpointPin marks the point in the log a checkpoint will
// supersede. BeginCheckpoint rotates the log so the pin's segment
// becomes the new tail watermark: every record journaled before the
// pin is absorbed by the checkpoint, every later one lands at or past
// the watermark. The pin itself is O(1); the expensive encode and file
// install happen later, in InstallCheckpoint, off the caller's locks.
type CheckpointPin struct {
	seg uint64
	ok  bool
}

// ErrCheckpointSuperseded reports that a newer checkpoint was
// installed after this pin was taken: installing the pinned (older)
// state would move the recovery base backwards, so it is skipped.
// Callers treat it as success — the newer checkpoint absorbs strictly
// more of the log.
var ErrCheckpointSuperseded = errors.New("wal: checkpoint superseded by a newer one")

// BeginCheckpoint pins the log position for a checkpoint of the
// caller's current state: it rotates to a fresh segment (the new tail
// watermark). The caller then
// serializes its pinned state and hands both to InstallCheckpoint —
// typically from a background goroutine, off the lock the state was
// pinned under.
func (j *Journal) BeginCheckpoint() (CheckpointPin, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return CheckpointPin{}, fmt.Errorf("wal: journal closed")
	}
	if !j.replayed {
		return CheckpointPin{}, fmt.Errorf("wal: checkpoint before Replay")
	}
	if j.failed != nil {
		return CheckpointPin{}, fmt.Errorf("wal: journal failed: %w", j.failed)
	}
	if err := j.rotateLocked(); err != nil {
		return CheckpointPin{}, err
	}
	return CheckpointPin{seg: j.seg, ok: true}, nil
}

// InstallCheckpoint durably installs ck — the state pinned by
// BeginCheckpoint — as the new recovery base: the checkpoint file is
// written and renamed into place, then the files it supersedes (the
// old checkpoint, the absorbed segments) are removed. The encode and
// file write run without holding j.mu, so appends proceed concurrently
// with the install; only the bookkeeping and removals run under it.
// Callers must serialize InstallCheckpoint calls among themselves (the
// store layer's checkpoint worker does). A pin that a newer install
// overtook returns ErrCheckpointSuperseded and changes nothing.
//
// Kill-point safety: a crash before the rename leaves the old
// checkpoint plus the full log — recovery as if the install never
// started. A crash after the rename but before the removals leaves
// both checkpoints; the next Open picks the newer one and sweeps the
// rest. The trailing directory fsync orders the removals against the
// rename.
func (j *Journal) InstallCheckpoint(pin CheckpointPin, ck *Checkpoint) error {
	start := time.Now()
	if !pin.ok {
		return fmt.Errorf("wal: InstallCheckpoint without a pin")
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return fmt.Errorf("wal: journal closed")
	}
	if pin.seg <= j.ckSeg {
		j.mu.Unlock()
		return ErrCheckpointSuperseded
	}
	next := j.ckIndex + 1
	hook := j.installHook
	j.mu.Unlock()

	c := *ck
	c.firstSegment = pin.seg
	if hook != nil {
		hook("encode")
	}
	path := filepath.Join(j.dir, ckptName(next))
	if err := saveCheckpointFile(path, &c); err != nil {
		return err
	}
	if hook != nil {
		hook("installed")
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("wal: journal closed")
	}
	if pin.seg <= j.ckSeg {
		os.Remove(path)
		return ErrCheckpointSuperseded
	}
	old, oldSeg := j.ckIndex, j.ckSeg
	j.ck, j.ckIndex, j.ckSeg = &c, next, pin.seg
	// Truncate: everything the new checkpoint supersedes. A crash
	// before these removals leaves garbage that the next Open sweeps.
	if old != 0 || oldSeg != j.ckSeg {
		os.Remove(filepath.Join(j.dir, ckptName(old)))
	}
	if hook != nil {
		hook("removed-ckpt")
	}
	for _, i := range j.segmentIndexes() {
		if i < j.ckSeg {
			os.Remove(filepath.Join(j.dir, segName(i)))
		}
	}
	if hook != nil {
		hook("removed-segs")
	}
	if err := syncDir(j.dir); err != nil {
		return err
	}
	j.metrics.checkpoints.Inc()
	j.metrics.ckptLat.Observe(time.Since(start))
	return nil
}

// HasData reports whether the journal directory already holds durable
// state — a checkpoint or at least one intact record. It reads at most
// one frame per segment file (almost always exactly one), never the
// whole log: it is the bootstrap guard's probe, not a replay.
func (j *Journal) HasData() (bool, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.ck != nil {
		return true, nil
	}
	for _, i := range j.segmentIndexes() {
		ok, err := segmentHasRecord(filepath.Join(j.dir, segName(i)))
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// segmentHasRecord reports whether the segment file starts with an
// intact frame — magic, one frame header, one CRC-valid payload.
func segmentHasRecord(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	hdr := make([]byte, len(segMagic)+frameHeader)
	if _, err := io.ReadFull(f, hdr); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return false, nil // empty or torn before the first frame
		}
		return false, fmt.Errorf("wal: %w", err)
	}
	if string(hdr[:len(segMagic)]) != segMagic {
		return false, nil
	}
	size := binary.LittleEndian.Uint32(hdr[len(segMagic):])
	crc := binary.LittleEndian.Uint32(hdr[len(segMagic)+4:])
	if size == 0 || size > maxFrame {
		return false, nil
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(f, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return false, nil // torn first frame: no intact record
		}
		return false, fmt.Errorf("wal: %w", err)
	}
	return crc32.Checksum(payload, crcTable) == crc, nil
}

// Close flushes and releases the journal. The directory remains fully
// recoverable — Close writes no checkpoint.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	if j.stopSync != nil {
		close(j.stopSync)
	}
	var err error
	if j.f != nil {
		err = j.f.Sync()
		if cerr := j.f.Close(); err == nil {
			err = cerr
		}
		j.f = nil
		j.gen++
	}
	if err == nil {
		err = j.syncErr
	}
	// Release group-commit waiters: the final fsync above covered every
	// append, or its failure is latched for them. (gcMu under j.mu is
	// safe — no one holds gcMu while acquiring j.mu.)
	j.gcMu.Lock()
	if err == nil {
		j.gcSynced = j.writeSeq
	} else if j.gcErr == nil {
		j.gcErr = fmt.Errorf("wal: close: %w", err)
	}
	j.gcCond.Broadcast()
	j.gcMu.Unlock()
	j.mu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}

// writeFileAtomic writes data to path via a temporary file and rename,
// fsyncing the file so the rename installs complete content.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("wal: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("wal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("wal: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames, creations and removals inside
// it are ordered against the data they commit — without it, an OS
// crash can persist a segment unlink while losing the checkpoint
// rename that superseded it.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}
