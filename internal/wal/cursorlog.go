package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
)

// CursorLog is the monitor's durable position on disk: a base state
// (one full cursor frame) followed by deltas — version advances plus
// the states of only the subscriptions that changed — so a CursorEvery
// auto-save costs O(changed result sets), not O(total result-set
// size). When the accumulated deltas outgrow the base the log compacts:
// the current state is rewritten as a fresh base via the usual
// temp-file + rename.
//
// Frames reuse the segment framing ([len][crc32c][payload]); replay
// stops at the first torn frame and truncates back to the last intact
// one, exactly like record segments, so a crash mid-append loses at
// most the deltas that had not finished writing — the cursor then
// points a little earlier and the resume delta is a little larger,
// which is correct by construction. Delta appends are NOT fsynced
// (compactions are, through the rename path): the cursor is a resume
// optimization, and an OS crash costs a larger resume delta, never a
// wrong one.
type CursorLog struct {
	path string

	mu          sync.Mutex
	f           *os.File
	buf         []byte // scratch encode buffer
	closed      bool
	fullBytes   int64  // size of the base frame (0: none yet)
	deltaBytes  int64  // delta bytes since the base frame
	deltaTotal  uint64 // cumulative delta bytes ever appended (metric)
	compactions uint64
}

const (
	curlMagic = "ppcurl\x01\n"

	cursorFrameFull  = 1
	cursorFrameDelta = 2

	// cursorCompactMin is the floor of the compaction threshold: deltas
	// below it never trigger a rewrite, however small the base is.
	cursorCompactMin = 4096
)

// CursorDelta is one incremental cursor advance: the new watermark
// plus the named subscriptions whose state changed since the last save
// (Upserts) and the names forgotten since then (Deletes).
type CursorDelta struct {
	Version uint64
	VV      []uint64
	Upserts []CursorSub
	Deletes []string
}

// OpenCursorLog opens (or creates) the cursor log at path and replays
// it into the current cursor state — nil when the log holds none yet.
// A torn tail is truncated back to the last intact frame; a file that
// is not a cursor log is an error.
func OpenCursorLog(path string) (*CursorLog, *Cursor, error) {
	l := &CursorLog{path: path}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		data = nil
	} else if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	var state *Cursor
	switch {
	case len(data) == 0:
		// Fresh (or empty) log: the first save writes the base frame.
	case len(data) >= len(curlMagic) && string(data[:len(curlMagic)]) == curlMagic:
		state, err = l.replay(data)
		if err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("wal: %s is not a cursor file", path)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	if len(data) == 0 {
		if _, err := f.Write([]byte(curlMagic)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
	}
	l.f = f
	return l, state, nil
}

// CreateCursorLog replaces whatever is at path with a log whose base
// frame holds c, and returns it open for appending — the self-heal of a
// cursor file that would not open.
func CreateCursorLog(path string, c *Cursor) (*CursorLog, error) {
	l := &CursorLog{path: path}
	if err := l.rewriteLocked(c); err != nil {
		return nil, err
	}
	return l, nil
}

// replay folds the log's intact frames into the cursor state and
// truncates a torn tail.
func (l *CursorLog) replay(data []byte) (*Cursor, error) {
	var state *Cursor
	off := int64(len(curlMagic))
	rest := data[len(curlMagic):]
	for {
		payload, n := nextFrame(rest)
		if payload == nil {
			break
		}
		intact := true
		switch payload[0] {
		case cursorFrameFull:
			c, err := decodeCursor(payload[1:])
			if err != nil {
				intact = false
				break
			}
			state = c
			l.fullBytes = int64(n)
			l.deltaBytes = 0
		case cursorFrameDelta:
			d, err := decodeCursorDelta(payload[1:])
			if err != nil {
				intact = false
				break
			}
			state = applyCursorDelta(state, d)
			l.deltaBytes += int64(n)
		default:
			intact = false
		}
		if !intact {
			break // undecodable payload behind a valid CRC: treat as torn
		}
		off += int64(n)
		rest = rest[n:]
	}
	if off < int64(len(data)) {
		if err := os.Truncate(l.path, off); err != nil {
			return nil, fmt.Errorf("wal: truncating torn cursor tail: %w", err)
		}
	}
	return state, nil
}

// AppendDelta appends one incremental advance. The write is a single
// contiguous call (torn tails heal on open) and is not fsynced — see
// the type comment for the durability trade.
func (l *CursorLog) AppendDelta(d *CursorDelta) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: cursor log closed")
	}
	l.buf = append(l.buf[:0], cursorFrameDelta)
	payload, err := appendCursorDelta(l.buf, d)
	if err != nil {
		return err
	}
	l.buf = payload
	n, err := l.writeFrameLocked(payload)
	if err != nil {
		return err
	}
	l.deltaBytes += int64(n)
	l.deltaTotal += uint64(n)
	return nil
}

// WriteFull rewrites the log as a single base frame holding c — the
// compaction step, and the shape of the very first save. The rewrite
// is atomic (temp file + rename + fsync).
func (l *CursorLog) WriteFull(c *Cursor) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: cursor log closed")
	}
	if l.fullBytes > 0 || l.deltaBytes > 0 {
		l.compactions++
	}
	return l.rewriteLocked(c)
}

// rewriteLocked replaces the file with magic + one base frame and
// reopens it for appending.
func (l *CursorLog) rewriteLocked(c *Cursor) error {
	payload, err := appendCursor([]byte{cursorFrameFull}, c)
	if err != nil {
		return err
	}
	data := sealBlob(curlMagic, append(startBlob(curlMagic, len(payload)), payload...))
	if err := writeFileAtomic(l.path, data); err != nil {
		return err
	}
	if l.f != nil {
		l.f.Close()
	}
	f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		l.f = nil
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.fullBytes = int64(frameHeader + len(payload))
	l.deltaBytes = 0
	return nil
}

// writeFrameLocked frames and appends one payload, returning the bytes
// written.
func (l *CursorLog) writeFrameLocked(payload []byte) (int, error) {
	frame := appendFrame(make([]byte, 0, frameHeader+len(payload)), payload)
	if _, err := l.f.Write(frame); err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	return len(frame), nil
}

// appendFrame appends [len][crc][payload] to buf.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// ShouldCompact reports whether the next save should rewrite the base
// instead of appending another delta: there is no base yet, or the
// deltas outgrew it (2x, floored at cursorCompactMin so tiny bases do
// not thrash).
func (l *CursorLog) ShouldCompact() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.fullBytes == 0 {
		return true
	}
	threshold := 2 * l.fullBytes
	if threshold < cursorCompactMin {
		threshold = cursorCompactMin
	}
	return l.deltaBytes >= threshold
}

// DeltaBytes returns the cumulative delta bytes ever appended — the
// cursor-save write volume the delta format actually paid, surfaced as
// cq.cursor.delta_bytes.
func (l *CursorLog) DeltaBytes() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.deltaTotal
}

// Compactions returns the number of base rewrites triggered by
// ShouldCompact-guided saves.
func (l *CursorLog) Compactions() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.compactions
}

// Close releases the log file.
func (l *CursorLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// appendCursorDelta encodes one delta payload (after the kind byte).
func appendCursorDelta(buf []byte, d *CursorDelta) ([]byte, error) {
	buf = binary.AppendUvarint(buf, d.Version)
	buf = binary.AppendUvarint(buf, uint64(len(d.VV)))
	for _, v := range d.VV {
		buf = binary.AppendUvarint(buf, v)
	}
	buf = binary.AppendUvarint(buf, uint64(len(d.Upserts)))
	for i := range d.Upserts {
		var err error
		if buf, err = appendCursorSub(buf, &d.Upserts[i]); err != nil {
			return nil, err
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(d.Deletes)))
	for _, name := range d.Deletes {
		if len(name) == 0 || len(name) > maxCursorName {
			return nil, fmt.Errorf("wal: cursor delta delete name length %d", len(name))
		}
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
	}
	return buf, nil
}

// decodeCursorDelta decodes one delta payload.
func decodeCursorDelta(b []byte) (*CursorDelta, error) {
	d := decoder{b: b}
	cd := &CursorDelta{}
	cd.Version = d.uvarint()
	nvv := d.count("version vector", 1)
	if d.err != nil {
		return nil, d.err
	}
	if nvv > 0 {
		cd.VV = make([]uint64, nvv)
		for i := range cd.VV {
			cd.VV[i] = d.uvarint()
		}
	}
	nup := d.count("delta upsert", 4)
	if d.err != nil {
		return nil, d.err
	}
	if nup > 0 {
		cd.Upserts = make([]CursorSub, nup)
	}
	for i := range cd.Upserts {
		if err := decodeCursorSub(&d, &cd.Upserts[i]); err != nil {
			return nil, err
		}
	}
	ndel := d.count("delta delete", 1)
	if d.err != nil {
		return nil, d.err
	}
	for i := uint64(0); i < uint64(ndel); i++ {
		nameLen := d.count("name byte", 1)
		if d.err == nil && (nameLen == 0 || nameLen > maxCursorName) {
			d.fail("cursor delta delete name length %d", nameLen)
		}
		if d.err != nil {
			return nil, d.err
		}
		cd.Deletes = append(cd.Deletes, string(d.b[:nameLen]))
		d.b = d.b[nameLen:]
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes after cursor delta", len(d.b))
	}
	return cd, nil
}

// applyCursorDelta folds one delta into the cursor state (nil grows a
// fresh one): watermark replaced, upserts replace-or-append by name,
// deletes remove.
func applyCursorDelta(c *Cursor, d *CursorDelta) *Cursor {
	if c == nil {
		c = &Cursor{}
	}
	c.Version = d.Version
	c.VV = d.VV
	for i := range d.Upserts {
		up := d.Upserts[i]
		replaced := false
		for k := range c.Subs {
			if c.Subs[k].Name == up.Name {
				c.Subs[k] = up
				replaced = true
				break
			}
		}
		if !replaced {
			c.Subs = append(c.Subs, up)
		}
	}
	for _, name := range d.Deletes {
		for k := range c.Subs {
			if c.Subs[k].Name == name {
				c.Subs = append(c.Subs[:k], c.Subs[k+1:]...)
				break
			}
		}
	}
	return c
}
