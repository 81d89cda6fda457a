package wal

import (
	"encoding/binary"
	"fmt"
	"math"

	"probprune/internal/geom"
	"probprune/internal/uncertain"
)

// Op identifies the mutation a WAL record journals.
type Op uint8

const (
	// OpInsert: a new object entered the store.
	OpInsert Op = iota + 1
	// OpUpdate: the object carrying the record's ID was replaced.
	OpUpdate
	// OpDelete: an object left the store.
	OpDelete
	// OpMoveIn: an object physically arrived on this shard from another
	// (sharded stores only). The logical database is unchanged — move
	// records carry the router epoch they happened under but are
	// excluded from global-order replay.
	OpMoveIn
	// OpMoveOut: an object physically left this shard for another.
	OpMoveOut
)

// String returns a short human-readable op name.
func (op Op) String() string {
	switch op {
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	case OpMoveIn:
		return "move-in"
	case OpMoveOut:
		return "move-out"
	default:
		return "unknown"
	}
}

// Logical reports whether the op changes the logical database (as
// opposed to physically re-homing an object between shards).
func (op Op) Logical() bool {
	return op == OpInsert || op == OpUpdate || op == OpDelete
}

// Record is one journaled store mutation. Obj is set for
// OpInsert/OpUpdate/OpMoveIn (the post-mutation object), ID for
// OpDelete/OpMoveOut.
type Record struct {
	// Op is the mutation kind.
	Op Op
	// Version is the owning store's mutation epoch AFTER applying the
	// record; replay validates it is exactly one past the current epoch.
	Version uint64
	// Global is the store epoch after the commit when the journal is one
	// shard of a multi-shard store, zero otherwise. Merging the shards'
	// logical records by Global reconstructs the store's global
	// insertion order exactly.
	Global uint64
	// ID is the mutated object's ID for the body-less ops
	// (OpDelete/OpMoveOut); other ops carry the object itself.
	ID int
	// Obj is the post-mutation object (OpInsert/OpUpdate/OpMoveIn).
	Obj *uncertain.Object
}

// ObjectID returns the ID of the object the record concerns, whichever
// field carries it.
func (r Record) ObjectID() int {
	if r.Obj != nil {
		return r.Obj.ID
	}
	return r.ID
}

// appendRecord encodes r onto buf (payload only — framing and CRC are
// the segment writer's job).
func appendRecord(buf []byte, r Record) ([]byte, error) {
	buf = append(buf, byte(r.Op))
	buf = binary.AppendUvarint(buf, r.Version)
	buf = binary.AppendUvarint(buf, r.Global)
	switch r.Op {
	case OpInsert, OpUpdate, OpMoveIn:
		if r.Obj == nil {
			return nil, fmt.Errorf("wal: %v record without object", r.Op)
		}
		return uncertain.AppendObject(buf, r.Obj), nil
	case OpDelete, OpMoveOut:
		return binary.AppendVarint(buf, int64(r.ID)), nil
	default:
		return nil, fmt.Errorf("wal: unknown op %d", r.Op)
	}
}

// decodeRecord decodes one record payload produced by appendRecord.
func decodeRecord(b []byte) (Record, error) {
	d := decoder{b: b}
	var r Record
	r.Op = Op(d.byte())
	r.Version = d.uvarint()
	r.Global = d.uvarint()
	switch r.Op {
	case OpInsert, OpUpdate, OpMoveIn:
		r.Obj = d.object()
	case OpDelete, OpMoveOut:
		r.ID = int(d.varint())
	default:
		return Record{}, fmt.Errorf("wal: unknown op %d", r.Op)
	}
	if d.err != nil {
		return Record{}, d.err
	}
	if len(d.b) != 0 {
		return Record{}, fmt.Errorf("wal: %d trailing bytes after record", len(d.b))
	}
	return r, nil
}

func appendRect(buf []byte, r geom.Rect) []byte {
	for _, c := range r.Min {
		buf = appendFloat(buf, c)
	}
	for _, c := range r.Max {
		buf = appendFloat(buf, c)
	}
	return buf
}

func appendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// decoder is a cursor over an untrusted payload; the first failure
// latches err and every later read returns zero values.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wal: "+format, args...)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || len(d.b) == 0 {
		d.fail("truncated payload")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// count reads a length prefix and validates that `width` bytes per
// element could still follow, bounding any allocation by the input size.
func (d *decoder) count(what string, width int) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if width > 0 && v > uint64(len(d.b)/width) {
		d.fail("%s count %d exceeds remaining input", what, v)
		return 0
	}
	return int(v)
}

func (d *decoder) point(dim int) geom.Point {
	p := make(geom.Point, dim)
	for i := range p {
		p[i] = d.float()
	}
	return p
}

func (d *decoder) rect(dim int) geom.Rect {
	return geom.Rect{Min: d.point(dim), Max: d.point(dim)}
}

// object decodes an object in the shared object codec
// (uncertain.DecodeObject), which validates it but keeps it
// bit-identical to the encoded one.
func (d *decoder) object() *uncertain.Object {
	if d.err != nil {
		return nil
	}
	o, n, err := uncertain.DecodeObject(d.b)
	if err != nil {
		d.err = fmt.Errorf("wal: %w", err)
		return nil
	}
	d.b = d.b[n:]
	return o
}
