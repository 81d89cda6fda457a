package wal

import (
	"encoding/binary"
	"fmt"

	"probprune/internal/uncertain"
)

// Cursor is a continuous-query monitor's durable position: the store
// version (and, for sharded sources, the version vector) its
// subscriptions have been delivered through, plus each named
// subscription's result set at that version. A restarted monitor
// re-subscribes under the same names and receives exactly the delta
// between the cursor and the recovered store head instead of the full
// result set — resumption from the last delivered version, not from
// genesis.
type Cursor struct {
	// Version is the last store version fully delivered to subscribers.
	Version uint64
	// VV is the per-shard version vector at Version for sharded
	// sources, nil otherwise.
	VV []uint64
	// Subs holds the named subscriptions' states.
	Subs []CursorSub
}

// CursorSub is one named subscription's durable state.
type CursorSub struct {
	// Name is the client-chosen durable identity.
	Name string
	// Kind is the predicate kind (the cq package's Kind).
	Kind uint8
	// K is the kNN parameter.
	K int
	// Tau is the probability threshold.
	Tau float64
	// Q is the query reference object — part of the predicate, so a
	// resume under the same name with a different query object can be
	// rejected instead of silently delivering a wrong delta.
	Q *uncertain.Object
	// Entries is the result set at Cursor.Version: every object
	// currently satisfying the predicate, with its probability bounds.
	Entries []CursorEntry
}

// CursorEntry is one result-set member. The full object is persisted —
// not just the ID — so a resumed subscription can emit an ObjectLeft
// event for an object that was deleted while the monitor was down.
type CursorEntry struct {
	Obj        *uncertain.Object
	LB, UB     float64
	Iterations int
}

const maxCursorName = 1 << 12

// appendCursor encodes the cursor payload.
func appendCursor(buf []byte, c *Cursor) ([]byte, error) {
	buf = binary.AppendUvarint(buf, c.Version)
	buf = binary.AppendUvarint(buf, uint64(len(c.VV)))
	for _, v := range c.VV {
		buf = binary.AppendUvarint(buf, v)
	}
	buf = binary.AppendUvarint(buf, uint64(len(c.Subs)))
	for _, s := range c.Subs {
		var err error
		if buf, err = appendCursorSub(buf, &s); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// appendCursorSub encodes one named subscription's state — the unit
// both the full cursor payload and the delta frames are built from.
func appendCursorSub(buf []byte, s *CursorSub) ([]byte, error) {
	if len(s.Name) == 0 || len(s.Name) > maxCursorName {
		return nil, fmt.Errorf("wal: cursor subscription name length %d", len(s.Name))
	}
	if s.Q == nil {
		return nil, fmt.Errorf("wal: cursor subscription %q without query object", s.Name)
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.Name)))
	buf = append(buf, s.Name...)
	buf = append(buf, s.Kind)
	buf = binary.AppendUvarint(buf, uint64(s.K))
	buf = appendFloat(buf, s.Tau)
	buf = uncertain.AppendObject(buf, s.Q)
	buf = binary.AppendUvarint(buf, uint64(len(s.Entries)))
	for _, e := range s.Entries {
		if e.Obj == nil {
			return nil, fmt.Errorf("wal: cursor entry without object")
		}
		buf = uncertain.AppendObject(buf, e.Obj)
		buf = appendFloat(buf, e.LB)
		buf = appendFloat(buf, e.UB)
		buf = binary.AppendUvarint(buf, uint64(e.Iterations))
	}
	return buf, nil
}

// decodeCursor decodes a cursor payload.
func decodeCursor(b []byte) (*Cursor, error) {
	d := decoder{b: b}
	c := &Cursor{}
	c.Version = d.uvarint()
	nvv := d.count("version vector", 1)
	if d.err != nil {
		return nil, d.err
	}
	if nvv > 0 {
		c.VV = make([]uint64, nvv)
		for i := range c.VV {
			c.VV[i] = d.uvarint()
		}
	}
	nsubs := d.count("subscription", 4)
	if d.err != nil {
		return nil, d.err
	}
	if nsubs > 0 {
		c.Subs = make([]CursorSub, nsubs)
	}
	for i := range c.Subs {
		if err := decodeCursorSub(&d, &c.Subs[i]); err != nil {
			return nil, err
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes after cursor", len(d.b))
	}
	return c, nil
}

// decodeCursorSub decodes one named subscription's state into s.
func decodeCursorSub(d *decoder, s *CursorSub) error {
	nameLen := d.count("name byte", 1)
	if d.err == nil && (nameLen == 0 || nameLen > maxCursorName) {
		d.fail("cursor subscription name length %d", nameLen)
	}
	if d.err != nil {
		return d.err
	}
	s.Name = string(d.b[:nameLen])
	d.b = d.b[nameLen:]
	s.Kind = d.byte()
	s.K = int(d.uvarint())
	s.Tau = d.float()
	s.Q = d.object()
	if d.err != nil {
		return d.err
	}
	ne := d.count("entry", 8)
	if d.err != nil {
		return d.err
	}
	if ne == 0 {
		s.Entries = nil
		return nil
	}
	s.Entries = make([]CursorEntry, ne)
	for k := range s.Entries {
		e := &s.Entries[k]
		e.Obj = d.object()
		e.LB = d.float()
		e.UB = d.float()
		e.Iterations = int(d.uvarint())
		if d.err != nil {
			return d.err
		}
	}
	return nil
}
