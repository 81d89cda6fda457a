// Package ops is the benchmark's own view of the udbserver wire
// protocol and its seeded op lists. It is written from docs/PROTOCOL.md
// alone and imports nothing from the repository, so the end-to-end
// harness keeps building when a Go API behind the wire is reshaped.
// The in-process traced run (benchmark/layers) imports it too, which is
// what makes both passes replay the same ops.
package ops

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
)

// Frame type markers of docs/PROTOCOL.md.
const (
	TSimple = '+'
	TError  = '-'
	TInt    = ':'
	TBulk   = '$'
	TArray  = '*'
	TPush   = '>'
)

// Command appends the canonical array-of-bulks form of one command.
func Command(dst []byte, args ...[]byte) []byte {
	dst = append(dst, TArray)
	dst = strconv.AppendInt(dst, int64(len(args)), 10)
	dst = append(dst, '\r', '\n')
	for _, a := range args {
		dst = append(dst, TBulk)
		dst = strconv.AppendInt(dst, int64(len(a)), 10)
		dst = append(dst, '\r', '\n')
		dst = append(dst, a...)
		dst = append(dst, '\r', '\n')
	}
	return dst
}

// CommandStr is Command over string arguments.
func CommandStr(dst []byte, args ...string) []byte {
	b := make([][]byte, len(args))
	for i, a := range args {
		b[i] = []byte(a)
	}
	return Command(dst, b...)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Skimmer consumes reply frames without building them: it parses only
// the header lines it needs to find each frame's end and folds every
// byte into a CRC32C, so the load generator pays a checksum per reply
// instead of ten thousand decoded matches.
type Skimmer struct {
	r        io.Reader
	buf      []byte
	pos, end int
	mark     int // buf[mark:pos] is consumed but not yet folded
	crc      uint32
	keep     bool
	raw      []byte
	// Bytes counts every byte consumed since construction.
	Bytes int64
}

// NewSkimmer reads frames from r.
func NewSkimmer(r io.Reader) *Skimmer {
	return &Skimmer{r: r, buf: make([]byte, 256<<10)}
}

// fold moves the consumed-but-unfolded region into the checksum (and
// the raw copy, when the frame is kept).
func (s *Skimmer) fold() {
	if s.mark < s.pos {
		s.crc = crc32.Update(s.crc, castagnoli, s.buf[s.mark:s.pos])
		if s.keep {
			s.raw = append(s.raw, s.buf[s.mark:s.pos]...)
		}
		s.mark = s.pos
	}
}

func (s *Skimmer) fill() error {
	s.fold()
	if s.pos > 0 {
		copy(s.buf, s.buf[s.pos:s.end])
		s.end -= s.pos
		s.pos, s.mark = 0, 0
	}
	if s.end == len(s.buf) {
		return errors.New("wire: header line longer than the read buffer")
	}
	n, err := s.r.Read(s.buf[s.end:])
	s.end += n
	if n > 0 {
		return nil
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return err
}

// line consumes one CRLF-terminated header line and returns it without
// the terminator; the slice is valid until the next call.
func (s *Skimmer) line() ([]byte, error) {
	from := s.pos
	for {
		for i := from; i < s.end; i++ {
			if s.buf[i] == '\n' {
				ln := s.buf[s.pos:i]
				s.Bytes += int64(i + 1 - s.pos)
				s.pos = i + 1
				if n := len(ln); n > 0 && ln[n-1] == '\r' {
					ln = ln[:n-1]
				}
				return ln, nil
			}
		}
		scanned := s.end - s.pos
		if err := s.fill(); err != nil {
			return nil, err
		}
		from = s.pos + scanned
	}
}

func (s *Skimmer) skip(n int) error {
	for n > 0 {
		if s.pos == s.end {
			if err := s.fill(); err != nil {
				return err
			}
		}
		take := min(s.end-s.pos, n)
		s.pos += take
		s.Bytes += int64(take)
		n -= take
	}
	return nil
}

func (s *Skimmer) frame(depth int) (byte, error) {
	if depth > 8 {
		return 0, errors.New("wire: frame nesting deeper than 8")
	}
	ln, err := s.line()
	if err != nil {
		return 0, err
	}
	if len(ln) == 0 {
		return 0, errors.New("wire: empty header line")
	}
	typ := ln[0]
	switch typ {
	case TSimple, TError, TInt:
	case TBulk:
		n, err := strconv.Atoi(string(ln[1:]))
		if err != nil || n < -1 {
			return 0, fmt.Errorf("wire: bad bulk length %q", ln)
		}
		if n >= 0 {
			if err := s.skip(n + 2); err != nil {
				return 0, err
			}
		}
	case TArray, TPush:
		n, err := strconv.Atoi(string(ln[1:]))
		if err != nil || n < -1 {
			return 0, fmt.Errorf("wire: bad array length %q", ln)
		}
		for i := 0; i < n; i++ {
			if _, err := s.frame(depth + 1); err != nil {
				return 0, err
			}
		}
	default:
		return 0, fmt.Errorf("wire: unexpected type byte %q", typ)
	}
	return typ, nil
}

// Reply is what the skimmer learned about one top-level frame.
type Reply struct {
	Type  byte   // the frame's type marker
	CRC   uint32 // CRC32C of the frame's bytes
	Bytes int    // the frame's size on the wire
	Raw   []byte // the frame's bytes, when kept; valid until the next call
}

// Next consumes one top-level frame. With keep it also returns the
// frame's bytes, for Decode.
func (s *Skimmer) Next(keep bool) (Reply, error) {
	s.fold()
	s.crc, s.keep, s.raw = 0, keep, s.raw[:0]
	start := s.Bytes
	typ, err := s.frame(0)
	if err != nil {
		return Reply{}, err
	}
	s.fold()
	return Reply{Type: typ, CRC: s.crc, Bytes: int(s.Bytes - start), Raw: s.raw}, nil
}

// Value is one fully decoded frame.
type Value struct {
	Type  byte
	Int   int64   // TInt
	Str   []byte  // TSimple, TError, TBulk
	Elems []Value // TArray, TPush
	Null  bool
}

// Decode parses one frame from b and returns the remainder.
func Decode(b []byte) (Value, []byte, error) {
	i := 0
	for i < len(b) && b[i] != '\n' {
		i++
	}
	if i == len(b) || i == 0 {
		return Value{}, nil, errors.New("wire: truncated frame")
	}
	ln, rest := b[:i], b[i+1:]
	if ln[len(ln)-1] == '\r' {
		ln = ln[:len(ln)-1]
	}
	if len(ln) == 0 {
		return Value{}, nil, errors.New("wire: empty header line")
	}
	v := Value{Type: ln[0]}
	switch v.Type {
	case TSimple, TError:
		v.Str = ln[1:]
	case TInt:
		n, err := strconv.ParseInt(string(ln[1:]), 10, 64)
		if err != nil {
			return Value{}, nil, fmt.Errorf("wire: bad integer %q", ln)
		}
		v.Int = n
	case TBulk:
		n, err := strconv.Atoi(string(ln[1:]))
		if err != nil || n < -1 || n+2 > len(rest) {
			return Value{}, nil, fmt.Errorf("wire: bad bulk length %q", ln)
		}
		if n < 0 {
			v.Null = true
			break
		}
		v.Str, rest = rest[:n], rest[n+2:]
	case TArray, TPush:
		n, err := strconv.Atoi(string(ln[1:]))
		if err != nil || n < -1 {
			return Value{}, nil, fmt.Errorf("wire: bad array length %q", ln)
		}
		if n < 0 {
			v.Null = true
			break
		}
		v.Elems = make([]Value, n)
		for j := range v.Elems {
			var err error
			if v.Elems[j], rest, err = Decode(rest); err != nil {
				return Value{}, nil, err
			}
		}
	default:
		return Value{}, nil, fmt.Errorf("wire: unexpected type byte %q", v.Type)
	}
	return v, rest, nil
}

// Match is one candidate's outcome in a threshold query reply.
type Match struct {
	ID         int
	LB, UB     float64
	IsResult   bool
	Decided    bool
	Iterations int
}

func matchFrom(el []Value) (Match, error) {
	if len(el) != 6 || el[0].Type != TInt || el[1].Type != TBulk || el[2].Type != TBulk ||
		el[3].Type != TInt || el[4].Type != TInt || el[5].Type != TInt {
		return Match{}, errors.New("wire: match is not [:id $lb $ub :isresult :decided :iterations]")
	}
	lb, err := strconv.ParseFloat(string(el[1].Str), 64)
	if err != nil {
		return Match{}, fmt.Errorf("wire: bad lower bound %q", el[1].Str)
	}
	ub, err := strconv.ParseFloat(string(el[2].Str), 64)
	if err != nil {
		return Match{}, fmt.Errorf("wire: bad upper bound %q", el[2].Str)
	}
	return Match{ID: int(el[0].Int), LB: lb, UB: ub,
		IsResult: el[3].Int != 0, Decided: el[4].Int != 0, Iterations: int(el[5].Int)}, nil
}

// Matches interprets a query reply.
func Matches(v Value) ([]Match, error) {
	if v.Type != TArray || v.Null {
		return nil, fmt.Errorf("wire: want a matches array, got %q %s", v.Type, v.Str)
	}
	ms := make([]Match, len(v.Elems))
	for i, el := range v.Elems {
		m, err := matchFrom(el.Elems)
		if err != nil {
			return nil, err
		}
		ms[i] = m
	}
	return ms, nil
}

// Check applies the invariants every threshold-query match must hold
// whatever the engine did to produce it: probability bounds are
// ordered inside [0,1], a decided candidate is on one side of tau, and
// a result's lower bound reaches tau.
func (m Match) Check(tau float64) error {
	switch {
	case !(0 <= m.LB && m.LB <= m.UB && m.UB <= 1):
		return fmt.Errorf("match %d: bounds [%g,%g] not ordered in [0,1]", m.ID, m.LB, m.UB)
	case m.Decided && !(m.LB >= tau || m.UB < tau):
		return fmt.Errorf("match %d: decided with [%g,%g] straddling tau %g", m.ID, m.LB, m.UB, tau)
	case m.IsResult && m.LB < tau:
		return fmt.Errorf("match %d: result with lower bound %g below tau %g", m.ID, m.LB, tau)
	}
	return nil
}

// Trace is the 11-integer trace frame of a TRACE-flagged command.
type Trace struct {
	Candidates, Preselected, Refined, Undecided, Iterations int64
	CacheHits, CacheMisses                                  int64
	PrepareNs, EvalNs, WALWaitNs, QueueNs                   int64
}

// SplitTraced splits the bytes of a traced reply, "*2" then the normal
// reply then the 11-integer trace frame, without decoding the normal
// reply: inner is byte for byte what the untraced command answers, so
// its checksum can stand in for its contents. (A failed traced command
// answers a bare error frame, which is an error here.)
func SplitTraced(raw []byte) (inner []byte, tr Trace, err error) {
	const head, mark = "*2\r\n", "*11\r\n"
	at := bytes.LastIndex(raw, []byte(mark))
	if !bytes.HasPrefix(raw, []byte(head)) || at <= len(head) {
		return nil, Trace{}, fmt.Errorf("wire: want [reply, 11-int trace], got %q", raw[:min(len(raw), 40)])
	}
	v, rest, err := Decode(raw[at:])
	if err != nil || len(rest) != 0 || len(v.Elems) != 11 {
		return nil, Trace{}, errors.New("wire: malformed trace frame")
	}
	var f [11]int64
	for i, el := range v.Elems {
		if el.Type != TInt {
			return nil, Trace{}, errors.New("wire: trace element is not an integer")
		}
		f[i] = el.Int
	}
	return raw[len(head):at], Trace{f[0], f[1], f[2], f[3], f[4], f[5], f[6], f[7], f[8], f[9], f[10]}, nil
}

// Checksum is the CRC32C the Skimmer reports for a frame with these
// bytes.
func Checksum(frame []byte) uint32 { return crc32.Checksum(frame, castagnoli) }

// Event is one subscription push.
type Event struct {
	Sub     int64
	Kind    string // entered, left, bounds or end
	Version int64
	Object  []byte // the object payload, as sent
	Match   Match
}

// EventFrom interprets a push frame.
func EventFrom(v Value) (Event, error) {
	e := v.Elems
	if v.Type != TPush || len(e) < 3 || e[0].Type != TInt || e[1].Type != TBulk {
		return Event{}, errors.New("wire: malformed push frame")
	}
	ev := Event{Sub: e[0].Int, Kind: string(e[1].Str)}
	if ev.Kind == "end" {
		return ev, nil
	}
	if len(e) != 9 || e[2].Type != TInt || e[3].Type != TBulk {
		return Event{}, fmt.Errorf("wire: malformed %s push", ev.Kind)
	}
	ev.Version, ev.Object = e[2].Int, e[3].Str
	first, _, _ := bytes.Cut(ev.Object, []byte(" "))
	id, err := strconv.Atoi(string(first))
	if err != nil {
		return Event{}, fmt.Errorf("wire: push object has no id: %q", ev.Object)
	}
	m, err := matchFrom([]Value{{Type: TInt, Int: int64(id)}, e[4], e[5], e[6], e[7], e[8]})
	if err != nil {
		return Event{}, err
	}
	ev.Match = m
	return ev, nil
}

// Stats interprets a STATS reply: alternating key and value elements.
func Stats(v Value) (map[string]int64, error) {
	if v.Type != TArray || len(v.Elems)%2 != 0 {
		return nil, errors.New("wire: STATS reply is not a flat key/value array")
	}
	m := make(map[string]int64, len(v.Elems)/2)
	for i := 0; i < len(v.Elems); i += 2 {
		m[string(v.Elems[i].Str)] = v.Elems[i+1].Int
	}
	return m, nil
}
