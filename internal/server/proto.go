// Package server is the network serving layer: a TCP server speaking a
// pipelined RESP-style text protocol over the repository's uncertain
// query engine (one-shot KNN/RkNN/TopKNN/InverseRank commands, live
// ingest, one-snapshot batches) plus push channels for the continuous
// queries of internal/cq — the tile38 move of the ROADMAP.
//
// # Protocol
//
// The wire format is a strict subset of RESP (the Redis serialization
// protocol; see docs/PROTOCOL.md for the full spec): clients send
// commands as arrays of bulk strings (or as space-separated inline
// lines, for netcat-style exploration), the server answers with simple
// strings, errors, integers, bulk strings and arrays, and pushes
// subscription events as out-of-band '>' frames that a pipelining
// client demultiplexes from command replies by type. All floating
// point values travel as shortest-round-trip decimal text
// (strconv 'g'/-1), which parses back to the identical bit pattern —
// the server↔in-process equivalence tests rely on that.
//
// # Subscriptions across connections
//
// Named subscriptions are owned by the server session registry, not by
// the connection that created them: a dropped connection parks the
// subscription, events keep draining into a bounded retained ring, and
// RESUME with the client's (version, objectID) watermark replays
// exactly the missed suffix. See the Server documentation.
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Frame type tags, the RESP first bytes.
const (
	TSimple = '+' // simple string
	TError  = '-' // error: "CODE message"
	TInt    = ':' // signed 64-bit integer
	TBulk   = '$' // length-prefixed binary-safe string
	TArray  = '*' // array of frames
	TPush   = '>' // out-of-band push array (subscription events)
)

// Codec limits. A frame that exceeds them is a protocol error: the
// connection that sent it is answered with -PROTO and closed, because
// the stream can no longer be trusted to be in sync.
const (
	// MaxBulk bounds one bulk string (the largest legitimate payload is
	// one encoded uncertain object).
	MaxBulk = 1 << 20
	// MaxArray bounds the argument count of one command (a BATCH of
	// thousands of queries stays far below it).
	MaxArray = 1 << 16
	// MaxLine bounds one inline command or frame header line.
	MaxLine = 64 << 10
	// MaxDepth bounds frame nesting.
	MaxDepth = 8
)

// ErrProto marks stream-desynchronizing protocol violations: malformed
// headers, limit overruns, bad framing. Wrapped errors matching it
// make the server close the connection after a -PROTO reply.
var ErrProto = errors.New("protocol error")

// Frame is one decoded protocol unit.
type Frame struct {
	// Type is one of TSimple, TError, TInt, TBulk, TArray, TPush.
	Type byte
	// Str holds TSimple and TError payloads.
	Str string
	// Int holds TInt payloads.
	Int int64
	// Bulk holds TBulk payloads; nil if and only if Null.
	Bulk []byte
	// Array holds TArray and TPush elements; nil if and only if Null.
	Array []Frame
	// Null marks the RESP null bulk ($-1) and null array (*-1).
	Null bool
}

// Convenience constructors.
func simple(s string) Frame { return Frame{Type: TSimple, Str: s} }
func errf(code, format string, args ...any) Frame {
	return Frame{Type: TError, Str: code + " " + fmt.Sprintf(format, args...)}
}
func intf(n int64) Frame     { return Frame{Type: TInt, Int: n} }
func bulk(b []byte) Frame    { return Frame{Type: TBulk, Bulk: b} }
func bulkStr(s string) Frame { return Frame{Type: TBulk, Bulk: []byte(s)} }
func array(elems ...Frame) Frame {
	if elems == nil {
		elems = []Frame{}
	}
	return Frame{Type: TArray, Array: elems}
}
func push(elems ...Frame) Frame { return Frame{Type: TPush, Array: elems} }

// IsError reports whether the frame is an error reply and, if so,
// splits it into code and message.
func (f Frame) IsError() (code, msg string, ok bool) {
	if f.Type != TError {
		return "", "", false
	}
	code = f.Str
	if i := bytes.IndexByte([]byte(f.Str), ' '); i >= 0 {
		code, msg = f.Str[:i], f.Str[i+1:]
	}
	return code, msg, true
}

// Equal reports deep frame equality. Null frames compare by nullness,
// bulk payloads byte-wise, arrays element-wise.
func (f Frame) Equal(g Frame) bool {
	if f.Type != g.Type || f.Null != g.Null {
		return false
	}
	switch f.Type {
	case TSimple, TError:
		return f.Str == g.Str
	case TInt:
		return f.Int == g.Int
	case TBulk:
		return f.Null == g.Null && bytes.Equal(f.Bulk, g.Bulk)
	case TArray, TPush:
		if f.Null || g.Null {
			return f.Null == g.Null
		}
		if len(f.Array) != len(g.Array) {
			return false
		}
		for i := range f.Array {
			if !f.Array[i].Equal(g.Array[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Reader decodes frames from a byte stream. It never panics on
// malformed input: a frame is returned, or an error — ErrProto-wrapped
// for protocol violations, the underlying I/O error otherwise. Torn
// frames simply block until the rest of the bytes arrive (or surface
// io.ErrUnexpectedEOF when the stream ends mid-frame).
type Reader struct {
	br *bufio.Reader
}

// NewReader wraps r in a frame decoder.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 16<<10)}
}

// ReadFrame decodes one frame. Inline commands (a bare text line not
// starting with a type tag) decode as an array of bulk strings, so
// `KNN 5 0.5 <obj>` typed into netcat works; empty inline lines are
// skipped, per the RESP convention.
func (r *Reader) ReadFrame() (Frame, error) {
	return r.readFrame(0, true)
}

func (r *Reader) readFrame(depth int, inlineOK bool) (Frame, error) {
	if depth > MaxDepth {
		return Frame{}, fmt.Errorf("%w: frame nesting deeper than %d", ErrProto, MaxDepth)
	}
	for {
		b, err := r.br.ReadByte()
		if err != nil {
			return Frame{}, err
		}
		switch b {
		case TSimple, TError:
			line, err := r.readLine()
			if err != nil {
				return Frame{}, err
			}
			return Frame{Type: b, Str: string(line)}, nil
		case TInt:
			line, err := r.readLine()
			if err != nil {
				return Frame{}, err
			}
			n, err := strconv.ParseInt(string(line), 10, 64)
			if err != nil {
				return Frame{}, fmt.Errorf("%w: bad integer %q", ErrProto, line)
			}
			return Frame{Type: TInt, Int: n}, nil
		case TBulk:
			n, err := r.readLen(MaxBulk, "bulk")
			if err != nil {
				return Frame{}, err
			}
			if n < 0 {
				return Frame{Type: TBulk, Null: true}, nil
			}
			payload := make([]byte, n+2)
			if _, err := io.ReadFull(r.br, payload); err != nil {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return Frame{}, err
			}
			if payload[n] != '\r' || payload[n+1] != '\n' {
				return Frame{}, fmt.Errorf("%w: bulk not CRLF-terminated", ErrProto)
			}
			return Frame{Type: TBulk, Bulk: payload[:n:n]}, nil
		case TArray, TPush:
			n, err := r.readLen(MaxArray, "array")
			if err != nil {
				return Frame{}, err
			}
			if n < 0 {
				return Frame{Type: b, Null: true}, nil
			}
			elems := make([]Frame, 0, min(n, 64))
			for i := int64(0); i < n; i++ {
				el, err := r.readFrame(depth+1, false)
				if err != nil {
					return Frame{}, err
				}
				elems = append(elems, el)
			}
			return Frame{Type: b, Array: elems}, nil
		default:
			if !inlineOK {
				return Frame{}, fmt.Errorf("%w: unexpected type byte %q inside frame", ErrProto, b)
			}
			if err := r.br.UnreadByte(); err != nil {
				return Frame{}, err
			}
			line, err := r.readLine()
			if err != nil {
				return Frame{}, err
			}
			fields := bytes.Fields(line)
			if len(fields) == 0 {
				continue // empty inline line: skip, keep reading
			}
			elems := make([]Frame, len(fields))
			for i, f := range fields {
				elems[i] = Frame{Type: TBulk, Bulk: bytes.Clone(f)}
			}
			return Frame{Type: TArray, Array: elems}, nil
		}
	}
}

// readLine reads up to CRLF (tolerating a bare LF), excluding the
// terminator, bounded by MaxLine.
func (r *Reader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull || (err == nil && len(line) > MaxLine) {
		return nil, fmt.Errorf("%w: line longer than %d", ErrProto, MaxLine)
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return bytes.Clone(line), nil
}

// readLen parses a length header line, admitting -1 (null) and
// rejecting anything above limit.
func (r *Reader) readLen(limit int64, what string) (int64, error) {
	line, err := r.readLine()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(line), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: bad %s length %q", ErrProto, what, line)
	}
	if n < -1 || n > limit {
		return 0, fmt.Errorf("%w: %s length %d outside [-1, %d]", ErrProto, what, n, limit)
	}
	return n, nil
}

// Writer encodes frames onto a byte stream. Not safe for concurrent
// use; callers serialize (the connection writer goroutine owns it).
type Writer struct {
	bw *bufio.Writer
	// num is the scratch every integer and length header is formatted
	// into; 20 bytes hold any int64, so a header allocates nothing.
	num [20]byte
}

// NewWriter wraps w in a frame encoder.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 16<<10)}
}

// writeInt writes v in decimal.
func (w *Writer) writeInt(v int64) { w.bw.Write(strconv.AppendInt(w.num[:0], v, 10)) }

// WriteFrame encodes one frame (buffered; call Flush to send).
func (w *Writer) WriteFrame(f Frame) error {
	switch f.Type {
	case TSimple, TError:
		w.bw.WriteByte(f.Type)
		w.bw.WriteString(f.Str)
	case TInt:
		w.bw.WriteByte(TInt)
		w.writeInt(f.Int)
	case TBulk:
		w.bw.WriteByte(TBulk)
		if f.Null {
			w.bw.WriteString("-1")
			break
		}
		w.writeInt(int64(len(f.Bulk)))
		w.bw.WriteString("\r\n")
		w.bw.Write(f.Bulk)
	case TArray, TPush:
		w.bw.WriteByte(f.Type)
		if f.Null {
			w.bw.WriteString("-1")
			break
		}
		w.writeInt(int64(len(f.Array)))
		w.bw.WriteString("\r\n")
		for _, el := range f.Array {
			if err := w.WriteFrame(el); err != nil {
				return err
			}
		}
		return nil // elements wrote their own terminators
	default:
		return fmt.Errorf("server: cannot encode frame type %q", f.Type)
	}
	w.bw.WriteString("\r\n")
	// bufio latches write errors; they surface on Flush.
	return nil
}

// Flush sends everything buffered.
func (w *Writer) Flush() error { return w.bw.Flush() }
