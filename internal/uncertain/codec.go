package uncertain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"probprune/internal/geom"
)

// The object codec shared by the write-ahead log, its checkpoints and
// .udb dataset files. One object encodes as
//
//	varint ID, float existence, uvarint dim, uvarint n,
//	MBR (dim minima, dim maxima), n·dim coordinates (sample-major),
//	byte 0 | byte 1 followed by n weights
//
// with every float the little-endian IEEE-754 bits. The MBR and the
// weights are written verbatim — not recomputed or renormalized on
// decode — so a decoded object is bit-identical to the encoded one, the
// property crash recovery and the dataset round trip rest on.

// MaxCodecDim bounds the dimensionality DecodeObject accepts.
const MaxCodecDim = 1 << 10

// AppendObject appends the encoding of o to buf.
func AppendObject(buf []byte, o *Object) []byte {
	buf = binary.AppendVarint(buf, int64(o.ID))
	buf = appendFloat(buf, o.Existence)
	buf = binary.AppendUvarint(buf, uint64(o.Dim()))
	buf = binary.AppendUvarint(buf, uint64(o.NumSamples()))
	buf = appendFloats(buf, o.MBR.Min)
	buf = appendFloats(buf, o.MBR.Max)
	buf = appendFloats(buf, o.Coords)
	if o.Weights == nil {
		return append(buf, 0)
	}
	return appendFloats(append(buf, 1), o.Weights)
}

func appendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

func appendFloats(buf []byte, fs []float64) []byte {
	for _, f := range fs {
		buf = appendFloat(buf, f)
	}
	return buf
}

var errTruncated = errors.New("uncertain: truncated object")

// DecodeObject decodes the object AppendObject wrote at the front of b
// and returns it with the number of bytes it took. b is untrusted: every
// count is checked against the bytes left before anything is allocated,
// and the object must be one the constructors could have built —
// finite coordinates inside a finite MBR, existence in [0, 1], and
// finite non-negative weights that sum to 1 within float noise. The
// object does not alias b.
func DecodeObject(b []byte) (*Object, int, error) {
	rest := b
	id, k := binary.Varint(rest)
	if k <= 0 {
		return nil, 0, errTruncated
	}
	rest = rest[k:]
	if len(rest) < 8 {
		return nil, 0, errTruncated
	}
	existence := math.Float64frombits(binary.LittleEndian.Uint64(rest))
	rest = rest[8:]
	dim, k := binary.Uvarint(rest)
	if k <= 0 {
		return nil, 0, errTruncated
	}
	rest = rest[k:]
	if dim < 1 || dim > MaxCodecDim {
		return nil, 0, fmt.Errorf("uncertain: object %d dimensionality %d", id, dim)
	}
	n, k := binary.Uvarint(rest)
	if k <= 0 {
		return nil, 0, errTruncated
	}
	rest = rest[k:]
	if n < 1 {
		return nil, 0, fmt.Errorf("uncertain: object %d has no samples", id)
	}
	// The MBR, the coordinates and the weights flag must still follow.
	if n > uint64(len(rest)/8)/dim || uint64(len(rest)) < (2+n)*dim*8+1 {
		return nil, 0, fmt.Errorf("uncertain: object %d sample count %d exceeds remaining input", id, n)
	}
	d := int(dim)
	floats := make([]float64, (2+int(n))*d)
	rest = readFloats(floats, rest)
	o := &Object{
		ID:        int(id),
		MBR:       geom.Rect{Min: floats[:d:d], Max: floats[d : 2*d : 2*d]},
		Coords:    floats[2*d:],
		Existence: existence,
	}
	hasWeights := rest[0] != 0
	rest = rest[1:]
	if hasWeights {
		if uint64(len(rest)/8) < n {
			return nil, 0, errTruncated
		}
		o.Weights = make([]float64, n)
		rest = readFloats(o.Weights, rest)
	}
	if err := o.check(); err != nil {
		return nil, 0, err
	}
	return o, len(b) - len(rest), nil
}

// readFloats fills dst from the front of b, which holds enough bytes,
// and returns the rest of b.
func readFloats(dst []float64, b []byte) []byte {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return b[8*len(dst):]
}

// check validates a decoded object's values (its shape is the
// decoder's business).
func (o *Object) check() error {
	if math.IsNaN(o.Existence) || o.Existence < 0 || o.Existence > 1 {
		return fmt.Errorf("uncertain: object %d existence %g outside [0, 1]", o.ID, o.Existence)
	}
	lo, hi := o.MBR.Min, o.MBR.Max
	for j := range lo {
		if !(lo[j] <= hi[j]) || math.IsInf(lo[j], 0) || math.IsInf(hi[j], 0) {
			return fmt.Errorf("uncertain: object %d has MBR %v", o.ID, o.MBR)
		}
	}
	// Inside a finite MBR, every coordinate is finite too.
	d := len(lo)
	for off := 0; off < len(o.Coords); off += d {
		for j, c := range o.Coords[off : off+d] {
			if !(c >= lo[j] && c <= hi[j]) {
				return fmt.Errorf("uncertain: object %d sample %d lies outside its MBR", o.ID, off/d)
			}
		}
	}
	if o.Weights == nil {
		return nil
	}
	sum := 0.0
	for _, w := range o.Weights {
		if !(w >= 0) || math.IsInf(w, 1) {
			return fmt.Errorf("uncertain: object %d has invalid weight %g", o.ID, w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("uncertain: object %d weights sum to %g", o.ID, sum)
	}
	return nil
}
