package server

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"probprune/internal/geom"
	"probprune/internal/query"
	"probprune/internal/uncertain"
)

// This file holds the value layer of the protocol: how uncertain
// objects, query matches, rank distributions and subscription events
// travel inside protocol frames. Everything is text. Floats are
// encoded with strconv's shortest-round-trip form ('g', precision -1),
// which parses back to the identical IEEE-754 bit pattern — the
// equivalence test tier compares server answers bit-for-bit against
// in-process queries, so the wire must not lose a single ulp.

// Wire-side limits on decoded objects, defensive against hostile
// input (the fuzzers drive these paths with garbage).
const (
	maxObjectDim     = 64
	maxObjectSamples = 1 << 16
)

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func parseFloat(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad float %q", s)
	}
	return f, nil
}

// EncodeObject renders an uncertain object as one bulk-string payload:
//
//	<id> <dim> <nsamples> <flags> <coords...> [<weights...>] [<existence>]
//
// space-separated; coords are sample-major. flags bit 0 marks explicit
// weights, bit 1 existential uncertainty.
func EncodeObject(o *uncertain.Object) []byte {
	var sb strings.Builder
	dim := o.Dim()
	flags := 0
	if o.Weights != nil {
		flags |= 1
	}
	if o.Existence != 0 {
		flags |= 2
	}
	fmt.Fprintf(&sb, "%d %d %d %d", o.ID, dim, len(o.Samples), flags)
	for _, s := range o.Samples {
		for d := 0; d < dim; d++ {
			sb.WriteByte(' ')
			sb.WriteString(formatFloat(s[d]))
		}
	}
	if o.Weights != nil {
		for _, w := range o.Weights {
			sb.WriteByte(' ')
			sb.WriteString(formatFloat(w))
		}
	}
	if o.Existence != 0 {
		sb.WriteByte(' ')
		sb.WriteString(formatFloat(o.Existence))
	}
	return []byte(sb.String())
}

// DecodeObject parses an EncodeObject payload, validating everything a
// hostile client could abuse: dimension and sample-count limits,
// finite coordinates, non-negative weights with positive mass,
// existence in (0, 1]. The object is constructed field-by-field (MBR
// recomputed the same way uncertain.NewWeightedObject computes it) so
// a well-formed payload round-trips bit-identically — weights are
// renormalized only when their sum strays from 1 beyond float noise.
func DecodeObject(b []byte) (*uncertain.Object, error) {
	toks := strings.Fields(string(b))
	if len(toks) < 4 {
		return nil, fmt.Errorf("object: %d tokens, need at least 4", len(toks))
	}
	id, err := strconv.Atoi(toks[0])
	if err != nil {
		return nil, fmt.Errorf("object: bad id %q", toks[0])
	}
	dim, err := strconv.Atoi(toks[1])
	if err != nil || dim < 1 || dim > maxObjectDim {
		return nil, fmt.Errorf("object: bad dimension %q", toks[1])
	}
	n, err := strconv.Atoi(toks[2])
	if err != nil || n < 1 || n > maxObjectSamples {
		return nil, fmt.Errorf("object: bad sample count %q", toks[2])
	}
	flags, err := strconv.Atoi(toks[3])
	if err != nil || flags < 0 || flags > 3 {
		return nil, fmt.Errorf("object: bad flags %q", toks[3])
	}
	hasWeights, hasExistence := flags&1 != 0, flags&2 != 0
	want := 4 + n*dim
	if hasWeights {
		want += n
	}
	if hasExistence {
		want++
	}
	if len(toks) != want {
		return nil, fmt.Errorf("object: %d tokens, want %d", len(toks), want)
	}
	toks = toks[4:]
	samples := make([]geom.Point, n)
	for i := range samples {
		p := make(geom.Point, dim)
		for d := 0; d < dim; d++ {
			v, err := parseFloat(toks[i*dim+d])
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("object: bad coordinate %q", toks[i*dim+d])
			}
			p[d] = v
		}
		samples[i] = p
	}
	toks = toks[n*dim:]
	var weights []float64
	if hasWeights {
		weights = make([]float64, n)
		sum := 0.0
		for i := range weights {
			w, err := parseFloat(toks[i])
			if err != nil || math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
				return nil, fmt.Errorf("object: bad weight %q", toks[i])
			}
			weights[i] = w
			sum += w
		}
		if sum <= 0 {
			return nil, fmt.Errorf("object: zero total weight")
		}
		if math.Abs(sum-1) > 1e-9 {
			for i := range weights {
				weights[i] /= sum
			}
		}
		toks = toks[n:]
	}
	existence := 0.0
	if hasExistence {
		e, err := parseFloat(toks[0])
		if err != nil || math.IsNaN(e) || e <= 0 || e > 1 {
			return nil, fmt.Errorf("object: bad existence %q", toks[0])
		}
		existence = e
	}
	mbr := geom.PointRect(samples[0])
	for _, s := range samples[1:] {
		mbr = mbr.Union(geom.PointRect(s))
	}
	return &uncertain.Object{ID: id, MBR: mbr, Samples: samples, Weights: weights, Existence: existence}, nil
}

// Match is the wire form of one query match: the candidate's ID plus
// the probability bounds and IDCA verdict of query.Match. Candidates
// are identified by ID — the client knows the objects it ingested.
type Match struct {
	ID         int
	LB, UB     float64
	IsResult   bool
	Decided    bool
	Iterations int
}

func matchFromQuery(m query.Match) Match {
	w := Match{LB: m.Prob.LB, UB: m.Prob.UB, IsResult: m.IsResult, Decided: m.Decided, Iterations: m.Iterations}
	if m.Object != nil {
		w.ID = m.Object.ID
	}
	return w
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func encodeMatch(m Match) Frame {
	return array(
		intf(int64(m.ID)),
		bulkStr(formatFloat(m.LB)),
		bulkStr(formatFloat(m.UB)),
		intf(boolInt(m.IsResult)),
		intf(boolInt(m.Decided)),
		intf(int64(m.Iterations)),
	)
}

// EncodeMatches renders a query result as an array of match arrays.
func EncodeMatches(ms []query.Match) Frame {
	elems := make([]Frame, len(ms))
	for i, m := range ms {
		elems[i] = encodeMatch(matchFromQuery(m))
	}
	return array(elems...)
}

func decodeMatch(f Frame) (Match, error) {
	var m Match
	if f.Type != TArray || len(f.Array) != 6 {
		return m, fmt.Errorf("match: want 6-element array")
	}
	a := f.Array
	if a[0].Type != TInt || a[3].Type != TInt || a[4].Type != TInt || a[5].Type != TInt ||
		a[1].Type != TBulk || a[2].Type != TBulk {
		return m, fmt.Errorf("match: wrong element types")
	}
	lb, err := parseFloat(string(a[1].Bulk))
	if err != nil {
		return m, err
	}
	ub, err := parseFloat(string(a[2].Bulk))
	if err != nil {
		return m, err
	}
	return Match{
		ID: int(a[0].Int), LB: lb, UB: ub,
		IsResult: a[3].Int != 0, Decided: a[4].Int != 0, Iterations: int(a[5].Int),
	}, nil
}

// DecodeMatches parses an EncodeMatches reply.
func DecodeMatches(f Frame) ([]Match, error) {
	if f.Type != TArray || f.Null {
		return nil, fmt.Errorf("matches: want array reply, got %q", f.Type)
	}
	ms := make([]Match, len(f.Array))
	for i, el := range f.Array {
		m, err := decodeMatch(el)
		if err != nil {
			return nil, err
		}
		ms[i] = m
	}
	return ms, nil
}

// RankDist is the wire form of a query.RankDistribution: the bounds on
// P(Rank = MinRank + j) for j = 0..len(Bounds)-1.
type RankDist struct {
	MinRank int
	Bounds  [][2]float64
}

// EncodeRankDist renders an inverse-ranking answer.
func EncodeRankDist(rd *query.RankDistribution) Frame {
	elems := []Frame{intf(int64(rd.MinRank))}
	for _, iv := range rd.Ranks {
		elems = append(elems, bulkStr(formatFloat(iv.LB)), bulkStr(formatFloat(iv.UB)))
	}
	return array(elems...)
}

// DecodeRankDist parses an EncodeRankDist reply.
func DecodeRankDist(f Frame) (RankDist, error) {
	var rd RankDist
	if f.Type != TArray || f.Null || len(f.Array) < 1 || len(f.Array)%2 == 0 {
		return rd, fmt.Errorf("rankdist: malformed reply")
	}
	if f.Array[0].Type != TInt {
		return rd, fmt.Errorf("rankdist: want integer minrank")
	}
	rd.MinRank = int(f.Array[0].Int)
	for i := 1; i < len(f.Array); i += 2 {
		if f.Array[i].Type != TBulk || f.Array[i+1].Type != TBulk {
			return rd, fmt.Errorf("rankdist: want bulk bounds")
		}
		lb, err := parseFloat(string(f.Array[i].Bulk))
		if err != nil {
			return rd, err
		}
		ub, err := parseFloat(string(f.Array[i+1].Bulk))
		if err != nil {
			return rd, err
		}
		rd.Bounds = append(rd.Bounds, [2]float64{lb, ub})
	}
	return rd, nil
}

// Event kind strings on the wire, the cq.EventKind names plus the
// server-level terminal marker.
const (
	EvEntered = "entered"
	EvLeft    = "left"
	EvBounds  = "bounds"
	// EvEnd is the terminal push of a subscription: no more events will
	// follow. Its Reason field says why (see the End* constants).
	EvEnd = "end"
)

// Terminal reasons delivered with EvEnd.
const (
	EndUnsubscribed = "unsubscribed" // client sent UNSUBSCRIBE
	EndSlow         = "slow"         // DisconnectSlow backpressure fired
	EndSuperseded   = "superseded"   // a RESUME on another connection took the session
	EndClosed       = "closed"       // server shut down
)

// EventMsg is the wire form of one subscription event (or the
// terminal EvEnd marker).
type EventMsg struct {
	// Sub is the server-assigned subscription ID the event belongs to.
	Sub int64
	// Kind is EvEntered, EvLeft, EvBounds or EvEnd.
	Kind string
	// Version is the store mutation epoch the event is valid at.
	Version uint64
	// Object is the affected object (nil in EvEnd frames).
	Object *uncertain.Object
	// Match carries the candidate's post-change bounds and verdict;
	// the zero Match when the object left by deletion.
	Match Match
	// Reason is set on EvEnd frames only.
	Reason string
}

func eventFromCQ(sub int64, kind string, version uint64, obj *uncertain.Object, m query.Match) EventMsg {
	wm := matchFromQuery(m)
	// A left-by-deletion event carries the zero Match; pin the ID to the
	// object so the wire form round-trips to the same EventMsg.
	wm.ID = obj.ID
	return EventMsg{Sub: sub, Kind: kind, Version: version, Object: obj, Match: wm}
}

// encodeEvent renders an event as a push frame:
//
//	>[ :sub, $kind, :version, $object, $lb, $ub, :isresult, :decided, :iterations ]
//	>[ :sub, $"end", $reason ]
func encodeEvent(ev EventMsg) Frame {
	if ev.Kind == EvEnd {
		return push(intf(ev.Sub), bulkStr(EvEnd), bulkStr(ev.Reason))
	}
	return push(
		intf(ev.Sub),
		bulkStr(ev.Kind),
		intf(int64(ev.Version)),
		bulk(EncodeObject(ev.Object)),
		bulkStr(formatFloat(ev.Match.LB)),
		bulkStr(formatFloat(ev.Match.UB)),
		intf(boolInt(ev.Match.IsResult)),
		intf(boolInt(ev.Match.Decided)),
		intf(int64(ev.Match.Iterations)),
	)
}

// DecodeEvent parses a push frame back into an EventMsg.
func DecodeEvent(f Frame) (EventMsg, error) {
	var ev EventMsg
	if f.Type != TPush || f.Null || len(f.Array) < 3 {
		return ev, fmt.Errorf("event: malformed push frame")
	}
	a := f.Array
	if a[0].Type != TInt || a[1].Type != TBulk {
		return ev, fmt.Errorf("event: malformed push header")
	}
	ev.Sub = a[0].Int
	ev.Kind = string(a[1].Bulk)
	if ev.Kind == EvEnd {
		if len(a) != 3 || a[2].Type != TBulk {
			return ev, fmt.Errorf("event: malformed end frame")
		}
		ev.Reason = string(a[2].Bulk)
		return ev, nil
	}
	if len(a) != 9 || a[2].Type != TInt || a[3].Type != TBulk {
		return ev, fmt.Errorf("event: malformed %s frame", ev.Kind)
	}
	ev.Version = uint64(a[2].Int)
	obj, err := DecodeObject(a[3].Bulk)
	if err != nil {
		return ev, fmt.Errorf("event: %v", err)
	}
	ev.Object = obj
	m, err := decodeMatch(array(intf(int64(obj.ID)), a[4], a[5], a[6], a[7], a[8]))
	if err != nil {
		return ev, fmt.Errorf("event: %v", err)
	}
	m.ID = obj.ID
	ev.Match = m
	return ev, nil
}
