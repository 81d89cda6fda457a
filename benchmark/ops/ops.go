package ops

import (
	"fmt"
	"strconv"
	"strings"
)

// A closed loop replays its round until the run length is used up, so
// a faster program measures more rounds, never a shorter time. The
// PerRound sizes below give 12 rounds in DefaultSeconds on the 2-vCPU
// sandbox they were calibrated on; MaxRounds caps the count (and sizes
// the pre-generated write stream).
const (
	MaxRounds      = 24
	DefaultSeconds = 20
)

// TracedPasses is how many extra passes a traced run replays with the
// TRACE flag set; the fastest one is compared with the quiet rounds.
const TracedPasses = 3

// Workload fixes everything about one benchmark workload that is not
// drawn from the seed. The sizes keep every KNN reply (one match per
// database object) under the protocol's 65,536-element array limit.
type Workload struct {
	Name string

	N          int     // udbgen -n
	Samples    int     // udbgen -samples
	MaxExtent  float64 // udbgen -maxextent
	Iterations int     // udbserver -iterations
	Durable    bool    // udbserver -dir ... -sync always -checkpoint-every 4096

	K            int
	Tau          float64
	QuerySamples int // samples per query object; 1 is a certain point

	PerRound  int     // primary ops per round
	ReadEvery int     // write-durable: one point KNN after this many updates
	Subs      int     // push-fanout: standing SUBSCRIBE KNN count
	SubArea   float64 // push-fanout: side of the centred square the subscriptions watch
	Rate      int     // push-fanout: paced mutations per second

	// MaxHarnessShare, when set, fails a full-size run whose load
	// generator burns more than this share of the server's CPU: past
	// it the harness, not the server, is what the latency measures.
	MaxHarnessShare float64
}

// WarmOps is how many primary ops one set-up's warm-up pass runs: a
// third of a round, so that three set-ups fit a run and, on the
// read-only workloads, between them verify the whole op list.
func (w Workload) WarmOps() int {
	n := w.PerRound / 3
	if w.ReadEvery > 0 {
		n = max(n/w.ReadEvery, 1) * w.ReadEvery
	}
	return n
}

// Workloads is the benchmark's fixed set, in BENCHMARK.json order.
var Workloads = []Workload{
	{
		Name: "knn-scan", N: 10000, Samples: 8, MaxExtent: 0.004, Iterations: 3,
		K: 5, Tau: 0.5, QuerySamples: 1, PerRound: 110, MaxHarnessShare: 0.15,
	},
	{
		Name: "knn-refine", N: 10000, Samples: 64, MaxExtent: 0.004, Iterations: 4,
		K: 10, Tau: 0.5, QuerySamples: 64, PerRound: 40,
	},
	{
		Name: "write-durable", N: 10000, Samples: 8, MaxExtent: 0.004, Iterations: 3, Durable: true,
		K: 5, Tau: 0.5, QuerySamples: 1, PerRound: 768, ReadEvery: 32,
	},
	{
		Name: "push-fanout", N: 10000, Samples: 8, MaxExtent: 0.004, Iterations: 3,
		K: 5, Tau: 0.3, QuerySamples: 1, PerRound: 80, Subs: 256, SubArea: 0.2, Rate: 50,
	},
}

// Find returns the named workload.
func Find(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// rng is splitmix64: the op lists must not change when the Go release
// behind math/rand does.
type rng uint64

func newRNG(seed int64, salt string) *rng {
	r := rng(seed)
	for _, c := range salt {
		r = rng(r.next() ^ uint64(c))
	}
	return &r
}

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Object is an uncertain object as the wire carries it: equally
// weighted samples, no existential uncertainty (what udbgen writes).
type Object struct {
	ID, Dim int
	Coords  []float64 // sample-major
}

// Encode renders the object payload of docs/PROTOCOL.md; floats use the
// shortest round-trip form, so the bytes equal the server's own
// encoding of the same object.
func (o Object) Encode() []byte {
	b := make([]byte, 0, 16+20*len(o.Coords))
	b = strconv.AppendInt(b, int64(o.ID), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(o.Dim), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(o.Coords)/o.Dim), 10)
	b = append(b, " 0"...)
	for _, c := range o.Coords {
		b = append(b, ' ')
		b = strconv.AppendFloat(b, c, 'g', -1, 64)
	}
	return b
}

// ParseObject decodes an object payload.
func ParseObject(b []byte) (Object, error) {
	toks := strings.Fields(string(b))
	if len(toks) < 4 {
		return Object{}, fmt.Errorf("object: %d tokens, need at least 4", len(toks))
	}
	var hdr [4]int
	for i := range hdr {
		v, err := strconv.Atoi(toks[i])
		if err != nil {
			return Object{}, fmt.Errorf("object: bad header field %q", toks[i])
		}
		hdr[i] = v
	}
	o := Object{ID: hdr[0], Dim: hdr[1]}
	if hdr[3] != 0 {
		return Object{}, fmt.Errorf("object %d: weights or existence set; the benchmark generates neither", o.ID)
	}
	if o.Dim < 1 || hdr[2] < 1 || len(toks) != 4+o.Dim*hdr[2] {
		return Object{}, fmt.Errorf("object %d: %d tokens for %d samples of dimension %d", o.ID, len(toks), hdr[2], o.Dim)
	}
	o.Coords = make([]float64, o.Dim*hdr[2])
	for i := range o.Coords {
		v, err := strconv.ParseFloat(toks[4+i], 64)
		if err != nil {
			return Object{}, fmt.Errorf("object %d: bad coordinate %q", o.ID, toks[4+i])
		}
		o.Coords[i] = v
	}
	return o, nil
}

// Queries draws the workload's query objects: certain points, or
// QuerySamples positions uniform in a box of side MaxExtent,
// centred anywhere in the unit square (SubArea set: in the centred
// square of that side). Query objects carry ID -1 (they are not
// database members).
func (w Workload) Queries(seed int64, count int) [][]byte {
	r := newRNG(seed, w.Name+"/queries")
	const dim = 2
	area := 1.0
	if w.SubArea > 0 {
		area = w.SubArea
	}
	out := make([][]byte, count)
	for i := range out {
		var center, ext [dim]float64
		for d := range center {
			center[d] = 0.5 + (r.float()-0.5)*area
			ext[d] = w.MaxExtent
		}
		o := Object{ID: -1, Dim: dim, Coords: make([]float64, dim*w.QuerySamples)}
		for s := 0; s < w.QuerySamples; s++ {
			for d := 0; d < dim; d++ {
				c := center[d]
				if w.QuerySamples > 1 {
					c += (r.float() - 0.5) * ext[d]
				}
				o.Coords[s*dim+d] = c
			}
		}
		out[i] = o.Encode()
	}
	return out
}

// KNNCommand is the workload's KNN over one query object, with the
// TRACE flag when trace is set.
func (w Workload) KNNCommand(query []byte, trace bool) []byte {
	args := [][]byte{[]byte("KNN"), []byte(strconv.Itoa(w.K)), strconv.AppendFloat(nil, w.Tau, 'g', -1, 64), query}
	if trace {
		args = append(args, []byte("TRACE"))
	}
	return Command(nil, args...)
}

// Oracle is what e2e's warm-up pass saw on the wire, handed to
// benchmark/layers to compare with the same ops run in process.
type Oracle struct {
	KNN     [][]int       `json:"knn,omitempty"`     // result ids per verified KNN, in op order
	Initial [][]int       `json:"initial,omitempty"` // initial result ids per subscription
	Events  []OracleEvent `json:"events,omitempty"`  // pushes of the warm-up slice
}

// OracleEvent is one push: which mutation of the stream caused it, for
// which subscription (by position in the seeded list), and what it said
// about which object.
type OracleEvent struct {
	Mutation int    `json:"m"`
	Sub      int    `json:"s"`
	Kind     string `json:"k"`
	Object   int    `json:"o"`
}

// Update is one drift mutation: the object's full new state.
type Update struct {
	ID      int
	Payload []byte
}

// Command is the UPDATE carrying the mutation, with the TRACE flag when
// trace is set.
func (u Update) Command(trace bool) []byte {
	if trace {
		return Command(nil, []byte("UPDATE"), u.Payload, []byte("TRACE"))
	}
	return Command(nil, []byte("UPDATE"), u.Payload)
}

// driftStep bounds one update's move per axis: local drift, well under
// the spacing of 10^4 objects in the unit square, so an update changes
// a neighbourhood's ranking without teleporting the object.
const driftStep = 0.002

// Updates draws a stream of count drift updates over db (indexed by
// object ID). Every other update moves an object of hot, when hot is
// not empty; the rest move any object. Each update drifts the object
// from where the previous one left it, so the stream is one trajectory
// and cannot be reordered.
func (w Workload) Updates(seed int64, db []Object, hot []int, count int) []Update {
	r := newRNG(seed, w.Name+"/updates")
	cur := make(map[int]Object)
	out := make([]Update, count)
	for i := range out {
		id := r.intn(len(db))
		if len(hot) > 0 && i%2 == 0 {
			id = hot[r.intn(len(hot))]
		}
		o, ok := cur[id]
		if !ok {
			o = Object{ID: id, Dim: db[id].Dim, Coords: append([]float64(nil), db[id].Coords...)}
		}
		for d := 0; d < o.Dim; d++ {
			step := (r.float()*2 - 1) * driftStep
			for s := d; s < len(o.Coords); s += o.Dim {
				o.Coords[s] += step
			}
		}
		cur[id] = o
		out[i] = Update{ID: id, Payload: o.Encode()}
	}
	return out
}
