package server

import (
	"runtime"
	"strings"
	"time"

	"probprune/internal/obs"
)

// commandNames is every command dispatch knows. The metric set is built
// once at server construction so the dispatch hot path is a map read
// plus atomic updates — no allocation, no lock.
var commandNames = []string{
	"PING", "VERSION", "LEN", "GET", "INSERT", "UPDATE", "DELETE",
	"KNN", "RKNN", "TOPKNN", "INVRANK", "BATCH", "WAITVERSION",
	"SUBSCRIBE", "RESUME", "UNSUBSCRIBE", "STATS", "EVENTS",
}

// cmdMetrics are one command's dispatch counters.
type cmdMetrics struct {
	calls   obs.Counter
	errors  obs.Counter // error-frame replies (codeBadArg, codeErr, ...)
	latency obs.Histogram
}

// srvMetrics are the server-side counters: connection lifecycle,
// per-command dispatch, and the push plane. Everything is atomic and
// allocation-free on the record side; the typed point snapshot flattens
// it on demand.
type srvMetrics struct {
	connsAccepted obs.Counter
	connsOpen     obs.Gauge
	protoErrors   obs.Counter // framing/command-shape violations that end a connection
	pushed        obs.Counter // event frames enqueued to subscriber connections
	shed          obs.Counter // events discarded by PolicyDropOldest rings
	slowKills     obs.Counter // subscriptions terminated by PolicyDisconnect backpressure
	cmds          map[string]*cmdMetrics
	unknown       *cmdMetrics // every unrecognized command shares one bucket
}

func newSrvMetrics() *srvMetrics {
	m := &srvMetrics{
		cmds:    make(map[string]*cmdMetrics, len(commandNames)),
		unknown: &cmdMetrics{},
	}
	for _, name := range commandNames {
		m.cmds[name] = &cmdMetrics{}
	}
	return m
}

// cmd returns the metric bucket for an already-uppercased command name.
func (m *srvMetrics) cmd(name string) *cmdMetrics {
	if cm := m.cmds[name]; cm != nil {
		return cm
	}
	return m.unknown
}

// points renders the server-side metrics as typed points under the
// "server." prefix.
func (m *srvMetrics) points() []obs.MetricPoint {
	pts := make([]obs.MetricPoint, 0, 8+3*len(m.cmds))
	pts = append(pts,
		obs.MetricPoint{Name: "server.conns.accepted", Kind: obs.KindCounter, Value: int64(m.connsAccepted.Load())},
		obs.MetricPoint{Name: "server.conns.open", Kind: obs.KindGauge, Value: m.connsOpen.Load()},
		obs.MetricPoint{Name: "server.proto_errors", Kind: obs.KindCounter, Value: int64(m.protoErrors.Load())},
		obs.MetricPoint{Name: "server.pushed", Kind: obs.KindCounter, Value: int64(m.pushed.Load())},
		obs.MetricPoint{Name: "server.shed", Kind: obs.KindCounter, Value: int64(m.shed.Load())},
		obs.MetricPoint{Name: "server.slow_kills", Kind: obs.KindCounter, Value: int64(m.slowKills.Load())},
		obs.MetricPoint{Name: "server.cmd.unknown.calls", Kind: obs.KindCounter, Value: int64(m.unknown.calls.Load())},
	)
	for name, cm := range m.cmds {
		prefix := "server.cmd." + strings.ToLower(name)
		pts = append(pts,
			obs.MetricPoint{Name: prefix + ".calls", Kind: obs.KindCounter, Value: int64(cm.calls.Load())},
			obs.MetricPoint{Name: prefix + ".errors", Kind: obs.KindCounter, Value: int64(cm.errors.Load())},
			obs.MetricPoint{Name: prefix + ".latency", Kind: obs.KindTimeHist, Hist: cm.latency.Snapshot()},
		)
	}
	return pts
}

// MetricPoints assembles the full typed metric snapshot every surfacing
// layer shares: server-side counters, session-registry gauges, cq
// maintenance stats, the store's query-engine and WAL metrics, and
// process runtime gauges sampled at scrape time. The result is sorted
// by name — STATS flattens it, the debug endpoint renders it as JSON,
// and the Prometheus exposition renders it as text, all from this one
// snapshot path.
func (s *Server) MetricPoints() []obs.MetricPoint {
	pts := s.metrics.points()

	s.mu.Lock()
	var parked, backlog, retained int64
	sessions := int64(len(s.sessions))
	for _, st := range s.sessions {
		st.mu.Lock()
		if st.attached == nil {
			parked++
		}
		backlog += int64(len(st.ring) - st.delivered)
		retained += int64(len(st.ring))
		st.mu.Unlock()
	}
	s.mu.Unlock()
	pts = append(pts,
		obs.MetricPoint{Name: "server.sessions", Kind: obs.KindGauge, Value: sessions},
		obs.MetricPoint{Name: "server.sessions.parked", Kind: obs.KindGauge, Value: parked},
		obs.MetricPoint{Name: "server.push.backlog", Kind: obs.KindGauge, Value: backlog},
		obs.MetricPoint{Name: "server.push.retained", Kind: obs.KindGauge, Value: retained},
	)

	cs := s.mon.Stats()
	pts = append(pts,
		obs.MetricPoint{Name: "cq.changes", Kind: obs.KindCounter, Value: int64(cs.Changes)},
		obs.MetricPoint{Name: "cq.woken", Kind: obs.KindCounter, Value: int64(cs.Woken)},
		obs.MetricPoint{Name: "cq.runs", Kind: obs.KindCounter, Value: int64(cs.Runs)},
		obs.MetricPoint{Name: "cq.setup_runs", Kind: obs.KindCounter, Value: int64(cs.SetupRuns)},
		obs.MetricPoint{Name: "cq.saved", Kind: obs.KindCounter, Value: int64(cs.Saved)},
		obs.MetricPoint{Name: "cq.events", Kind: obs.KindCounter, Value: int64(cs.Events)},
		obs.MetricPoint{Name: "cq.lost", Kind: obs.KindCounter, Value: int64(cs.Lost)},
		obs.MetricPoint{Name: "cq.dropped", Kind: obs.KindCounter, Value: int64(cs.Dropped)},
		obs.MetricPoint{Name: "cq.cursor.saves", Kind: obs.KindCounter, Value: int64(cs.CursorSaves)},
		obs.MetricPoint{Name: "cq.cursor.save_failures", Kind: obs.KindCounter, Value: int64(cs.CursorSaveFailures)},
		obs.MetricPoint{Name: "cq.cursor.delta_bytes", Kind: obs.KindCounter, Value: int64(cs.CursorDeltaBytes)},
		obs.MetricPoint{Name: "cq.cursor.compactions", Kind: obs.KindCounter, Value: int64(cs.CursorCompactions)},
	)

	pts = append(pts, s.store.Metrics().Registry().Points()...)
	if ws, ok := s.store.WALStats(); ok {
		pts = append(pts, ws.Points()...)
	}

	pts = append(pts, s.runtimePoints()...)
	obs.SortPoints(pts)
	return pts
}

// runtimePoints samples the serving process itself: goroutines, heap,
// GC activity, and the identity gauges the VERSION reply carries.
// Sampled only at scrape time — recording paths never touch these.
func (s *Server) runtimePoints() []obs.MetricPoint {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return []obs.MetricPoint{
		{Name: "runtime.goroutines", Kind: obs.KindGauge, Value: int64(runtime.NumGoroutine())},
		{Name: "runtime.heap_alloc_bytes", Kind: obs.KindGauge, Value: int64(ms.HeapAlloc)},
		{Name: "runtime.heap_objects", Kind: obs.KindGauge, Value: int64(ms.HeapObjects)},
		{Name: "runtime.gc_cycles", Kind: obs.KindCounter, Value: int64(ms.NumGC)},
		{Name: "runtime.gc_pause_total_ns", Kind: obs.KindCounter, Value: int64(ms.PauseTotalNs)},
		{Name: "server.gomaxprocs", Kind: obs.KindGauge, Value: int64(runtime.GOMAXPROCS(0))},
		{Name: "server.uptime_seconds", Kind: obs.KindGauge, Value: int64(time.Since(s.started) / time.Second)},
	}
}

// StatsMap flattens the typed snapshot into the flat name → value map
// the STATS command and the debug endpoint's JSON format serve.
func (s *Server) StatsMap() map[string]int64 {
	return obs.PointsMap(s.MetricPoints())
}

// cmdStats serves STATS: the full metric map as a flat array of
// alternating bulk-string keys and integer values, in ascending key
// order. A flat array keeps the reply inside the existing frame
// vocabulary — no new frame type for clients or fuzzers to learn.
func (c *conn) cmdStats(rest [][]byte) Frame {
	if len(rest) != 0 {
		return errf(codeBadArg, "STATS takes no arguments")
	}
	m := c.srv.StatsMap()
	keys := obs.SortedKeys(m)
	elems := make([]Frame, 0, 2*len(keys))
	for _, k := range keys {
		elems = append(elems, bulkStr(k), intf(m[k]))
	}
	return array(elems...)
}
