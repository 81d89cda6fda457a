package wal

import (
	"probprune/internal/obs"
)

// journalMetrics are one journal's cumulative durability metrics. The
// zero value is ready to use (obs primitives are zero-value atomic), so
// every Journal carries one without constructor changes; record paths
// run under j.mu on the commit path and never allocate.
type journalMetrics struct {
	appends     obs.Counter
	appendBytes obs.Counter
	appendLat   obs.Histogram
	fsyncs      obs.Counter
	fsyncLat    obs.Histogram
	rotations   obs.Counter
	checkpoints obs.Counter
	ckptLat     obs.Histogram
	groupBatch  obs.Histogram // value-fed: appends acknowledged per group fsync
}

// MetricsSnapshot is a point-in-time copy of a journal's metrics.
type MetricsSnapshot struct {
	// Appends counts journaled records; AppendBytes their framed bytes
	// on disk; AppendLat the wall time of one append (including the
	// fsync under SyncAlways).
	Appends     uint64
	AppendBytes uint64
	AppendLat   obs.HistSnapshot
	// Fsyncs counts explicit fsyncs of the segment file (SyncAlways
	// appends, Sync calls, the SyncBackground flusher).
	Fsyncs   uint64
	FsyncLat obs.HistSnapshot
	// Rotations counts segment rollovers (size threshold and
	// checkpoint-installed ones alike).
	Rotations uint64
	// Checkpoints counts installed checkpoints; CheckpointLat the wall
	// time of one install (encode, fsync, rename, truncation) — under
	// background checkpointing this is worker time, not commit stall.
	Checkpoints   uint64
	CheckpointLat obs.HistSnapshot
	// GroupBatch is the group-commit batch-size histogram: how many
	// appends each SyncAlways leader fsync acknowledged. A p50 well
	// above 1 means concurrent committers are sharing fsyncs.
	GroupBatch obs.HistSnapshot
}

// Points renders the snapshot as typed metric points under the "wal."
// prefix, kept as histograms so the Prometheus exposition can serve
// cumulative buckets (obs.PointsMap flattens them for STATS and JSON).
func (s MetricsSnapshot) Points() []obs.MetricPoint {
	return []obs.MetricPoint{
		{Name: "wal.appends", Kind: obs.KindCounter, Value: int64(s.Appends)},
		{Name: "wal.append_bytes", Kind: obs.KindCounter, Value: int64(s.AppendBytes)},
		{Name: "wal.append.latency", Kind: obs.KindTimeHist, Hist: s.AppendLat},
		{Name: "wal.fsyncs", Kind: obs.KindCounter, Value: int64(s.Fsyncs)},
		{Name: "wal.fsync.latency", Kind: obs.KindTimeHist, Hist: s.FsyncLat},
		{Name: "wal.rotations", Kind: obs.KindCounter, Value: int64(s.Rotations)},
		{Name: "wal.checkpoints", Kind: obs.KindCounter, Value: int64(s.Checkpoints)},
		{Name: "wal.checkpoint.latency", Kind: obs.KindTimeHist, Hist: s.CheckpointLat},
		{Name: "wal.group_commit.batch", Kind: obs.KindValueHist, Hist: s.GroupBatch},
	}
}

// MetricsSnapshot returns the journal's current metrics.
func (j *Journal) MetricsSnapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Appends:       j.metrics.appends.Load(),
		AppendBytes:   j.metrics.appendBytes.Load(),
		AppendLat:     j.metrics.appendLat.Snapshot(),
		Fsyncs:        j.metrics.fsyncs.Load(),
		FsyncLat:      j.metrics.fsyncLat.Snapshot(),
		Rotations:     j.metrics.rotations.Load(),
		Checkpoints:   j.metrics.checkpoints.Load(),
		CheckpointLat: j.metrics.ckptLat.Snapshot(),
		GroupBatch:    j.metrics.groupBatch.Snapshot(),
	}
}
