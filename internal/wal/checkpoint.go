package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"probprune/internal/uncertain"
)

// Checkpoint is a snapshot of one store's durable state: the object
// database in exact database order, the store version it was taken at,
// and the materialized levels of the store's decomposition cache, so a
// reopened store serves its first queries without re-splitting a single
// object the crashed process had already decomposed.
type Checkpoint struct {
	// Version is the store mutation epoch the snapshot was taken at.
	Version uint64
	// Objects is the object database, in database order.
	Objects []*uncertain.Object
	// Decomp holds, per object (parallel to Objects), the materialized
	// decomposition levels at checkpoint time; nil entries are objects
	// whose decomposition was never needed. Decomp may be nil entirely.
	Decomp [][][]uncertain.Partition
	// CacheVersion is the decomposition cache epoch at the snapshot.
	CacheVersion uint64

	// firstSegment is the log-tail watermark: recovery replays segments
	// with index >= firstSegment on top of this snapshot. Managed by
	// Journal.WriteCheckpoint.
	firstSegment uint64
}

// appendCheckpoint encodes the checkpoint payload.
func appendCheckpoint(buf []byte, ck *Checkpoint) ([]byte, error) {
	if ck.Decomp != nil && len(ck.Decomp) != len(ck.Objects) {
		return nil, fmt.Errorf("wal: checkpoint with %d objects but %d decomposition entries", len(ck.Objects), len(ck.Decomp))
	}
	buf = binary.AppendUvarint(buf, ck.Version)
	buf = binary.AppendUvarint(buf, ck.firstSegment)
	buf = binary.AppendUvarint(buf, ck.CacheVersion)
	buf = binary.AppendUvarint(buf, uint64(len(ck.Objects)))
	for _, o := range ck.Objects {
		if o == nil {
			return nil, fmt.Errorf("wal: nil object in checkpoint")
		}
		buf = appendObject(buf, o)
	}
	for i := range ck.Objects {
		var levels [][]uncertain.Partition
		if ck.Decomp != nil {
			levels = ck.Decomp[i]
		}
		buf = appendLevels(buf, levels)
	}
	return buf, nil
}

// decodeCheckpoint decodes a checkpoint payload.
func decodeCheckpoint(b []byte) (*Checkpoint, error) {
	d := decoder{b: b}
	ck := &Checkpoint{}
	ck.Version = d.uvarint()
	ck.firstSegment = d.uvarint()
	ck.CacheVersion = d.uvarint()
	n := d.count("object", 8)
	if d.err != nil {
		return nil, d.err
	}
	ck.Objects = make([]*uncertain.Object, n)
	seen := make(map[int]bool, n)
	for i := range ck.Objects {
		ck.Objects[i] = d.object()
		if d.err != nil {
			return nil, d.err
		}
		if seen[ck.Objects[i].ID] {
			return nil, fmt.Errorf("wal: duplicate object ID %d in checkpoint", ck.Objects[i].ID)
		}
		seen[ck.Objects[i].ID] = true
	}
	ck.Decomp = make([][][]uncertain.Partition, n)
	for i := range ck.Decomp {
		ck.Decomp[i] = d.levels(ck.Objects[i].Dim())
		if d.err != nil {
			return nil, d.err
		}
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes after checkpoint", len(d.b))
	}
	return ck, nil
}

// appendLevels encodes one object's materialized decomposition levels.
func appendLevels(buf []byte, levels [][]uncertain.Partition) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(levels)))
	for _, parts := range levels {
		buf = binary.AppendUvarint(buf, uint64(len(parts)))
		for _, p := range parts {
			buf = appendRect(buf, p.MBR)
			buf = appendFloat(buf, p.Prob)
		}
	}
	return buf
}

// levels decodes one object's decomposition levels (dim floats per
// rectangle side).
func (d *decoder) levels(dim int) [][]uncertain.Partition {
	n := d.count("level", 1)
	if d.err != nil || n == 0 {
		return nil
	}
	levels := make([][]uncertain.Partition, n)
	for i := range levels {
		m := d.count("partition", dim*16+8)
		if d.err != nil {
			return nil
		}
		parts := make([]uncertain.Partition, m)
		for k := range parts {
			parts[k].MBR = d.rect(dim)
			parts[k].Prob = d.float()
		}
		levels[i] = parts
	}
	return levels
}

// frameBlob wraps a payload in [magic][len][crc][payload] — the single
// frame layout of checkpoint and manifest files.
func frameBlob(magic string, payload []byte) []byte {
	out := make([]byte, 0, len(magic)+frameHeader+len(payload))
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crcTable))
	return append(out, payload...)
}

// unframeBlob validates and strips the frameBlob layout.
func unframeBlob(magic string, data []byte) ([]byte, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("wal: bad magic")
	}
	payload, n := nextFrame(data[len(magic):])
	if payload == nil {
		return nil, fmt.Errorf("wal: truncated or corrupt file")
	}
	if len(magic)+n != len(data) {
		return nil, fmt.Errorf("wal: trailing bytes")
	}
	return payload, nil
}

// saveCheckpointFile atomically writes ck to path.
func saveCheckpointFile(path string, ck *Checkpoint) error {
	payload, err := appendCheckpoint(nil, ck)
	if err != nil {
		return err
	}
	return writeFileAtomic(path, frameBlob(ckptMagic, payload))
}

// loadCheckpointFile reads a checkpoint installed by
// Journal.WriteCheckpoint.
func loadCheckpointFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := unframeBlob(ckptMagic, data)
	if err != nil {
		return nil, err
	}
	return decodeCheckpoint(payload)
}

// DecompEntry carries one object's materialized decomposition levels in
// a router manifest, keyed by object ID.
type DecompEntry struct {
	ID     int
	Dim    int
	Levels [][]uncertain.Partition
}

// Manifest is the router-level durable state of a sharded store: the
// shard count, the router mutation epoch of the last coordinated
// checkpoint, the global insertion order at that epoch (object IDs —
// the instances live in the shard checkpoints), and the router's own
// decomposition cache. Per-shard logs carry the router epoch on every
// record, so recovery rebuilds the global order as manifest order plus
// the merged logical records with epoch > Manifest.Version.
type Manifest struct {
	// Version is the router mutation epoch at the checkpoint.
	Version uint64
	// Shards is the shard count; shard i's journal lives in
	// subdirectory shard-i.
	Shards int
	// VV is the per-shard store version at the checkpoint — the version
	// vector of the coordinated cut.
	VV []uint64
	// Order is the global database order at the checkpoint, as object
	// IDs.
	Order []int
	// Decomp holds the router cache's materialized decompositions for a
	// subset of Order.
	Decomp []DecompEntry
	// CacheVersion is the router cache epoch at the checkpoint.
	CacheVersion uint64
}

// appendManifest encodes the manifest payload.
func appendManifest(buf []byte, m *Manifest) []byte {
	buf = binary.AppendUvarint(buf, m.Version)
	buf = binary.AppendUvarint(buf, uint64(m.Shards))
	buf = binary.AppendUvarint(buf, m.CacheVersion)
	buf = binary.AppendUvarint(buf, uint64(len(m.VV)))
	for _, v := range m.VV {
		buf = binary.AppendUvarint(buf, v)
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.Order)))
	for _, id := range m.Order {
		buf = binary.AppendVarint(buf, int64(id))
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.Decomp)))
	for _, e := range m.Decomp {
		buf = binary.AppendVarint(buf, int64(e.ID))
		buf = binary.AppendUvarint(buf, uint64(e.Dim))
		buf = appendLevels(buf, e.Levels)
	}
	return buf
}

// decodeManifest decodes a manifest payload.
func decodeManifest(b []byte) (*Manifest, error) {
	d := decoder{b: b}
	m := &Manifest{}
	m.Version = d.uvarint()
	m.Shards = int(d.uvarint())
	m.CacheVersion = d.uvarint()
	if d.err == nil && (m.Shards < 1 || m.Shards > 1<<16) {
		d.fail("manifest shard count %d", m.Shards)
	}
	nvv := d.count("version vector", 1)
	if d.err != nil {
		return nil, d.err
	}
	m.VV = make([]uint64, nvv)
	for i := range m.VV {
		m.VV[i] = d.uvarint()
	}
	n := d.count("order", 1)
	if d.err != nil {
		return nil, d.err
	}
	m.Order = make([]int, n)
	for i := range m.Order {
		m.Order[i] = int(d.varint())
	}
	ne := d.count("decomposition", 2)
	if d.err != nil {
		return nil, d.err
	}
	m.Decomp = make([]DecompEntry, ne)
	for i := range m.Decomp {
		m.Decomp[i].ID = int(d.varint())
		dim := int(d.uvarint())
		if d.err == nil && (dim < 1 || dim > maxDim) {
			d.fail("decomposition entry dimensionality %d", dim)
		}
		if d.err != nil {
			return nil, d.err
		}
		m.Decomp[i].Dim = dim
		m.Decomp[i].Levels = d.levels(dim)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes after manifest", len(d.b))
	}
	return m, nil
}

// SaveManifest atomically writes the router manifest to path.
func SaveManifest(path string, m *Manifest) error {
	return writeFileAtomic(path, frameBlob(maniMagic, appendManifest(nil, m)))
}

// LoadManifest reads a manifest written by SaveManifest. A missing file
// returns (nil, nil): the directory is fresh.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	payload, err := unframeBlob(maniMagic, data)
	if err != nil {
		return nil, err
	}
	return decodeManifest(payload)
}
