package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"probprune/internal/uncertain"
)

// Checkpoint is a snapshot of one store's durable state: the object
// database and the store version it was taken at. Decompositions are
// not persisted: a reopened store rebuilds each object's kd-tree from
// its samples on first use.
type Checkpoint struct {
	// Version is the store mutation epoch the snapshot was taken at.
	Version uint64
	// Objects is the object database; stores write it in ascending ID
	// order, and the file keeps whatever order it is given.
	Objects []*uncertain.Object

	// firstSegment is the log-tail watermark: recovery replays segments
	// with index >= firstSegment on top of this snapshot. Managed by
	// Journal.WriteCheckpoint.
	firstSegment uint64
}

// appendCheckpoint encodes the checkpoint payload (format v2).
func appendCheckpoint(buf []byte, ck *Checkpoint) []byte {
	buf = binary.AppendUvarint(buf, ck.Version)
	buf = binary.AppendUvarint(buf, ck.firstSegment)
	buf = binary.AppendUvarint(buf, uint64(len(ck.Objects)))
	for _, o := range ck.Objects {
		buf = uncertain.AppendObject(buf, o)
	}
	return buf
}

// decodeCheckpoint decodes a checkpoint payload. A v1 payload also
// carries a cache epoch after the watermark and, after the objects, one
// level section per object; both are read past and dropped.
func decodeCheckpoint(b []byte, v1 bool) (*Checkpoint, error) {
	d := decoder{b: b}
	ck := &Checkpoint{}
	ck.Version = d.uvarint()
	ck.firstSegment = d.uvarint()
	if v1 {
		d.uvarint() // cache epoch
	}
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
	if v1 {
		for _, o := range ck.Objects {
			d.skipLevels(o.Dim())
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes after checkpoint", len(d.b))
	}
	return ck, nil
}

// skipLevels reads past one object's v1 decomposition levels: a level
// count, then per level a partition count and that many partitions of
// dim-dimensional rectangle (2·dim floats) plus probability (one
// float). The counts are bounded by the remaining input, as a decode of
// them would be; nothing is allocated.
func (d *decoder) skipLevels(dim int) {
	width := dim*16 + 8
	for range d.count("level", 1) {
		m := d.count("partition", width)
		if d.err != nil {
			return
		}
		d.b = d.b[m*width:]
	}
}

// startBlob returns a buffer holding magic and a blank frame header with
// room for a size-byte payload, which the caller appends and sealBlob
// frames in place: [magic][len][crc][payload], the one layout of
// checkpoint and manifest files.
func startBlob(magic string, size int) []byte {
	buf := make([]byte, len(magic)+frameHeader, len(magic)+frameHeader+size)
	copy(buf, magic)
	return buf
}

// sealBlob fills in the frame header of a startBlob buffer from the
// payload appended to it.
func sealBlob(magic string, buf []byte) []byte {
	payload := buf[len(magic)+frameHeader:]
	binary.LittleEndian.PutUint32(buf[len(magic):], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[len(magic)+4:], crc32.Checksum(payload, crcTable))
	return buf
}

// unframeBlob validates and strips the startBlob/sealBlob layout.
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

// unframeVersioned strips the frame of a v2 file (magic) or of its v1
// predecessor (v1Magic) and reports which one it was.
func unframeVersioned(magic, v1Magic string, data []byte) (payload []byte, v1 bool, err error) {
	if len(data) >= len(v1Magic) && string(data[:len(v1Magic)]) == v1Magic {
		payload, err = unframeBlob(v1Magic, data)
		return payload, true, err
	}
	payload, err = unframeBlob(magic, data)
	return payload, false, err
}

// saveCheckpointFile atomically writes ck to path, encoding it into one
// buffer presized from the objects' encoded size.
func saveCheckpointFile(path string, ck *Checkpoint) error {
	size := 3 * binary.MaxVarintLen64
	for _, o := range ck.Objects {
		if o == nil {
			return fmt.Errorf("wal: nil object in checkpoint")
		}
		size += uncertain.MaxEncodedLen(o)
	}
	return writeFileAtomic(path, sealBlob(ckptMagic, appendCheckpoint(startBlob(ckptMagic, size), ck)))
}

// loadCheckpointFile reads a checkpoint installed by
// Journal.WriteCheckpoint, in either format version.
func loadCheckpointFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, v1, err := unframeVersioned(ckptMagic, ckptMagicV1, data)
	if err != nil {
		return nil, err
	}
	return decodeCheckpoint(payload, v1)
}

// Manifest is the router-level durable state of a sharded store: the
// shard count, the router mutation epoch of the last coordinated
// checkpoint and the per-shard versions of that cut. Per-shard logs
// carry the router epoch on every record, so recovery checks that the
// merged logical records with epoch > Manifest.Version continue it
// without a gap. The format keeps an order section (object IDs), which
// the writer leaves empty and the reader skips.
type Manifest struct {
	// Version is the router mutation epoch at the checkpoint.
	Version uint64
	// Shards is the shard count; shard i's journal lives in
	// subdirectory shard-i.
	Shards int
	// VV is the per-shard store version at the checkpoint — the version
	// vector of the coordinated cut.
	VV []uint64
}

// appendManifest encodes the manifest payload (format v2).
func appendManifest(buf []byte, m *Manifest) []byte {
	buf = binary.AppendUvarint(buf, m.Version)
	buf = binary.AppendUvarint(buf, uint64(m.Shards))
	buf = binary.AppendUvarint(buf, uint64(len(m.VV)))
	for _, v := range m.VV {
		buf = binary.AppendUvarint(buf, v)
	}
	return binary.AppendUvarint(buf, 0) // the empty order section
}

// decodeManifest decodes a manifest payload; the order section is read
// past. A v1 payload also carries a cache epoch after the shard count
// and, after the order, a section of per-object decomposition levels;
// both are read past and dropped.
func decodeManifest(b []byte, v1 bool) (*Manifest, error) {
	d := decoder{b: b}
	m := &Manifest{}
	m.Version = d.uvarint()
	m.Shards = int(d.uvarint())
	if v1 {
		d.uvarint() // cache epoch
	}
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
	for range d.count("order", 1) {
		d.varint()
	}
	if v1 {
		for range d.count("decomposition", 2) {
			d.varint() // object ID
			dim := int(d.uvarint())
			if d.err == nil && (dim < 1 || dim > uncertain.MaxCodecDim) {
				d.fail("decomposition entry dimensionality %d", dim)
			}
			d.skipLevels(dim)
			if d.err != nil {
				break
			}
		}
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
	size := (4 + len(m.VV)) * binary.MaxVarintLen64
	return writeFileAtomic(path, sealBlob(maniMagic, appendManifest(startBlob(maniMagic, size), m)))
}

// LoadManifest reads a manifest written by SaveManifest, in either
// format version. A missing file returns (nil, nil): the directory is
// fresh.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	payload, v1, err := unframeVersioned(maniMagic, maniMagicV1, data)
	if err != nil {
		return nil, err
	}
	return decodeManifest(payload, v1)
}
