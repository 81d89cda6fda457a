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
	// Objects is the object database; stores write it shard by shard, in
	// ascending ID order within each shard, and the file keeps whatever
	// order it is given.
	Objects []*uncertain.Object
	// Shards, for a store of more than one shard, holds each shard's
	// version and object count: shard i's objects follow shard i-1's in
	// Objects. Nil for one shard, whose version is Version. It is
	// written as a trailer after the objects; nil writes none, so a
	// one-shard file holds the version and the objects only.
	Shards []ShardState

	// firstSegment is the log-tail watermark: recovery replays segments
	// with index >= firstSegment on top of this snapshot. Managed by
	// Journal.InstallCheckpoint.
	firstSegment uint64
}

// ShardState is one shard's section of a multi-shard checkpoint.
type ShardState struct {
	Version uint64 // the shard's version at the checkpoint
	Len     int    // the number of its objects
}

// appendCheckpoint encodes the checkpoint payload (format v2).
func appendCheckpoint(buf []byte, ck *Checkpoint) []byte {
	buf = binary.AppendUvarint(buf, ck.Version)
	buf = binary.AppendUvarint(buf, ck.firstSegment)
	buf = binary.AppendUvarint(buf, uint64(len(ck.Objects)))
	for _, o := range ck.Objects {
		buf = uncertain.AppendObject(buf, o)
	}
	if ck.Shards == nil {
		return buf
	}
	buf = binary.AppendUvarint(buf, uint64(len(ck.Shards)))
	for _, sh := range ck.Shards {
		buf = binary.AppendUvarint(buf, sh.Version)
		buf = binary.AppendUvarint(buf, uint64(sh.Len))
	}
	return buf
}

// decodeCheckpoint decodes a checkpoint payload. A v1 payload also
// carries a cache epoch after the watermark and, after the objects, one
// level section per object; both are read past and dropped. A v2
// payload may end in the shard trailer, whose counts must add up to the
// objects.
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
	} else if len(d.b) != 0 {
		ck.Shards = d.shards(len(ck.Objects))
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes after checkpoint", len(d.b))
	}
	return ck, nil
}

// shards reads a checkpoint's shard trailer: a shard count of at least
// one, then each shard's version and object count, the counts adding
// up to n.
func (d *decoder) shards(n int) []ShardState {
	m := d.count("shard", 2)
	if d.err == nil && m == 0 {
		d.fail("empty shard trailer")
	}
	out := make([]ShardState, m)
	rest := uint64(n)
	for i := range out {
		out[i].Version = d.uvarint()
		k := d.uvarint()
		if d.err == nil && k > rest {
			d.fail("shard %d holds %d objects, %d are left", i, k, rest)
		}
		out[i].Len, rest = int(k), rest-k
	}
	if d.err == nil && rest != 0 {
		d.fail("shards hold %d fewer objects than the checkpoint", rest)
	}
	return out
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
// frames in place: [magic][len][crc][payload], the layout of checkpoint
// files.
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
	size := (4 + 2*len(ck.Shards)) * binary.MaxVarintLen64
	for _, o := range ck.Objects {
		if o == nil {
			return fmt.Errorf("wal: nil object in checkpoint")
		}
		size += uncertain.MaxEncodedLen(o)
	}
	return writeFileAtomic(path, sealBlob(ckptMagic, appendCheckpoint(startBlob(ckptMagic, size), ck)))
}

// loadCheckpointFile reads a checkpoint installed by
// Journal.InstallCheckpoint, in either format version.
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
