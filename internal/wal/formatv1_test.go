package wal

import (
	"encoding/binary"
	"math"

	"probprune/internal/uncertain"
)

// The format-v1 checkpoint and manifest writers, kept as test fixtures
// for the v1 reader: v1 persisted a decomposition-cache epoch and each
// object's materialized kd-tree levels, which v2 dropped. Both versions
// of the manifest carried a global order, which the writer now leaves
// empty; v2ManifestFile writes one.

// frameBlob frames a finished payload as a file.
func frameBlob(magic string, payload []byte) []byte {
	return sealBlob(magic, append(startBlob(magic, len(payload)), payload...))
}

// v1Levels is one object's v1 decomposition section, keyed for the
// manifest by object ID and dimensionality.
type v1Levels struct {
	ID, Dim int
	Levels  [][]uncertain.Partition
}

// v1CheckpointFile frames ck as a v1 checkpoint file carrying the cache
// epoch and levels (parallel to ck.Objects; nil entries or a nil slice
// write empty sections).
func v1CheckpointFile(ck *Checkpoint, epoch uint64, levels [][][]uncertain.Partition) []byte {
	buf := binary.AppendUvarint(nil, ck.Version)
	buf = binary.AppendUvarint(buf, ck.firstSegment)
	buf = binary.AppendUvarint(buf, epoch)
	buf = binary.AppendUvarint(buf, uint64(len(ck.Objects)))
	for _, o := range ck.Objects {
		buf = uncertain.AppendObject(buf, o)
	}
	for i := range ck.Objects {
		var l [][]uncertain.Partition
		if levels != nil {
			l = levels[i]
		}
		buf = appendV1Levels(buf, l)
	}
	return frameBlob(ckptMagicV1, buf)
}

// v1ManifestFile frames m as a v1 manifest file carrying the cache
// epoch, a global order and decomposition entries.
func v1ManifestFile(m *Manifest, epoch uint64, order []int, entries []v1Levels) []byte {
	buf := binary.AppendUvarint(nil, m.Version)
	buf = binary.AppendUvarint(buf, uint64(m.Shards))
	buf = binary.AppendUvarint(buf, epoch)
	buf = appendVVOrder(buf, m, order)
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = binary.AppendVarint(buf, int64(e.ID))
		buf = binary.AppendUvarint(buf, uint64(e.Dim))
		buf = appendV1Levels(buf, e.Levels)
	}
	return frameBlob(maniMagicV1, buf)
}

// v2ManifestFile frames m as a v2 manifest file carrying a global
// order, as stores wrote it before the order was dropped.
func v2ManifestFile(m *Manifest, order []int) []byte {
	buf := binary.AppendUvarint(nil, m.Version)
	buf = binary.AppendUvarint(buf, uint64(m.Shards))
	return frameBlob(maniMagic, appendVVOrder(buf, m, order))
}

// appendVVOrder writes the version vector and order sections.
func appendVVOrder(buf []byte, m *Manifest, order []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(m.VV)))
	for _, v := range m.VV {
		buf = binary.AppendUvarint(buf, v)
	}
	buf = binary.AppendUvarint(buf, uint64(len(order)))
	for _, id := range order {
		buf = binary.AppendVarint(buf, int64(id))
	}
	return buf
}

// appendV1Levels writes a level count, then per level a partition count
// and each partition's MBR (Min, then Max) and probability.
func appendV1Levels(buf []byte, levels [][]uncertain.Partition) []byte {
	f := func(buf []byte, x float64) []byte {
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	buf = binary.AppendUvarint(buf, uint64(len(levels)))
	for _, parts := range levels {
		buf = binary.AppendUvarint(buf, uint64(len(parts)))
		for _, p := range parts {
			for _, c := range p.MBR.Min {
				buf = f(buf, c)
			}
			for _, c := range p.MBR.Max {
				buf = f(buf, c)
			}
			buf = f(buf, p.Prob)
		}
	}
	return buf
}

// v1TestLevels materializes 1..4 levels of each object's kd-tree, the
// way a warm v1 store persisted them.
func v1TestLevels(db []*uncertain.Object) [][][]uncertain.Partition {
	levels := make([][][]uncertain.Partition, len(db))
	for i, o := range db {
		tree := uncertain.NewDecompTree(o, 0)
		for l := 0; l <= i%4; l++ {
			levels[i] = append(levels[i], tree.PartitionsAtLevel(l))
		}
	}
	return levels
}
