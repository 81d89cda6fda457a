package wal

import (
	"encoding/binary"
	"math"

	"probprune/internal/uncertain"
)

// The format-v1 checkpoint writer, kept as a test fixture for the v1
// reader: v1 persisted a decomposition-cache epoch and each object's
// materialized kd-tree levels, which v2 dropped.

// frameBlob frames a finished payload as a file.
func frameBlob(magic string, payload []byte) []byte {
	return sealBlob(magic, append(startBlob(magic, len(payload)), payload...))
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
