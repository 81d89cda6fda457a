package wal

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzWALDecode feeds arbitrary bytes to the segment reader as a
// complete segment file. The decoder must never panic or allocate
// proportionally to a forged length prefix, must stop cleanly at the
// first damaged frame, and every record it does accept must re-encode
// to a payload that decodes back to the same record (the codec is
// injective on its image). The checked-in seed corpus covers an empty
// segment, a multi-record segment, a torn tail and a checkpoint blob.
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	f.Add(seedSegment(f, 1))
	f.Add(seedSegment(f, 2)[:40])
	f.Add(append(seedSegment(f, 3), 1, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var recs []Record
		end, err := replaySegment(path, func(r Record) error { recs = append(recs, r); return nil })
		if err != nil {
			t.Fatalf("replaySegment errored on fuzz input: %v", err)
		}
		if end > int64(len(data)) {
			t.Fatalf("good end %d beyond input length %d", end, len(data))
		}
		for _, r := range recs {
			payload, err := appendRecord(nil, r)
			if err != nil {
				t.Fatalf("decoded record does not re-encode: %v (%+v)", err, r)
			}
			back, err := decodeRecord(payload)
			if err != nil {
				t.Fatalf("re-encoded record does not decode: %v", err)
			}
			if !reflect.DeepEqual(r, back) {
				t.Fatalf("codec not injective:\n%+v\n%+v", r, back)
			}
		}
		// A full journal open over the same bytes must also recover
		// (possibly truncating) without error.
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open errored on fuzz input: %v", err)
		}
		if err := j.Replay(nil); err != nil {
			t.Fatalf("Replay errored on fuzz input: %v", err)
		}
		j.Close()
	})
}

// seedSegment builds a valid segment with n records for the corpus.
func seedSegment(f *testing.F, seed int64) []byte {
	f.Helper()
	dir := f.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	if err := j.Replay(nil); err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 3; i++ {
		if err := j.Append(testRecord(f, rng, uint64(i+1))); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzCheckpointDecode targets the checkpoint blob codec, shard trailer
// included: arbitrary bytes must decode or fail cleanly, and whatever
// decodes, as v2 or as v1 (whose decomposition levels and cache epoch
// are read past), must re-encode as v2 and decode back unchanged (byte
// equality is deliberately not asserted — varints have non-minimal
// encodings).
func FuzzCheckpointDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(ckptMagic))
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.ckpt")
	db := mustSynthetic(f, 3, 4)
	if err := saveCheckpointFile(path, &Checkpoint{Version: 3, Objects: db}); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(v1CheckpointFile(&Checkpoint{Version: 3, Objects: db}, 5, v1TestLevels(db)))
	// Shard trailers: four shards, two with an empty one, one shard,
	// counts that overrun the objects, and counts that fall short.
	for _, shards := range [][]ShardState{
		{{2, 1}, {0, 0}, {5, 1}, {1, 1}},
		{{3, 3}, {0, 0}},
		{{8, 3}},
		{{3, 2}, {4, 2}},
		{{3, 1}, {4, 1}},
	} {
		f.Add(frameBlob(ckptMagic, appendCheckpoint(nil, &Checkpoint{Version: 8, Objects: db, Shards: shards})))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if payload, v1, err := unframeVersioned(ckptMagic, ckptMagicV1, data); err == nil {
			if ck, err := decodeCheckpoint(payload, v1); err == nil {
				ck2, err := decodeCheckpoint(appendCheckpoint(nil, ck), false)
				if err != nil || !reflect.DeepEqual(ck, ck2) {
					t.Fatalf("checkpoint round trip changed (%v)", err)
				}
			}
		}
	})
}
