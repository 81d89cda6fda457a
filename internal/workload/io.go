package workload

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"

	"probprune/internal/uncertain"
)

// The on-disk dataset format (.udb), a gzip stream of:
//
//	magic "probprune-udb", uvarint version, uvarint object count,
//	per object: uvarint length, then the object in the shared object
//	codec of uncertain.AppendObject — the write-ahead log's records.
//
// The format is internal to this repository's tools (cmd/udbgen writes
// it; cmd/udbquery, cmd/udbserver -db and cmd/experiments read it).

const (
	fileMagic   = "probprune-udb"
	fileVersion = 2
	// gobMagic is the header string of version 1 files, gob streams; it
	// sits within the stream's first hundred bytes, after gob's type
	// descriptors.
	gobMagic = "probprune-db"
	// maxRecord bounds one object record (2 GiB).
	maxRecord = 1 << 31
)

// Save writes the database to w. It stores the records uncompressed
// inside the gzip frame, which keeps gzip's CRC-32 over the stream:
// sample coordinates are mostly random mantissa bits, which deflate
// shrinks by about a tenth while making Load some 50 times slower.
// Load reads compressed files as well.
func Save(w io.Writer, db uncertain.Database) error {
	zw, err := gzip.NewWriterLevel(w, gzip.NoCompression)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(zw, 1<<16)
	buf := binary.AppendUvarint([]byte(fileMagic), fileVersion)
	bw.Write(binary.AppendUvarint(buf, uint64(len(db))))
	var rec []byte
	for _, o := range db {
		rec = uncertain.AppendObject(rec[:0], o)
		bw.Write(binary.AppendUvarint(buf[:0], uint64(len(rec))))
		bw.Write(rec)
	}
	// A bufio.Writer keeps its first error; Flush reports it.
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("workload: writing dataset: %w", err)
	}
	return zw.Close()
}

// Load reads a database written by Save. Files of the retired gob
// format (version 1) fail with an error that says so.
func Load(r io.Reader) (uncertain.Database, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("workload: opening stream: %w", err)
	}
	defer zr.Close()
	br := bufio.NewReaderSize(zr, 1<<16)
	if head, _ := br.Peek(len(fileMagic)); string(head) != fileMagic {
		if head, _ := br.Peek(128); bytes.Contains(head, []byte(gobMagic)) {
			return nil, fmt.Errorf("workload: dataset in the retired gob format (version 1); regenerate it with udbgen")
		}
		return nil, fmt.Errorf("workload: not a probprune database file")
	}
	br.Discard(len(fileMagic))
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("workload: decoding header: %w", err)
	}
	if version != fileVersion {
		return nil, fmt.Errorf("workload: unsupported version %d", version)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("workload: decoding header: %w", err)
	}
	// The count is untrusted until the objects decode: never
	// pre-allocate more than a sane chunk up front; append grows the
	// slice as objects actually arrive.
	db := make(uncertain.Database, 0, min(count, 1<<16))
	var rec []byte
	for i := uint64(0); i < count; i++ {
		n, err := binary.ReadUvarint(br)
		if err == nil && n > maxRecord {
			err = fmt.Errorf("record length %d", n)
		}
		if err == nil {
			rec, err = readRecord(br, rec, int(n))
		}
		if err != nil {
			return nil, fmt.Errorf("workload: reading object %d: %w", i, err)
		}
		o, used, err := uncertain.DecodeObject(rec)
		if err == nil && used != len(rec) {
			err = fmt.Errorf("%d trailing bytes", len(rec)-used)
		}
		if err != nil {
			return nil, fmt.Errorf("workload: object %d invalid: %w", i, err)
		}
		db = append(db, o)
	}
	// Read to EOF so the gzip trailer (checksum) is verified; a
	// truncated or corrupted stream must not load silently.
	switch _, err := br.ReadByte(); err {
	case io.EOF:
		return db, nil
	case nil:
		return nil, fmt.Errorf("workload: trailing data after %d objects", count)
	default:
		return nil, fmt.Errorf("workload: verifying stream: %w", err)
	}
}

// readRecord reads the next n bytes into buf's storage. It grows buf
// at most a megabyte ahead of the bytes that actually arrive, so a
// corrupt length cannot allocate more than the input holds.
func readRecord(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		chunk := min(n-len(buf), 1<<20)
		buf = slices.Grow(buf, chunk)
		got, err := io.ReadFull(r, buf[len(buf):len(buf)+chunk])
		buf = buf[:len(buf)+got]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// SaveFile writes the database to path.
func SaveFile(path string, db uncertain.Database) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Save(f, db); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a database from path.
func LoadFile(path string) (uncertain.Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
