// Package store implements persistent storage for GODDAG documents — the
// framework component the paper reports as "currently underway" (§1:
// "Work on building persistent storage solutions").
//
// Two on-disk formats share the "GDAG" magic and differ in the version
// byte:
//
// Version 3 (written by Save since PR 10; see v3.go and mapped.go) is a
// section-table layout built for open-without-decode. After the header
// comes a directory of {id, length, offset, CRC-32C} entries, a header
// checksum, and 8-byte-aligned little-endian section payloads: the raw
// content bytes, a string table, fixed-stride element columns (tag id,
// span start/end, parent, pre-order interval, ordinal, attribute
// prefix), the partition cuts, and the serialized derived indexes
// (ordinal tables, document order, name buckets, span segment tree).
// OpenMapped* validates the header and directory; Mapped.Document then
// runs every section checksum and the structural checks of the columns
// — the one point where a v3 image can fail — and hands goddag a lazily
// materializing view over the validated columns; Decode on a v3 stream
// reads it through the same path.
//
// Version 2 is the legacy streaming varint format:
//
//	header:  magic "GDAG", version byte
//	body:    root tag, content, hierarchy count,
//	         per hierarchy: name, element count,
//	         per element (document order): tag, span start/length (varint),
//	         attribute count, attributes (name, value)
//	footer:  CRC-32 (Castagnoli) of everything before it
//
// Strings are length-prefixed (uvarint) UTF-8; integers are uvarints.
// Since version 2, spans are *byte* offsets into the UTF-8 content (the
// GODDAG's native coordinates); version 1 files, whose spans were rune
// offsets, are rejected rather than silently misread.
// Elements are stored per hierarchy in pre-order. Loading hands them to
// goddag's Document.LoadRecords, the record path every importer shares:
// one sort into document order, leaf boundaries pre-cut in one batch,
// and each element placed by goddag.BulkBuilder in O(1) amortized time.
// Files whose elements are out of order (never written by Encode) load
// the same way.
//
// Every writer of documents writes v3 (Save, core.Document.Save, the
// catalog's saves and WAL snapshots), so any v2 file migrates to v3 on
// its next save. Encode still writes v2 for one live reader, the legacy
// WAL fingerprint (Fingerprint), which gates RecordOps records that
// earlier versions logged, and for tests that need v2 bytes.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"path/filepath"
	"syscall"

	"repro/internal/document"
	"repro/internal/faultfs"
	"repro/internal/goddag"
)

// magic identifies the file format; version allows evolution.
const (
	magic   = "GDAG"
	version = 2
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Encode writes doc to w in the legacy v2 stream format; documents are
// saved as v3 (EncodeV3). See the package comment for its remaining use.
func Encode(w io.Writer, doc *goddag.Document) error {
	bw := bufio.NewWriter(w)
	h := crc32.New(crcTable)
	e := &encoder{w: io.MultiWriter(bw, h)}

	e.raw([]byte(magic))
	e.byte(version)
	e.str(doc.RootTag())
	e.str(doc.Content().String())
	hiers := doc.Hierarchies()
	e.uint(uint64(len(hiers)))
	for _, hier := range hiers {
		e.str(hier.Name())
		els := hier.Elements()
		e.uint(uint64(len(els)))
		for _, el := range els {
			e.str(el.Name())
			sp := el.Span()
			e.uint(uint64(sp.Start))
			e.uint(uint64(sp.End - sp.Start))
			attrs := el.Attrs()
			e.uint(uint64(len(attrs)))
			for _, a := range attrs {
				e.str(a.Name)
				e.str(a.Value)
			}
		}
	}
	if e.err != nil {
		return fmt.Errorf("store: encode: %w", e.err)
	}
	// Footer: checksum of everything written so far.
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], h.Sum32())
	if _, err := bw.Write(sum[:]); err != nil {
		return fmt.Errorf("store: encode: %w", err)
	}
	return bw.Flush()
}

// Save writes doc to path atomically in the v3 format: it encodes into
// a temporary file in the target's directory, syncs it, and renames it
// over the target. A crash or encode failure never leaves a partial
// file at path — the durability contract the catalog's save-on-commit
// persistence relies on. Output is deterministic for a given document,
// so saving and reloading reproduces the file byte-identically. Saving
// a document loaded from a v2 file is the v2→v3 migration.
func Save(path string, doc *goddag.Document) error {
	return SaveFS(faultfs.OS, path, doc)
}

// SaveFS is Save running on an injectable filesystem, so tests can
// fail or tear any write, sync, or rename in the sequence. All
// durability-relevant errors propagate, including the directory sync
// that makes the rename itself survive power loss; only errnos that
// mean "this filesystem does not support directory fsync" are
// tolerated (the rename is then as durable as the platform allows).
func SaveFS(fsys faultfs.FS, path string, doc *goddag.Document) error {
	return save(fsys, path, func(f faultfs.File) error { return EncodeV3(f, doc) })
}

// SaveImageFS is SaveFS for a document already encoded: it writes img,
// a v3 image (MarshalV3), through the same temp-file, sync, rename and
// directory-sync sequence.
func SaveImageFS(fsys faultfs.FS, path string, img []byte) error {
	return save(fsys, path, func(f faultfs.File) error {
		if _, err := f.Write(img); err != nil {
			return fmt.Errorf("store: save: %w", err)
		}
		return nil
	})
}

// save is the atomic save sequence around write, which fills the
// temporary file.
func save(fsys faultfs.FS, path string, write func(faultfs.File) error) error {
	f, err := fsys.CreateTemp(filepath.Dir(path), ".gdag-tmp-*")
	if err != nil {
		return fmt.Errorf("store: save: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if tmp != "" {
			fsys.Remove(tmp)
		}
	}()
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: save: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: save: %w", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: save: %w", err)
	}
	tmp = "" // renamed; nothing to clean up
	// Sync the directory so the rename itself is durable: without it a
	// power loss after a successful Save can roll the directory entry
	// back to the old file. Failures are saved state NOT being durable
	// and must be visible to the caller — the WAL keeps the edit
	// replayable exactly because this error is not swallowed.
	dir, err := fsys.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("store: save: sync dir: %w", err)
	}
	if err := dir.Sync(); err != nil && !unsupportedSync(err) {
		dir.Close()
		return fmt.Errorf("store: save: sync dir: %w", err)
	}
	return dir.Close()
}

// unsupportedSync reports errnos meaning the filesystem cannot fsync a
// directory at all (rather than that the sync failed).
func unsupportedSync(err error) bool {
	return errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) ||
		errors.Is(err, syscall.ENOTTY)
}

// Decode reads a document in the binary GODDAG format, either version:
// v2 streams through the varint reader below; v3 is read whole and
// materialized through the mapped reader with full validation.
func Decode(r io.Reader) (*goddag.Document, error) {
	br := bufio.NewReader(r)
	if head, err := br.Peek(5); err == nil && string(head[:4]) == magic && head[4] == v3Version {
		data, err := io.ReadAll(br)
		if err != nil {
			return nil, fmt.Errorf("store: decode: %w", err)
		}
		return decodeV3Bytes(data)
	}
	doc, records, err := readBody(br)
	if err != nil {
		return nil, err
	}
	if err := doc.LoadRecords(records); err != nil {
		return nil, fmt.Errorf("store: decode: %w", err)
	}
	return doc, nil
}

// readBody reads and checksums the whole file, returning the empty
// document (content + hierarchies registered) and the element records
// still to be loaded. Each hierarchy lists its elements in pre-order,
// outer before inner on equal spans, so the records are numbered in
// reverse.
func readBody(r io.Reader) (*goddag.Document, []goddag.Record, error) {
	h := crc32.New(crcTable)
	d := &decoder{r: bufio.NewReader(r), h: h}

	head := d.raw(4)
	if d.err == nil && string(head) != magic {
		return nil, nil, fmt.Errorf("store: bad magic %q", head)
	}
	if v := d.byte(); d.err == nil && v != version {
		return nil, nil, fmt.Errorf("store: unsupported version %d", v)
	}
	rootTag := d.str()
	content := d.str()
	if d.err != nil {
		return nil, nil, fmt.Errorf("store: decode: %w", d.err)
	}
	doc := goddag.New(rootTag, content)

	var records []goddag.Record
	nh := d.uint()
	for i := uint64(0); i < nh && d.err == nil; i++ {
		name := d.str()
		if doc.Hierarchy(name) != nil {
			return nil, nil, fmt.Errorf("store: duplicate hierarchy %q", name)
		}
		doc.AddHierarchy(name)
		ne := d.uint()
		for j := uint64(0); j < ne && d.err == nil; j++ {
			tag := d.str()
			start := d.uint()
			length := d.uint()
			na := d.uint()
			var attrs []goddag.Attr
			for k := uint64(0); k < na && d.err == nil; k++ {
				an := d.str()
				av := d.str()
				attrs = append(attrs, goddag.Attr{Name: an, Value: av})
			}
			records = append(records, goddag.Record{
				Hier: int(i), Tag: tag, Attrs: attrs,
				Span: document.NewSpan(int(start), int(start+length)),
				Seq:  -len(records),
			})
		}
	}
	if d.err != nil {
		return nil, nil, fmt.Errorf("store: decode: %w", d.err)
	}
	// Verify the checksum before mutating further: the footer is read
	// outside the hash.
	want := h.Sum32()
	var sum [4]byte
	if _, err := io.ReadFull(d.r, sum[:]); err != nil {
		return nil, nil, fmt.Errorf("store: decode: missing checksum: %w", err)
	}
	if got := binary.BigEndian.Uint32(sum[:]); got != want {
		return nil, nil, fmt.Errorf("store: checksum mismatch: file %08x, computed %08x", got, want)
	}
	return doc, records, nil
}

// encoder writes primitives, remembering the first error.
type encoder struct {
	w   io.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

func (e *encoder) raw(b []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(b)
}

func (e *encoder) byte(b byte) { e.raw([]byte{b}) }

func (e *encoder) uint(v uint64) {
	n := binary.PutUvarint(e.buf[:], v)
	e.raw(e.buf[:n])
}

func (e *encoder) str(s string) {
	e.uint(uint64(len(s)))
	e.raw([]byte(s))
}

// decoder reads primitives, hashing everything it consumes.
type decoder struct {
	r   *bufio.Reader
	h   hash.Hash32
	err error
}

func (d *decoder) raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	// Read in bounded chunks so a corrupted length field cannot allocate
	// n bytes up front: memory grows only with data actually present in
	// the input, and a truncated file fails with ErrUnexpectedEOF after
	// at most one chunk of overshoot.
	const chunk = 64 << 10
	if n <= chunk {
		b := make([]byte, n)
		if _, err := io.ReadFull(d.r, b); err != nil {
			d.err = err
			return nil
		}
		d.h.Write(b)
		return b
	}
	b := make([]byte, 0, chunk)
	for len(b) < n {
		m := n - len(b)
		if m > chunk {
			m = chunk
		}
		start := len(b)
		b = append(b, make([]byte, m)...)
		if _, err := io.ReadFull(d.r, b[start:]); err != nil {
			d.err = err
			return nil
		}
	}
	d.h.Write(b)
	return b
}

func (d *decoder) byte() byte {
	b := d.raw(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(hashingByteReader{d})
	if err != nil {
		d.err = err
		return 0
	}
	return v
}

const maxString = 1 << 30 // sanity bound against corrupted lengths

func (d *decoder) str() string {
	n := d.uint()
	if d.err != nil {
		return ""
	}
	if n > maxString {
		d.err = fmt.Errorf("string length %d exceeds limit", n)
		return ""
	}
	return string(d.raw(int(n)))
}

// hashingByteReader feeds single bytes to ReadUvarint while keeping the
// checksum in sync.
type hashingByteReader struct{ d *decoder }

// ReadByte implements io.ByteReader.
func (r hashingByteReader) ReadByte() (byte, error) {
	b, err := r.d.r.ReadByte()
	if err != nil {
		return 0, err
	}
	r.d.h.Write([]byte{b})
	return b, nil
}
