// Write-ahead log for edit transactions. Each catalogued document gets
// one append-only segment (<id>.wal) next to its .gdag file: the edit
// path appends the serialized op batch (the HTTP edit wire format,
// package editor's Batch) and fsyncs it BEFORE the batch is applied and
// the document's indexes repaired, so a crash anywhere between commit
// and the next successful atomic save loses nothing — reopening replays
// the surviving tail through the transaction API. A successful save
// resets the log to empty; the log therefore only grows while saves
// fail.
//
// Segment layout:
//
//	header:  magic "GWAL", version byte (1 or 2, see below)
//	records: kind byte ('B' op batch JSON, 'O' legacy op batch JSON,
//	         'S' full-document snapshot: a v3 image, or a v2 stream in
//	         segments written before v3),
//	         pre-state fingerprint (4 bytes BE; zero for snapshots),
//	         payload length (uvarint), payload,
//	         CRC-32 (Castagnoli) of everything since the kind byte (4 bytes BE)
//
// Records are self-checking: replay scans forward and stops at the
// first record whose frame is incomplete or whose checksum fails — by
// construction (appends are sequential and fsynced one record at a
// time) damage can only be a tail, which OpenWAL truncates away. That
// is exactly the state a power cut mid-append leaves behind.
//
// The pre-state fingerprint makes replay exactly-once: an op-batch
// record only applies when the document it is replayed onto has the
// fingerprint the batch was logged against. If a crash lands in the
// small window where the save's rename committed but the log reset did
// not (or the rename's directory sync failed), the stale records'
// fingerprints no longer match the saved base and replay skips them
// instead of applying the batch twice. A RecordBatch is stamped with
// ImageFingerprint of the pre-state's v3 image, which the editing
// session already holds. A legacy RecordOps record, which earlier
// versions wrote and replay still reads, is stamped with Fingerprint, a
// CRC of the pre-state's v2 encoding. Both stamps are functions of the
// document state: each side of the gate computes its stamp from a
// document, never from file bytes, so a base file that differs from
// MarshalV3 of its own decode still gates correctly. Snapshot records
// carry the post-state document wholesale and need no fingerprint.
//
// Versions: readers from before RecordBatch accept only header version
// 1 and stop their scan at an unknown kind, truncating the rest as a
// torn tail; they would silently drop acknowledged edits. So the first
// RecordBatch appended to a version-1 segment first rewrites the header
// as version 2 (fsynced), which those readers reject, failing the load
// instead. Fresh segments start at version 1 and Reset keeps the
// version. To downgrade, converge every log (an empty segment is
// WALHeaderLen bytes) and delete the .wal files. OpenWAL reads both
// versions.
//
// A WAL is single-writer: the catalog serializes appends under each
// document's write lock. Appends that fail part-way rewind the file to
// the last durable record boundary so the segment stays well-formed.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/faultfs"
	"repro/internal/goddag"
)

// WAL segment format constants.
const (
	walMagic = "GWAL"
	// A version-1 segment holds no RecordBatch; a version-2 one may.
	walVersion1 = 1
	walVersion2 = 2

	// WALHeaderLen is the byte length of the segment header; an empty
	// (fully truncated) log is exactly this long.
	WALHeaderLen = 5
)

// RecordKind discriminates WAL records.
type RecordKind byte

// The record kinds.
const (
	// RecordBatch is a serialized editor op batch (editor.Batch JSON,
	// the same bytes the HTTP edit endpoint accepts), logged before the
	// batch is applied and stamped with ImageFingerprint of the
	// pre-state's v3 image. Replay re-applies it through the
	// transaction API when the stamp matches.
	RecordBatch RecordKind = 'B'
	// RecordOps is the legacy op-batch record: the same payload stamped
	// with Fingerprint (v2). Earlier versions wrote it; replay still
	// reads it, with the v2 gate.
	RecordOps RecordKind = 'O'
	// RecordSnapshot is a full document as a v3 image (MarshalV3),
	// logged after an undo or redo, whose effect is not an op batch.
	// Replay replaces the document wholesale, which is naturally
	// idempotent. Payloads logged by earlier versions are v2 streams and
	// still replay: Decode reads either version.
	RecordSnapshot RecordKind = 'S'
)

// Record is one recovered WAL entry.
type Record struct {
	Kind RecordKind
	// Pre is the fingerprint of the document state the record was
	// logged against: ImageFingerprint of its v3 image for RecordBatch,
	// Fingerprint for RecordOps, zero for RecordSnapshot.
	Pre uint32
	// Payload is the record body: editor.Batch JSON or a .gdag image.
	Payload []byte
}

// WAL is one open write-ahead log segment.
type WAL struct {
	fsys    faultfs.FS
	path    string
	f       faultfs.File
	size    int64 // header + complete durable records
	version byte  // header version byte on disk
}

// maxWALRecord bounds a single record payload against corrupted length
// fields; a larger length is treated as a torn tail.
const maxWALRecord = 1 << 30

// OpenWAL opens (creating if necessary) the write-ahead log at path and
// scans it: the surviving complete records are returned for replay and
// any torn tail is truncated away, so subsequent appends extend a
// well-formed segment. A nil record slice means the log was empty.
func OpenWAL(fsys faultfs.FS, path string) (*WAL, []Record, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: wal %s: %w", path, err)
	}
	w := &WAL{fsys: fsys, path: path, f: f}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: wal %s: %w", path, err)
	}
	if len(data) < WALHeaderLen {
		// Fresh (or torn-at-birth) segment: write the header.
		if err := w.reinit(); err != nil {
			f.Close()
			return nil, nil, err
		}
		return w, nil, nil
	}
	if string(data[:4]) != walMagic || (data[4] != walVersion1 && data[4] != walVersion2) {
		f.Close()
		return nil, nil, fmt.Errorf("store: wal %s: bad header %q version %d", path, data[:4], data[4])
	}
	w.version = data[4]
	recs, good := ScanWALRecords(data[WALHeaderLen:])
	w.size = WALHeaderLen + good
	if int64(len(data)) > w.size {
		// Torn tail from a crash mid-append: cut it so the segment ends
		// on a record boundary again.
		if err := fsys.Truncate(path, w.size); err != nil {
			f.Close()
			return nil, recs, fmt.Errorf("store: wal %s: truncating torn tail: %w", path, err)
		}
	}
	return w, recs, nil
}

// ScanWALRecords parses the record region of a WAL segment (everything
// after the header), returning the complete records and the byte length
// of the valid prefix. The scan stops at the first incomplete or
// checksum-failing record — appends are sequential, so any damage is a
// tail. It never fails: corrupt input just shortens the valid prefix.
func ScanWALRecords(data []byte) ([]Record, int64) {
	var recs []Record
	off := int64(0)
	for off < int64(len(data)) {
		rest := data[off:]
		// kind(1) + pre(4) + len(>=1) + crc(4)
		if len(rest) < 10 {
			break
		}
		kind := RecordKind(rest[0])
		if kind != RecordBatch && kind != RecordOps && kind != RecordSnapshot {
			break
		}
		pre := binary.BigEndian.Uint32(rest[1:5])
		n, ln := binary.Uvarint(rest[5:])
		if ln <= 0 || n > maxWALRecord {
			break
		}
		body := 1 + 4 + ln + int(n)
		if int64(body)+4 > int64(len(rest)) {
			break
		}
		payload := rest[5+ln : body]
		want := binary.BigEndian.Uint32(rest[body : body+4])
		if crc32.Checksum(rest[:body], crcTable) != want {
			break
		}
		recs = append(recs, Record{Kind: kind, Pre: pre, Payload: payload})
		off += int64(body) + 4
	}
	return recs, off
}

// appendFrame appends one framed record to dst: kind, pre-state
// fingerprint, uvarint payload length, payload, CRC over all of it.
func appendFrame(dst []byte, kind RecordKind, pre uint32, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, byte(kind))
	dst = binary.BigEndian.AppendUint32(dst, pre)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable))
}

// reinit truncates the segment to empty and writes a fresh version-1
// header: until a RecordBatch is appended, every reader can open it.
func (w *WAL) reinit() error {
	if err := w.fsys.Truncate(w.path, 0); err != nil {
		return fmt.Errorf("store: wal %s: %w", w.path, err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: wal %s: %w", w.path, err)
	}
	hdr := append([]byte(walMagic), walVersion1)
	if _, err := w.f.Write(hdr); err != nil {
		return fmt.Errorf("store: wal %s: %w", w.path, err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: wal %s: %w", w.path, err)
	}
	w.size, w.version = WALHeaderLen, walVersion1
	return nil
}

// upgrade rewrites a version-1 header as version 2 and fsyncs it, so
// that readers which cannot parse RecordBatch reject the segment
// before one is appended (see the package comment).
func (w *WAL) upgrade() error {
	if _, err := w.f.Seek(int64(len(walMagic)), io.SeekStart); err != nil {
		return fmt.Errorf("store: wal %s: upgrade: %w", w.path, err)
	}
	if _, err := w.f.Write([]byte{walVersion2}); err != nil {
		return fmt.Errorf("store: wal %s: upgrade: %w", w.path, err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: wal %s: upgrade: %w", w.path, err)
	}
	w.version = walVersion2
	return nil
}

// Size returns the durable length of the segment. Capture it before an
// Append to Rewind a record whose transaction was later vetoed.
func (w *WAL) Size() int64 { return w.size }

// Empty reports whether the segment holds no records.
func (w *WAL) Empty() bool { return w.size <= WALHeaderLen }

// Path returns the segment's file path.
func (w *WAL) Path() string { return w.path }

// Append frames, writes, and fsyncs one record. On failure it rewinds
// the file to the previous durable boundary (best-effort) and the
// caller must treat the record as NOT logged: after a write or sync
// error the on-disk state is indeterminate until the rewind, which
// restores it. Only a successful Append makes the record durable — it
// is the commit point of the logged-edit path. The first RecordBatch
// appended to a version-1 segment upgrades its header first.
func (w *WAL) Append(kind RecordKind, pre uint32, payload []byte) error {
	if kind == RecordBatch && w.version != walVersion2 {
		if err := w.upgrade(); err != nil {
			return err
		}
	}
	frame := appendFrame(make([]byte, 0, 1+4+binary.MaxVarintLen64+len(payload)+4), kind, pre, payload)
	if _, err := w.f.Seek(w.size, io.SeekStart); err != nil {
		return fmt.Errorf("store: wal append: %w", err)
	}
	if _, err := w.f.Write(frame); err != nil {
		w.rewind()
		return fmt.Errorf("store: wal append: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		w.rewind()
		return fmt.Errorf("store: wal append: %w", err)
	}
	w.size += int64(len(frame))
	return nil
}

// rewind truncates back to the durable size after a failed append,
// best-effort: if the truncate itself fails, the tail is torn and the
// next OpenWAL's scan will cut it (the record's checksum only went to
// disk if the full frame did — and a complete frame is re-skipped at
// replay only if its pre-state fingerprint still matches, which an
// error-reported batch legitimately does: re-applying it is the
// documented at-least-once outcome of an indeterminate append).
func (w *WAL) rewind() {
	_ = w.fsys.Truncate(w.path, w.size)
}

// Rewind truncates the segment back to size (a value previously
// returned by Size), dropping records appended after it — used to
// unlog a batch whose transaction was vetoed after its intent was
// appended.
func (w *WAL) Rewind(size int64) error {
	if size < WALHeaderLen || size > w.size {
		return fmt.Errorf("store: wal rewind to %d outside [%d,%d]", size, WALHeaderLen, w.size)
	}
	if err := w.fsys.Truncate(w.path, size); err != nil {
		return fmt.Errorf("store: wal rewind: %w", err)
	}
	w.size = size
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: wal rewind: %w", err)
	}
	return nil
}

// Reset empties the segment after a successful save: the .gdag file now
// carries the state, so the log's records are spent.
func (w *WAL) Reset() error {
	if err := w.Rewind(WALHeaderLen); err != nil {
		return err
	}
	return nil
}

// Close releases the file handle. The segment stays on disk for the
// next open.
func (w *WAL) Close() error { return w.f.Close() }

// ImageFingerprint is the pre-state stamp of a RecordBatch: the
// directory CRC that MarshalV3 writes after the section table of img.
// That CRC covers the header and every section's id, length, offset and
// CRC-32C, so it changes with any section whose CRC-32C does; reading
// it is O(1). A slice too short to hold the directory its header announces is
// not a MarshalV3 image and is fingerprinted by a CRC over all of it.
func ImageFingerprint(img []byte) uint32 {
	if len(img) >= v3HeaderLen {
		if nsec := binary.LittleEndian.Uint32(img[8:]); nsec <= v3MaxSections {
			if dirEnd := v3HeaderLen + int(nsec)*v3EntryLen; len(img) >= dirEnd+4 {
				return binary.LittleEndian.Uint32(img[dirEnd:])
			}
		}
	}
	return crc32.Checksum(img, crcTable)
}

// Fingerprint is the legacy RecordOps stamp: the CRC-32 (Castagnoli) of
// the document's deterministic v2 Encode stream. Replay still computes
// it to gate RecordOps records that earlier versions logged. Cost is
// one v2 encode pass with no I/O.
func Fingerprint(doc *goddag.Document) uint32 {
	h := crc32.New(crcTable)
	// Encode to the hash alone: bufio over a hash cannot fail.
	_ = Encode(h, doc)
	return h.Sum32()
}
