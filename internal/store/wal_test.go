package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/faultfs"
)

func openTestWAL(t *testing.T, fsys faultfs.FS, path string) (*WAL, []Record) {
	t.Helper()
	w, recs, err := OpenWAL(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w, recs
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.wal")
	w, recs := openTestWAL(t, faultfs.OS, path)
	if len(recs) != 0 || !w.Empty() {
		t.Fatalf("fresh WAL: %d records, empty=%v", len(recs), w.Empty())
	}
	batches := [][]byte{
		[]byte(`{"ops":[{"op":"set-attr"}]}`),
		[]byte(`{"ops":[{"op":"insert-markup","tag":"w"}]}`),
	}
	if err := w.Append(RecordOps, 0x11111111, batches[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(RecordOps, 0x22222222, batches[1]); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(RecordSnapshot, 0, []byte("GDAGsnap")); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2, recs := openTestWAL(t, faultfs.OS, path)
	if len(recs) != 3 {
		t.Fatalf("reopened with %d records, want 3", len(recs))
	}
	if recs[0].Kind != RecordOps || recs[0].Pre != 0x11111111 || !bytes.Equal(recs[0].Payload, batches[0]) {
		t.Fatalf("record 0 = %+v", recs[0])
	}
	if recs[1].Pre != 0x22222222 || !bytes.Equal(recs[1].Payload, batches[1]) {
		t.Fatalf("record 1 = %+v", recs[1])
	}
	if recs[2].Kind != RecordSnapshot || string(recs[2].Payload) != "GDAGsnap" {
		t.Fatalf("record 2 = %+v", recs[2])
	}

	// Reset empties; a further append starts a new tail.
	if err := w2.Reset(); err != nil {
		t.Fatal(err)
	}
	if !w2.Empty() {
		t.Fatal("Reset left records")
	}
	if err := w2.Append(RecordOps, 7, []byte("x")); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	_, recs = openTestWAL(t, faultfs.OS, path)
	if len(recs) != 1 || recs[0].Pre != 7 {
		t.Fatalf("after reset+append: %+v", recs)
	}
}

// TestWALTornTailTruncated cuts a WAL at every possible byte length and
// asserts reopening always recovers exactly the records whose frames
// fully survived — the power-cut contract.
func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	w, _ := openTestWAL(t, faultfs.OS, full)
	payloads := [][]byte{[]byte("first"), []byte("second-longer"), []byte("third")}
	offsets := []int64{w.Size()} // durable size after 0,1,2,3 records
	for i, p := range payloads {
		if err := w.Append(RecordOps, uint32(i), p); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, w.Size())
	}
	w.Close()
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(data); cut++ {
		torn := filepath.Join(dir, "torn.wal")
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, recs, err := OpenWAL(faultfs.OS, torn)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		// The number of surviving records is the number of whole frames
		// within the cut.
		want := 0
		for want < len(payloads) && offsets[want+1] <= int64(cut) {
			want++
		}
		if len(recs) != want {
			t.Fatalf("cut %d: %d records survived, want %d", cut, len(recs), want)
		}
		for i, r := range recs {
			if !bytes.Equal(r.Payload, payloads[i]) {
				t.Fatalf("cut %d record %d: %q", cut, i, r.Payload)
			}
		}
		// The segment is appendable again after the torn tail is cut.
		if err := w2.Append(RecordOps, 9, []byte("post")); err != nil {
			t.Fatalf("cut %d: append after truncation: %v", cut, err)
		}
		w2.Close()
		_, recs2, err := OpenWAL(faultfs.OS, torn)
		if err != nil || len(recs2) != want+1 {
			t.Fatalf("cut %d: re-reopen %d records, %v", cut, len(recs2), err)
		}
	}
}

// TestWALBitFlipStopsScan flips each byte of a record region in turn;
// the scan must never return a corrupted payload as valid.
func TestWALBitFlipStopsScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.wal")
	w, _ := openTestWAL(t, faultfs.OS, path)
	if err := w.Append(RecordOps, 1, []byte("payload-one")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(RecordOps, 2, []byte("payload-two")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	region := data[WALHeaderLen:]
	for i := range region {
		flipped := append([]byte(nil), region...)
		flipped[i] ^= 0x40
		recs, _ := ScanWALRecords(flipped)
		for _, r := range recs {
			if s := string(r.Payload); s != "payload-one" && s != "payload-two" {
				t.Fatalf("flip at %d surfaced corrupted payload %q", i, s)
			}
		}
	}
}

// TestWALFailedAppendRewinds injects a sync failure mid-append and
// asserts the segment is rewound to the previous record boundary: the
// failed record must not resurface on reopen.
func TestWALFailedAppendRewinds(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS)
	path := filepath.Join(t.TempDir(), "d.wal")
	w, _ := openTestWAL(t, inj, path)
	if err := w.Append(RecordOps, 1, []byte("keep")); err != nil {
		t.Fatal(err)
	}
	errDisk := errors.New("injected: EIO")
	inj.SetHook(func(op faultfs.Op, p string) error {
		if op == faultfs.OpSync {
			return errDisk
		}
		return nil
	})
	if err := w.Append(RecordOps, 2, []byte("lost")); !errors.Is(err, errDisk) {
		t.Fatalf("append under sync fault = %v", err)
	}
	inj.SetHook(nil)
	w.Close()

	_, recs, err := OpenWAL(faultfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Payload) != "keep" {
		t.Fatalf("after failed append: %+v", recs)
	}
}

// TestWALVetoRewind drops a logged batch whose transaction was vetoed.
func TestWALVetoRewind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.wal")
	w, _ := openTestWAL(t, faultfs.OS, path)
	if err := w.Append(RecordOps, 1, []byte("committed")); err != nil {
		t.Fatal(err)
	}
	mark := w.Size()
	if err := w.Append(RecordOps, 2, []byte("vetoed")); err != nil {
		t.Fatal(err)
	}
	if err := w.Rewind(mark); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, recs, err := OpenWAL(faultfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Payload) != "committed" {
		t.Fatalf("after veto rewind: %+v", recs)
	}
}

// walFile reads a segment's bytes, failing the test on error.
func walFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWALOpensVersion1Segment opens a segment as versions before
// RecordBatch wrote it: header version 1, legacy op-batch and snapshot
// records. OpenWAL returns its records, appends of those kinds keep it
// readable to the older versions, and the first RecordBatch upgrades
// the header to version 2 without losing a record.
func TestWALOpensVersion1Segment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.wal")
	seg := []byte("GWAL\x01")
	seg = appendFrame(seg, RecordOps, 0x11111111, []byte(`{"ops":[]}`))
	seg = appendFrame(seg, RecordSnapshot, 0, []byte("GDAGsnap"))
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	w, recs := openTestWAL(t, faultfs.OS, path)
	if len(recs) != 2 || recs[0].Kind != RecordOps || recs[0].Pre != 0x11111111 || recs[1].Kind != RecordSnapshot {
		t.Fatalf("version-1 segment opened to %+v", recs)
	}
	if err := w.Append(RecordOps, 2, []byte("legacy")); err != nil {
		t.Fatal(err)
	}
	if v := walFile(t, path)[4]; v != walVersion1 {
		t.Fatalf("legacy append changed the header to version %d", v)
	}
	if err := w.Append(RecordBatch, 3, []byte("batch")); err != nil {
		t.Fatal(err)
	}
	if v := walFile(t, path)[4]; v != walVersion2 {
		t.Fatalf("segment holding a RecordBatch has header version %d, want %d", v, walVersion2)
	}
	w.Close()
	_, recs = openTestWAL(t, faultfs.OS, path)
	if len(recs) != 4 || recs[2].Pre != 2 || recs[3].Kind != RecordBatch || recs[3].Pre != 3 {
		t.Fatalf("upgraded segment reopened to %+v", recs)
	}
}

// TestWALBatchSegmentUnreadableToVersion1Readers pins the downgrade
// guard. Readers from before RecordBatch accept only header version 1
// and would cut a RecordBatch and everything after it as a torn tail.
// A fresh segment stays at version 1 while it holds only the older
// kinds; once it holds a RecordBatch its header is version 2, which
// those readers reject, so their load fails instead of dropping edits.
// Reset keeps version 2.
func TestWALBatchSegmentUnreadableToVersion1Readers(t *testing.T) {
	version1Reader := func(data []byte) bool { return string(data[:4]) == walMagic && data[4] == 1 }
	path := filepath.Join(t.TempDir(), "d.wal")
	w, _ := openTestWAL(t, faultfs.OS, path)
	if err := w.Append(RecordSnapshot, 0, []byte("GDAGsnap")); err != nil {
		t.Fatal(err)
	}
	if !version1Reader(walFile(t, path)) {
		t.Fatal("a segment without RecordBatch is unreadable to version-1 readers")
	}
	if err := w.Append(RecordBatch, 1, []byte("batch")); err != nil {
		t.Fatal(err)
	}
	if version1Reader(walFile(t, path)) {
		t.Fatal("a segment holding a RecordBatch is readable to version-1 readers")
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if data := walFile(t, path); len(data) != WALHeaderLen || data[4] != walVersion2 {
		t.Fatalf("after Reset: %q", data)
	}
}

// TestImageFingerprint: the stamp is the directory CRC MarshalV3
// writes, equal for equal states (also across a mapped round trip),
// different after an edit, and a whole-slice CRC for anything too short
// to be an image.
func TestImageFingerprint(t *testing.T) {
	doc, err := corpus.Fig1Document()
	if err != nil {
		t.Fatal(err)
	}
	img := encodeV3Bytes(t, doc)
	nsec := int(binary.LittleEndian.Uint32(img[8:]))
	fp := ImageFingerprint(img)
	if want := binary.LittleEndian.Uint32(img[v3HeaderLen+nsec*v3EntryLen:]); fp != want {
		t.Fatalf("fingerprint %#x, want the directory CRC %#x", fp, want)
	}
	if again := ImageFingerprint(encodeV3Bytes(t, openV3(t, img))); again != fp {
		t.Fatalf("round-tripped state fingerprints %#x, was %#x", again, fp)
	}
	doc.Elements()[0].SetAttr("k", "v")
	if edited := ImageFingerprint(encodeV3Bytes(t, doc)); edited == fp {
		t.Fatal("an attribute edit left the fingerprint unchanged")
	}
	short := img[:v3HeaderLen+2]
	if got := ImageFingerprint(short); got != crc32.Checksum(short, crcTable) {
		t.Fatalf("short slice fingerprint %#x, want its CRC", got)
	}
}
