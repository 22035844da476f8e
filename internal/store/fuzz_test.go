package store

import (
	"bytes"
	"testing"

	"repro/internal/corpus"
)

// FuzzDecode feeds arbitrary (and seeded: truncated, bit-flipped)
// .gdag and WAL bytes into the two recovery-path readers. Both must
// reject damage with an error — never panic, and never allocate
// proportionally to a corrupted length field (the fuzzer's OOM limit
// enforces the latter).
func FuzzDecode(f *testing.F) {
	doc, err := corpus.Generate(corpus.DefaultConfig(40))
	if err != nil {
		f.Fatal(err)
	}
	var gdag bytes.Buffer
	if err := Encode(&gdag, doc); err != nil {
		f.Fatal(err)
	}
	f.Add(gdag.Bytes())
	f.Add(gdag.Bytes()[:gdag.Len()/2]) // truncated
	flipped := append([]byte(nil), gdag.Bytes()...)
	flipped[gdag.Len()/3] ^= 0x20 // bit-flipped body
	f.Add(flipped)

	// v3 seeds: the section-table image whole, truncated mid-directory
	// and mid-section, and bit-flipped in the directory (offsets) and in
	// a payload (CRC).
	var v3 bytes.Buffer
	if err := EncodeV3(&v3, doc); err != nil {
		f.Fatal(err)
	}
	f.Add(v3.Bytes())
	f.Add(v3.Bytes()[:v3HeaderLen+v3EntryLen/2])
	f.Add(v3.Bytes()[:v3.Len()/2])
	for _, off := range []int{v3HeaderLen + 8, v3.Len() / 2, v3.Len() - 1} {
		mut := append([]byte(nil), v3.Bytes()...)
		mut[off] ^= 0x04
		f.Add(mut)
	}

	// A WAL record region: two framed records, whole and truncated.
	var wal []byte
	wal = appendFrame(wal, RecordOps, 0xdeadbeef, []byte(`{"ops":[{"op":"set-attr","hierarchy":"words","index":0,"name":"k","value":"v"}]}`))
	wal = appendFrame(wal, RecordSnapshot, 0, gdag.Bytes())
	wal = appendFrame(wal, RecordBatch, 0xfeedface, []byte(`{"ops":[]}`))
	f.Add(wal)
	f.Add(wal[:len(wal)-3])
	f.Add([]byte("GWAL\x01"))
	f.Add([]byte("GWAL\x02"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// .gdag path: any error is fine, corruption must never decode.
		if d, err := Decode(bytes.NewReader(data)); err == nil && d == nil {
			t.Fatal("Decode returned nil document without error")
		}
		// Mapped v3 path: open must bound every access to the image
		// (out-of-range section offsets are errors, not reads), and full
		// validation must never panic or over-read. Document is the one
		// point where an image fails: once it accepts the image, Decode
		// accepts it too, and the document materializes into a GODDAG
		// that passes its own invariant check.
		if m, err := OpenMappedBytes(data); err == nil {
			if g, err := m.Document(); err == nil {
				if _, derr := Decode(bytes.NewReader(data)); derr != nil {
					t.Fatalf("Document accepts the image but Decode fails: %v", derr)
				}
				g.Warm()
				if cerr := g.Check(); cerr != nil {
					t.Fatalf("accepted image materializes inconsistently: %v", cerr)
				}
			}
		}
		// WAL replay path: the scan never fails, but every record it
		// returns must re-verify (the frame checksum held).
		recs, good := ScanWALRecords(data)
		if good > int64(len(data)) {
			t.Fatalf("scan claimed %d valid bytes of %d", good, len(data))
		}
		if re, _ := ScanWALRecords(data[:good]); len(re) != len(recs) {
			t.Fatalf("valid prefix rescans to %d records, was %d", len(re), len(recs))
		}
		for _, r := range recs {
			if r.Kind != RecordBatch && r.Kind != RecordOps && r.Kind != RecordSnapshot {
				t.Fatalf("scan surfaced unknown record kind %q", r.Kind)
			}
		}
	})
}
