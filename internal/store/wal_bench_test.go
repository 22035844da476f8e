package store

import (
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/faultfs"
	"repro/internal/goddag"
)

// BenchmarkWALAppend measures the durable cost of logging one edit
// batch: frame + write + fsync of a typical op-batch payload. This is
// the marginal cost the WAL adds to every commit, to be read against
// BenchmarkSaveOnCommit (the full-document save each commit already
// paid before this PR).
func BenchmarkWALAppend(b *testing.B) {
	w, _, err := OpenWAL(faultfs.OS, filepath.Join(b.TempDir(), "d.wal"))
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	payload := []byte(`{"ops":[{"op":"insert-markup","hierarchy":"annot","tag":"note","start":120,"end":134,"attrs":{"resp":"ed"}},{"op":"set-attr","hierarchy":"annot","index":0,"name":"status","value":"draft"}]}`)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(RecordOps, uint32(i), payload); err != nil {
			b.Fatal(err)
		}
		if w.Size() > 1<<20 {
			b.StopTimer()
			if err := w.Reset(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkSaveOnCommit measures the PR 5 per-commit persistence cost:
// one full atomic save (encode + fsync + rename + dir sync) of a
// words=8000/h=4 document.
func BenchmarkSaveOnCommit(b *testing.B) {
	cfg := corpus.DefaultConfig(8000)
	cfg.Hierarchies = 4
	doc, err := corpus.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "d.gdag")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Save(path, doc); err != nil {
			b.Fatal(err)
		}
	}
}

// fingerprintSink keeps the fingerprint benchmarks' results live.
var fingerprintSink uint32

// BenchmarkFingerprint measures the legacy RecordOps replay gate: one
// v2 encode pass with no I/O over a words=8000/h=4 document. Only
// replay of records logged by earlier versions pays it.
func BenchmarkFingerprint(b *testing.B) {
	doc := fingerprintDoc(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fingerprintSink = Fingerprint(doc)
	}
}

// BenchmarkImageFingerprint measures the RecordBatch stamp every logged
// commit and replayed record pays: reading the directory CRC of the
// same document's v3 image, which the editing session already holds.
func BenchmarkImageFingerprint(b *testing.B) {
	img, err := MarshalV3(fingerprintDoc(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fingerprintSink = ImageFingerprint(img)
	}
}

// fingerprintDoc is the words=8000/h=4 document both fingerprint
// benchmarks stamp.
func fingerprintDoc(b *testing.B) *goddag.Document {
	cfg := corpus.DefaultConfig(8000)
	cfg.Hierarchies = 4
	doc, err := corpus.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return doc
}
