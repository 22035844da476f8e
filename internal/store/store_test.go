package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/corpus"
	"repro/internal/document"
	"repro/internal/goddag"
)

func roundTrip(t *testing.T, doc *goddag.Document) *goddag.Document {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, doc); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestRoundTripFig1(t *testing.T) {
	doc, err := corpus.Fig1Document()
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, doc)
	if err := back.Check(); err != nil {
		t.Fatal(err)
	}
	if back.Stats() != doc.Stats() {
		t.Errorf("stats %+v != %+v", back.Stats(), doc.Stats())
	}
	if goddag.Dump(back) != goddag.Dump(doc) {
		t.Error("dumps differ after round trip")
	}
}

func TestRoundTripSynthetic(t *testing.T) {
	doc, err := corpus.Generate(corpus.DefaultConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, doc)
	if back.Stats() != doc.Stats() {
		t.Errorf("stats differ: %+v vs %+v", back.Stats(), doc.Stats())
	}
	// Attribute fidelity, element by element.
	a, b := doc.Elements(), back.Elements()
	if len(a) != len(b) {
		t.Fatalf("element counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name() != b[i].Name() || a[i].Span() != b[i].Span() {
			t.Fatalf("element %d: %v vs %v", i, a[i], b[i])
		}
		aa, ba := a[i].Attrs(), b[i].Attrs()
		if len(aa) != len(ba) {
			t.Fatalf("element %d attr count", i)
		}
		for j := range aa {
			if aa[j] != ba[j] {
				t.Fatalf("element %d attr %d: %v vs %v", i, j, aa[j], ba[j])
			}
		}
	}
}

func TestRoundTripEmptyDocument(t *testing.T) {
	doc := goddag.New("r", "")
	back := roundTrip(t, doc)
	if back.RootTag() != "r" || back.Content().Len() != 0 {
		t.Errorf("empty doc round trip: %q %d", back.RootTag(), back.Content().Len())
	}
}

func TestRoundTripUnicode(t *testing.T) {
	doc := goddag.New("r", "ƿæs þæt 日本語")
	h := doc.AddHierarchy("h")
	// "ƿæs" spans bytes [0,5): ƿ and æ are 2 bytes each.
	if _, err := doc.InsertElement(h, "w", []goddag.Attr{{Name: "x", Value: "þ\"<&"}}, spanOf(0, 5)); err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, doc)
	if back.Content().String() != doc.Content().String() {
		t.Errorf("content %q", back.Content().String())
	}
	el := back.Hierarchy("h").Elements()[0]
	if v, _ := el.Attr("x"); v != "þ\"<&" {
		t.Errorf("attr = %q", v)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	doc, err := corpus.Fig1Document()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, doc); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip one content byte mid-file.
	data[len(data)/2] ^= 0x40
	if _, err := Decode(bytes.NewReader(data)); err == nil {
		t.Error("corruption not detected")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("NOPE....."),
		"truncated":   []byte("GDAG"),
		"bad version": append([]byte("GDAG"), 99),
	}
	for name, data := range cases {
		if _, err := Decode(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestDecodeTruncatedBody(t *testing.T) {
	doc, _ := corpus.Fig1Document()
	var buf bytes.Buffer
	if err := Encode(&buf, doc); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{6, len(data) / 2, len(data) - 2} {
		if _, err := Decode(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

func TestSizeIsCompact(t *testing.T) {
	doc, err := corpus.Generate(corpus.DefaultConfig(500))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, doc); err != nil {
		t.Fatal(err)
	}
	// The binary format should undercut the smallest XML representation
	// (fragmentation, ~8x content) by a wide margin.
	contentLen := len(doc.Content().String())
	if buf.Len() > 6*contentLen {
		t.Errorf("binary size %d > 6x content %d", buf.Len(), contentLen)
	}
}

func TestEncodeWriterError(t *testing.T) {
	doc, _ := corpus.Fig1Document()
	if err := Encode(failWriter{}, doc); err == nil {
		t.Error("writer failure should surface")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errFail }

var errFail = errors.New("write failed")

func spanOf(a, b int) document.Span { return document.NewSpan(a, b) }

// TestDecodeBulkEqualsReplay holds the record path every importer shares
// (goddag's LoadRecords) against an InsertElement reference across the
// corpus grid. LoadRecords gets the file's records shuffled; their Seq
// keeps the source order of equal-span ties. The reference inserts the
// same records in document order, ties by Seq. Both builds must dump
// like the encoded document.
func TestDecodeBulkEqualsReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, words := range []int{60, 300} {
		for _, h := range []int{1, 2, 4, 8} {
			for _, density := range []float64{0.1, 0.5, 0.9} {
				for _, vocab := range [][]string{nil, corpus.MultibyteVocabulary} {
					cfg := corpus.DefaultConfig(words)
					cfg.Hierarchies = h
					cfg.OverlapDensity = density
					cfg.Vocabulary = vocab
					doc, err := corpus.Generate(cfg)
					if err != nil {
						t.Fatal(err)
					}
					var buf bytes.Buffer
					if err := Encode(&buf, doc); err != nil {
						t.Fatal(err)
					}
					data := buf.Bytes()
					label := fmt.Sprintf("words=%d h=%d d=%.1f multibyte=%v", words, h, density, vocab != nil)

					bulkDoc, records, err := readBody(bytes.NewReader(data))
					if err != nil {
						t.Fatal(err)
					}
					rng.Shuffle(len(records), func(i, j int) { records[i], records[j] = records[j], records[i] })
					if err := bulkDoc.LoadRecords(records); err != nil {
						t.Fatal(err)
					}
					replayDoc, records2, err := readBody(bytes.NewReader(data))
					if err != nil {
						t.Fatal(err)
					}
					insertRecords(t, replayDoc, records2)
					if err := bulkDoc.Check(); err != nil {
						t.Fatalf("%s: bulk decode: %v", label, err)
					}
					want := goddag.Dump(doc)
					if goddag.Dump(bulkDoc) != want {
						t.Fatalf("%s: LoadRecords decode differs from the encoded document", label)
					}
					if goddag.Dump(replayDoc) != want {
						t.Fatalf("%s: InsertElement reference differs from the encoded document", label)
					}
				}
			}
		}
	}
}

// insertRecords is the reference builder: borders cut, then one
// InsertElement per record in document order, equal-span ties by Seq
// (inner first, so each later insert wraps the earlier one).
func insertRecords(t *testing.T, doc *goddag.Document, records []goddag.Record) {
	t.Helper()
	sort.SliceStable(records, func(i, j int) bool {
		if c := document.CompareSpans(records[i].Span, records[j].Span); c != 0 {
			return c < 0
		}
		return records[i].Seq < records[j].Seq
	})
	hiers := doc.Hierarchies()
	for _, r := range records {
		if _, err := doc.InsertElement(hiers[r.Hier], r.Tag, r.Attrs, r.Span); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDecodeCoextensiveNesting round-trips coextensive elements of one
// hierarchy through the v2 format: Encode writes them outer first, and
// Decode must nest them back the same way.
func TestDecodeCoextensiveNesting(t *testing.T) {
	doc := goddag.New("r", "abcdefgh")
	h := doc.AddHierarchy("h")
	for _, tag := range []string{"inner", "outer"} { // each insert wraps the last
		if _, err := doc.InsertElement(h, tag, nil, spanOf(2, 6)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tag := range []string{"lb", "pb"} {
		if _, err := doc.InsertElement(h, tag, nil, spanOf(7, 7)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := goddag.Dump(roundTrip(t, doc)), goddag.Dump(doc); got != want {
		t.Errorf("v2 round trip changed the nesting:\n got %s\nwant %s", got, want)
	}
}

// TestDecodeUnorderedFallsBack crafts a file whose elements are stored out
// of document order (Encode never does this) and checks Decode still
// accepts it: the record path sorts whatever order it is given.
func TestDecodeUnorderedFallsBack(t *testing.T) {
	var buf bytes.Buffer
	h := crc32.New(crcTable)
	e := &encoder{w: io.MultiWriter(&buf, h)}
	e.raw([]byte(magic))
	e.byte(version)
	e.str("r")
	e.str("swa hwaet swa")
	e.uint(1)      // one hierarchy
	e.str("words") // named words
	e.uint(2)      // two elements, reversed document order
	e.str("w")     // "hwaet" before "swa"
	e.uint(4)
	e.uint(5)
	e.uint(0)
	e.str("w")
	e.uint(0)
	e.uint(3)
	e.uint(0)
	if e.err != nil {
		t.Fatal(e.err)
	}
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], h.Sum32())
	buf.Write(sum[:])

	doc, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.Check(); err != nil {
		t.Fatal(err)
	}
	els := doc.Hierarchy("words").Elements()
	if len(els) != 2 || els[0].Span() != spanOf(0, 3) || els[1].Span() != spanOf(4, 9) {
		t.Fatalf("unexpected elements %v", els)
	}
}
