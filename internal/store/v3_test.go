package store

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/corpus"
	"repro/internal/goddag"
	"repro/internal/xpath"
)

// encodeV3Bytes is the test shorthand for one in-memory v3 image.
func encodeV3Bytes(t *testing.T, doc *goddag.Document) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeV3(&buf, doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openV3 maps a v3 image and materializes its document, failing the
// test on any validation error.
func openV3(t *testing.T, data []byte) *goddag.Document {
	t.Helper()
	m, err := OpenMappedBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := m.Document()
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestV3RoundTripFig1(t *testing.T) {
	doc, err := corpus.Fig1Document()
	if err != nil {
		t.Fatal(err)
	}
	back := openV3(t, encodeV3Bytes(t, doc))
	if err := back.Check(); err != nil {
		t.Fatal(err)
	}
	if back.Stats() != doc.Stats() {
		t.Errorf("stats %+v != %+v", back.Stats(), doc.Stats())
	}
	if goddag.Dump(back) != goddag.Dump(doc) {
		t.Error("dumps differ after v3 mapped round trip")
	}
}

func TestV3RoundTripEmptyDocument(t *testing.T) {
	doc := goddag.New("r", "")
	back := openV3(t, encodeV3Bytes(t, doc))
	if back.RootTag() != "r" || back.Content().Len() != 0 || len(back.Elements()) != 0 {
		t.Errorf("empty doc round trip: %q %d", back.RootTag(), back.Content().Len())
	}
}

// TestV3DecodeDispatch checks the streaming Decode entry point accepts
// v3 images (readers that cannot mmap still load every format).
func TestV3DecodeDispatch(t *testing.T) {
	doc, err := corpus.Generate(corpus.DefaultConfig(200))
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(bytes.NewReader(encodeV3Bytes(t, doc)))
	if err != nil {
		t.Fatal(err)
	}
	if goddag.Dump(back) != goddag.Dump(doc) {
		t.Error("Decode of v3 image differs from source document")
	}
}

func TestV3EncodeDeterministic(t *testing.T) {
	doc, err := corpus.Generate(corpus.DefaultConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	a := encodeV3Bytes(t, doc)
	b := encodeV3Bytes(t, doc)
	if !bytes.Equal(a, b) {
		t.Fatal("EncodeV3 is not deterministic for the same document")
	}
	// Re-encoding a mapped open reproduces the image: the columnar
	// export is canonical.
	back := openV3(t, a)
	if c := encodeV3Bytes(t, back); !bytes.Equal(a, c) {
		t.Fatal("v3 image does not survive an open + re-encode")
	}
}

func TestOpenMappedV2ReportsErrV2(t *testing.T) {
	doc, err := corpus.Fig1Document()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, doc); err != nil { // v2 on purpose
		t.Fatal(err)
	}
	if _, err := OpenMappedBytes(buf.Bytes()); !errors.Is(err, ErrV2) {
		t.Fatalf("v2 image: got %v, want ErrV2", err)
	}
	// Short prefixes of a v2 file also classify as v2, so callers fall
	// back to the decoder (which reports the real truncation error).
	if _, err := OpenMappedBytes(buf.Bytes()[:5]); !errors.Is(err, ErrV2) {
		t.Fatalf("short v2 image: got %v, want ErrV2", err)
	}
}

// TestV3DifferentialGrid holds the three load paths against each other
// across the corpus grid — hierarchy counts, overlap densities, and a
// multibyte vocabulary: the mapped v3 open, the streaming v2 decode,
// and the in-memory build must agree on structure, attributes, document
// order, and query results.
func TestV3DifferentialGrid(t *testing.T) {
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

					var v2buf bytes.Buffer
					if err := Encode(&v2buf, doc); err != nil {
						t.Fatal(err)
					}
					v2doc, err := Decode(&v2buf)
					if err != nil {
						t.Fatal(err)
					}
					v3doc := openV3(t, encodeV3Bytes(t, doc))
					if err := v3doc.Check(); err != nil {
						t.Fatalf("words=%d h=%d d=%.1f: v3 check: %v", words, h, density, err)
					}

					want := goddag.Dump(doc)
					if got := goddag.Dump(v2doc); got != want {
						t.Fatalf("words=%d h=%d d=%.1f multibyte=%v: v2 decode differs from build",
							words, h, density, vocab != nil)
					}
					if got := goddag.Dump(v3doc); got != want {
						t.Fatalf("words=%d h=%d d=%.1f multibyte=%v: v3 mapped differs from build",
							words, h, density, vocab != nil)
					}

					// Document order and query behavior, not just shape:
					// an Extended XPath query exercises the ordinals, span
					// index, and name buckets on all three documents.
					for _, q := range []string{"//w", "count(//dmg)", "//line/w"} {
						want, err := xpath.Select(doc, q)
						if err != nil {
							// Value queries (count) go through Eval below.
							wv, werr := evalValue(doc, q)
							v2v, e2 := evalValue(v2doc, q)
							v3v, e3 := evalValue(v3doc, q)
							if werr != nil || e2 != nil || e3 != nil {
								t.Fatalf("query %q: %v %v %v", q, werr, e2, e3)
							}
							if wv != v2v || wv != v3v {
								t.Fatalf("query %q values differ: build=%v v2=%v v3=%v", q, wv, v2v, v3v)
							}
							continue
						}
						got2, err := xpath.Select(v2doc, q)
						if err != nil {
							t.Fatal(err)
						}
						got3, err := xpath.Select(v3doc, q)
						if err != nil {
							t.Fatal(err)
						}
						if len(got2) != len(want) || len(got3) != len(want) {
							t.Fatalf("query %q: build=%d v2=%d v3=%d results",
								q, len(want), len(got2), len(got3))
						}
					}
				}
			}
		}
	}
}

func evalValue(d *goddag.Document, q string) (string, error) {
	c, err := xpath.Compile(q)
	if err != nil {
		return "", err
	}
	v, err := c.Eval(d)
	if err != nil {
		return "", err
	}
	return v.String(), nil
}

// TestV3EditAfterOpenPromotes opens a mapped document, edits it (which
// must promote the lazily materialized state to the heap), and checks
// the result round-trips and matches the same edit applied to a fully
// heap-decoded copy.
func TestV3EditAfterOpenPromotes(t *testing.T) {
	cfg := corpus.DefaultConfig(120)
	cfg.Vocabulary = corpus.MultibyteVocabulary
	doc, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	image := encodeV3Bytes(t, doc)

	edit := func(d *goddag.Document) {
		t.Helper()
		h := d.Hierarchies()[0]
		if _, err := d.InsertElement(h, "patch", []goddag.Attr{{Name: "k", Value: "v"}}, spanOf(0, d.Content().Len())); err != nil {
			t.Fatal(err)
		}
		w := d.Hierarchies()[0].Elements()
		if err := d.RemoveElement(w[len(w)-1]); err != nil {
			t.Fatal(err)
		}
	}

	mapped := openV3(t, image)
	edit(mapped)
	if err := mapped.Check(); err != nil {
		t.Fatalf("edited mapped doc: %v", err)
	}
	if _, ok := mapped.ResidentFootprint(); ok {
		t.Error("edited mapped doc still reports a view-resident footprint")
	}

	heap, err := Decode(bytes.NewReader(image))
	if err != nil {
		t.Fatal(err)
	}
	edit(heap)

	if goddag.Dump(mapped) != goddag.Dump(heap) {
		t.Fatal("edit after mapped open diverges from edit after heap decode")
	}
	// The promoted document re-encodes like any heap document, and the
	// new image reloads to the same state: the v2 -> v3 migration path
	// (open, edit, save) is lossless.
	if goddag.Dump(openV3(t, encodeV3Bytes(t, mapped))) != goddag.Dump(heap) {
		t.Fatal("promoted document does not round-trip through v3")
	}
}

// TestV3CorruptionDetected flips a bit in every section payload and in
// the directory, and truncates at several boundaries: each mutation
// must surface as an error from open, document build, or full
// validation — never a panic, never a silently wrong document.
func TestV3CorruptionDetected(t *testing.T) {
	doc, err := corpus.Generate(corpus.DefaultConfig(80))
	if err != nil {
		t.Fatal(err)
	}
	image := encodeV3Bytes(t, doc)

	validate := func(data []byte) error {
		m, err := OpenMappedBytes(data)
		if err != nil {
			return err
		}
		return m.Validate()
	}
	if err := validate(image); err != nil {
		t.Fatalf("pristine image fails validation: %v", err)
	}

	// One flipped bit at every 7th byte across the file (covering the
	// header, directory, and every section) must be caught. The only
	// bytes no CRC covers are the alignment padding between sections —
	// they are never read, so flips there are harmless by construction.
	m, err := OpenMappedBytes(image)
	if err != nil {
		t.Fatal(err)
	}
	padding := func(off int) bool {
		for _, s := range m.secs {
			if off >= s.off && off < s.off+s.n {
				return false
			}
		}
		nsec := 0
		for _, ok := range m.present {
			if ok {
				nsec++
			}
		}
		return off >= v3HeaderLen+nsec*v3EntryLen+4
	}
	for off := 0; off < len(image); off += 7 {
		if padding(off) {
			continue
		}
		mut := bytes.Clone(image)
		mut[off] ^= 0x10
		if err := validate(mut); err == nil {
			t.Fatalf("bit flip at offset %d not detected", off)
		}
	}
	// Truncations anywhere must be caught.
	for _, cut := range []int{0, 3, v3HeaderLen - 1, v3HeaderLen + 5, len(image) / 2, len(image) - 1} {
		if err := validate(image[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestV3RejectsUnsupportedVersion(t *testing.T) {
	doc, _ := corpus.Fig1Document()
	image := encodeV3Bytes(t, doc)
	mut := bytes.Clone(image)
	mut[4] = 9
	if _, err := OpenMappedBytes(mut); err == nil || errors.Is(err, ErrV2) {
		t.Fatalf("future version: got %v", err)
	}
}
