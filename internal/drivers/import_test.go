package drivers

import (
	"testing"

	"repro/internal/goddag"
	"repro/internal/sacx"
	"repro/internal/store"
)

// coextensiveDoc holds two same-hierarchy element pairs on one span each
// (a non-empty pair and an empty pair) and an element of a second
// hierarchy overlapping the non-empty pair, so the fragmentation encoder
// has to split the pair. The XML nesting fixes which element of a pair
// is the outer one.
func coextensiveDoc(t testing.TB) *goddag.Document {
	t.Helper()
	doc, err := sacx.Build([]sacx.Source{
		{Hierarchy: "h1", Data: []byte(`<r>ab<outer n="1"><inner n="2">cdef</inner></outer>g<pb><lb/></pb>hij</r>`)},
		{Hierarchy: "h2", Data: []byte(`<r><x>abcd</x>efg<ms><mi/></ms>hij</r>`)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestCoextensiveNesting round-trips coextensive same-hierarchy elements
// through every single-file format, with each hierarchy dominant where
// the format has one, and through Filter: the outer element must come
// back outer.
func TestCoextensiveNesting(t *testing.T) {
	doc := coextensiveDoc(t)
	want := goddag.Dump(doc)
	check := func(label string, got *goddag.Document, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if err := got.Check(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if d := goddag.Dump(got); d != want {
			t.Errorf("%s: nesting changed:\n got %s\nwant %s", label, d, want)
		}
	}
	for _, dom := range []string{"h1", "h2"} {
		opts := EncodeOptions{Dominant: dom}
		ms, err := EncodeMilestones(doc, opts)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeMilestones(ms)
		check("milestones/"+dom, back, err)
		fr, err := EncodeFragmentation(doc, opts)
		if err != nil {
			t.Fatal(err)
		}
		back, err = DecodeFragmentation(fr)
		check("fragmentation/"+dom, back, err)
	}
	so, err := EncodeStandoff(doc, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeStandoff(so)
	check("standoff", back, err)
	back, err = Filter(doc, "h1", "h2")
	check("filter", back, err)
}

// TestFilterOwnsStrings filters a document mapped from a v3 image and
// then overwrites the image: the filtered copy must not notice.
func TestFilterOwnsStrings(t *testing.T) {
	img, err := store.MarshalV3(fig1(t))
	if err != nil {
		t.Fatal(err)
	}
	m, err := store.OpenMappedBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	src, err := m.Document()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Filter(src, "words", "damage")
	if err != nil {
		t.Fatal(err)
	}
	want, err := Filter(fig1(t), "words", "damage")
	if err != nil {
		t.Fatal(err)
	}
	for i := range img {
		img[i] = 0xff
	}
	if got := goddag.Dump(f); got != goddag.Dump(want) {
		t.Errorf("filtered document changed with its source image:\n%s", got)
	}
}
