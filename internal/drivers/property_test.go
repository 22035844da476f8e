package drivers

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/document"
	"repro/internal/goddag"
)

// randomDoc builds a document with several hierarchies of random markup:
// nested structure in hierarchy 0, flat annotation layers (including
// empty milestones) elsewhere, with attribute values that need escaping.
// About one element in four gets a coextensive wrapper in its own
// hierarchy (InsertElement over an equal span wraps the element there).
func randomDoc(seed int64) *goddag.Document {
	rng := rand.New(rand.NewSource(seed))
	n := 40 + rng.Intn(80)
	text := make([]rune, n)
	letters := []rune("abcdef ghíðþ")
	for i := range text {
		text[i] = letters[rng.Intn(len(letters))]
	}
	d := goddag.New("r", string(text))
	// The generator draws rune positions; bounds maps them onto the byte
	// offsets the document's spans use, so markup never splits a rune.
	bounds := make([]int, 0, n+1)
	byteOff := 0
	for _, r := range text {
		bounds = append(bounds, byteOff)
		byteOff += len(string(r))
	}
	bounds = append(bounds, byteOff)
	span := func(lo, hi int) document.Span {
		return document.NewSpan(bounds[lo], bounds[hi])
	}

	// Hierarchy 0: nested sections.
	h0 := d.AddHierarchy("struct")
	var nest func(lo, hi, depth int)
	nest = func(lo, hi, depth int) {
		if depth == 0 || hi-lo < 4 {
			return
		}
		mid := lo + 1 + rng.Intn(hi-lo-2)
		for _, iv := range [][2]int{{lo, mid}, {mid, hi}} {
			if iv[1]-iv[0] < 2 {
				continue
			}
			attrs := []goddag.Attr{{Name: "v", Value: `x"<&'` + string(rune('a'+depth))}}
			if _, err := d.InsertElement(h0, "sec", attrs, span(iv[0], iv[1])); err != nil {
				panic(err)
			}
			if rng.Intn(4) == 0 {
				if _, err := d.InsertElement(h0, "div", nil, span(iv[0], iv[1])); err != nil {
					panic(err)
				}
			}
			nest(iv[0], iv[1], depth-1)
		}
	}
	nest(0, n, 3)

	// Annotation layers with overlaps and milestones.
	for li := 0; li < 2; li++ {
		h := d.AddHierarchy(string(rune('x' + li)))
		lastEnd := 0
		for k := 0; k < 8; k++ {
			lo := lastEnd + rng.Intn(8)
			hi := lo + rng.Intn(10)
			if hi > n || lo > n {
				break
			}
			if _, err := d.InsertElement(h, "ann", nil, span(lo, hi)); err != nil {
				panic(err)
			}
			if rng.Intn(4) == 0 {
				if _, err := d.InsertElement(h, "wrap", nil, span(lo, hi)); err != nil {
					panic(err)
				}
			}
			if hi > lastEnd {
				lastEnd = hi
			}
		}
	}
	return d
}

func equalDocs(a, b *goddag.Document) bool {
	if a.Content().String() != b.Content().String() {
		return false
	}
	ae, be := a.Elements(), b.Elements()
	if len(ae) != len(be) {
		return false
	}
	for i := range ae {
		if ae[i].Name() != be[i].Name() ||
			ae[i].Span() != be[i].Span() ||
			ae[i].Hierarchy().Name() != be[i].Hierarchy().Name() {
			return false
		}
		aa, ba := ae[i].Attrs(), be[i].Attrs()
		if len(aa) != len(ba) {
			return false
		}
		for j := range aa {
			if aa[j] != ba[j] {
				return false
			}
		}
	}
	return true
}

// TestPropertyRoundTrips: every representation round-trips arbitrary
// documents losslessly.
func TestPropertyRoundTrips(t *testing.T) {
	f := func(seed int64) bool {
		doc := randomDoc(seed)
		if err := doc.Check(); err != nil {
			t.Logf("seed %d: generator broke invariants: %v", seed, err)
			return false
		}
		// Standoff.
		so, err := EncodeStandoff(doc, EncodeOptions{})
		if err != nil {
			t.Logf("seed %d standoff encode: %v", seed, err)
			return false
		}
		d1, err := DecodeStandoff(so)
		if err != nil || !equalDocs(doc, d1) {
			t.Logf("seed %d standoff: %v", seed, err)
			return false
		}
		// Milestones.
		ms, err := EncodeMilestones(doc, EncodeOptions{})
		if err != nil {
			t.Logf("seed %d milestones encode: %v", seed, err)
			return false
		}
		d2, err := DecodeMilestones(ms)
		if err != nil || !equalDocs(doc, d2) {
			t.Logf("seed %d milestones: %v\n%s", seed, err, ms)
			return false
		}
		// Fragmentation.
		fr, err := EncodeFragmentation(doc, EncodeOptions{})
		if err != nil {
			t.Logf("seed %d fragmentation encode: %v", seed, err)
			return false
		}
		d3, err := DecodeFragmentation(fr)
		if err != nil || !equalDocs(doc, d3) {
			t.Logf("seed %d fragmentation: %v\n%s", seed, err, fr)
			return false
		}
		// Distributed.
		di, err := EncodeDistributed(doc, EncodeOptions{})
		if err != nil {
			t.Logf("seed %d distributed encode: %v", seed, err)
			return false
		}
		d4, err := DecodeDistributed(di)
		if err != nil || !equalDocs(doc, d4) {
			t.Logf("seed %d distributed: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDominantChoice: the milestone and fragmentation encodings
// are lossless for any choice of dominant hierarchy.
func TestPropertyDominantChoice(t *testing.T) {
	doc := randomDoc(7)
	for _, dom := range doc.HierarchyNames() {
		ms, err := EncodeMilestones(doc, EncodeOptions{Dominant: dom})
		if err != nil {
			t.Fatalf("dominant %s: %v", dom, err)
		}
		back, err := DecodeMilestones(ms)
		if err != nil || !equalDocs(doc, back) {
			t.Errorf("milestones dominant %s: %v", dom, err)
		}
		fr, err := EncodeFragmentation(doc, EncodeOptions{Dominant: dom})
		if err != nil {
			t.Fatalf("dominant %s: %v", dom, err)
		}
		back2, err := DecodeFragmentation(fr)
		if err != nil || !equalDocs(doc, back2) {
			t.Errorf("fragmentation dominant %s: %v", dom, err)
		}
	}
}
