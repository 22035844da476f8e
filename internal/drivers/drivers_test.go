package drivers

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/document"
	"repro/internal/goddag"
	"repro/internal/sacx"
)

// fig1 builds the paper's Figure 1 GODDAG via the distributed encoding.
func fig1(t *testing.T) *goddag.Document {
	t.Helper()
	doc, err := DecodeDistributedOrdered([]sacx.Source{
		{Hierarchy: "physical", Data: []byte(`<r><line n="1">swa hwæt swa</line><line n="2"> he us sægde</line></r>`)},
		{Hierarchy: "words", Data: []byte(`<r><w>swa</w> <w>hwæt</w> <w>swa</w> <w>he</w> <w>us</w> <w>sægde</w></r>`)},
		{Hierarchy: "restoration", Data: []byte(`<r>swa hwæt s<res resp="ed">wa he u</res>s sægde</r>`)},
		{Hierarchy: "damage", Data: []byte(`<r>swa hw<dmg type="stain">æt sw</dmg>a he us sægde</r>`)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// docsEqual compares two GODDAGs structurally: content, hierarchies, and
// per-hierarchy element (name, span, attrs) multisets in document order.
func docsEqual(t *testing.T, a, b *goddag.Document) bool {
	t.Helper()
	if a.Content().String() != b.Content().String() {
		t.Logf("content differs: %q vs %q", a.Content(), b.Content())
		return false
	}
	an, bn := a.HierarchyNames(), b.HierarchyNames()
	sort.Strings(an)
	sort.Strings(bn)
	if strings.Join(an, ",") != strings.Join(bn, ",") {
		t.Logf("hierarchies differ: %v vs %v", an, bn)
		return false
	}
	for _, hn := range an {
		ea, eb := a.Hierarchy(hn).Elements(), b.Hierarchy(hn).Elements()
		if len(ea) != len(eb) {
			t.Logf("hierarchy %s: %d vs %d elements", hn, len(ea), len(eb))
			return false
		}
		for i := range ea {
			if ea[i].Name() != eb[i].Name() || ea[i].Span() != eb[i].Span() {
				t.Logf("hierarchy %s elem %d: %v vs %v", hn, i, ea[i], eb[i])
				return false
			}
			aa, ab := ea[i].Attrs(), eb[i].Attrs()
			if len(aa) != len(ab) {
				t.Logf("attr count differs on %v", ea[i])
				return false
			}
			for j := range aa {
				if aa[j] != ab[j] {
					t.Logf("attr %d differs on %v: %v vs %v", j, ea[i], aa[j], ab[j])
					return false
				}
			}
		}
	}
	return true
}

func TestDistributedRoundTrip(t *testing.T) {
	doc := fig1(t)
	enc, err := EncodeDistributed(doc, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != 4 {
		t.Fatalf("encoded %d hierarchies", len(enc))
	}
	back, err := DecodeDistributed(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !docsEqual(t, doc, back) {
		t.Error("distributed round trip mismatch")
	}
}

func TestStandoffRoundTrip(t *testing.T) {
	doc := fig1(t)
	enc, err := EncodeStandoff(doc, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeStandoff(enc)
	if err != nil {
		t.Fatalf("%v\n%s", err, enc)
	}
	if !docsEqual(t, doc, back) {
		t.Error("standoff round trip mismatch")
	}
	if err := back.Check(); err != nil {
		t.Error(err)
	}
}

func TestMilestonesRoundTrip(t *testing.T) {
	doc := fig1(t)
	for _, dominant := range []string{"physical", "words", "restoration"} {
		enc, err := EncodeMilestones(doc, EncodeOptions{Dominant: dominant})
		if err != nil {
			t.Fatalf("dominant %s: %v", dominant, err)
		}
		back, err := DecodeMilestones(enc)
		if err != nil {
			t.Fatalf("dominant %s: %v\n%s", dominant, err, enc)
		}
		if !docsEqual(t, doc, back) {
			t.Errorf("milestones round trip mismatch (dominant %s)\n%s", dominant, enc)
		}
		if err := back.Check(); err != nil {
			t.Error(err)
		}
	}
}

func TestFragmentationRoundTrip(t *testing.T) {
	doc := fig1(t)
	for _, dominant := range []string{"physical", "words"} {
		enc, err := EncodeFragmentation(doc, EncodeOptions{Dominant: dominant})
		if err != nil {
			t.Fatalf("dominant %s: %v", dominant, err)
		}
		back, err := DecodeFragmentation(enc)
		if err != nil {
			t.Fatalf("dominant %s: %v\n%s", dominant, err, enc)
		}
		if !docsEqual(t, doc, back) {
			t.Errorf("fragmentation round trip mismatch (dominant %s)\n%s", dominant, enc)
		}
		if err := back.Check(); err != nil {
			t.Error(err)
		}
	}
}

func TestMilestonesWellFormed(t *testing.T) {
	doc := fig1(t)
	enc, err := EncodeMilestones(doc, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The encoding must be well-formed XML with the same content.
	got, err := sacx.Build([]sacx.Source{{Hierarchy: "x", Data: enc}})
	if err != nil {
		t.Fatalf("not well-formed: %v\n%s", err, enc)
	}
	if got.Content().String() != doc.Content().String() {
		t.Errorf("content changed: %q", got.Content().String())
	}
}

func TestFragmentationWellFormed(t *testing.T) {
	doc := fig1(t)
	enc, err := EncodeFragmentation(doc, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sacx.Build([]sacx.Source{{Hierarchy: "x", Data: enc}})
	if err != nil {
		t.Fatalf("not well-formed: %v\n%s", err, enc)
	}
	if got.Content().String() != doc.Content().String() {
		t.Errorf("content changed: %q", got.Content().String())
	}
	// Overlapping elements must actually have been fragmented.
	if !strings.Contains(string(enc), attrFragPart) {
		t.Errorf("no fragments in:\n%s", enc)
	}
}

func TestFragmentationPartAttrs(t *testing.T) {
	// Two hierarchies with one overlap: b[2,8) vs a[0,5),a2[5,10).
	doc := goddag.New("r", "0123456789")
	h1 := doc.AddHierarchy("h1")
	h2 := doc.AddHierarchy("h2")
	mustIns(t, doc, h1, "a", 0, 5)
	mustIns(t, doc, h1, "a", 5, 10)
	mustIns(t, doc, h2, "b", 2, 8)
	enc, err := EncodeFragmentation(doc, EncodeOptions{Dominant: "h1"})
	if err != nil {
		t.Fatal(err)
	}
	s := string(enc)
	if !strings.Contains(s, `chx-part="I"`) || !strings.Contains(s, `chx-part="F"`) {
		t.Errorf("expected I and F parts:\n%s", s)
	}
	back, err := DecodeFragmentation(enc)
	if err != nil {
		t.Fatal(err)
	}
	bs := back.Hierarchy("h2").Elements()
	if len(bs) != 1 || bs[0].Span() != document.NewSpan(2, 8) {
		t.Errorf("b reassembled wrong: %v", bs)
	}
}

func TestFilter(t *testing.T) {
	doc := fig1(t)
	f, err := Filter(doc, "words", "damage")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.HierarchyNames()) != 2 {
		t.Errorf("hierarchies = %v", f.HierarchyNames())
	}
	if f.Hierarchy("words").Len() != 6 || f.Hierarchy("damage").Len() != 1 {
		t.Errorf("element counts: %d %d", f.Hierarchy("words").Len(), f.Hierarchy("damage").Len())
	}
	if f.Hierarchy("physical") != nil {
		t.Error("physical should be filtered out")
	}
	if err := f.Check(); err != nil {
		t.Error(err)
	}
	// Leaf partition is minimal for the surviving markup.
	if f.NumLeaves() >= doc.NumLeaves() {
		t.Errorf("filtered leaves %d should be fewer than %d", f.NumLeaves(), doc.NumLeaves())
	}
	if _, err := Filter(doc, "nonexistent"); err == nil {
		t.Error("unknown hierarchy should error")
	}
}

func TestEncodeFiltering(t *testing.T) {
	doc := fig1(t)
	enc, err := EncodeDistributed(doc, EncodeOptions{Hierarchies: []string{"words"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != 1 {
		t.Errorf("got %d docs", len(enc))
	}
	if _, ok := enc["words"]; !ok {
		t.Error("words missing")
	}
	if _, err := EncodeDistributed(doc, EncodeOptions{Hierarchies: []string{"zzz"}}); err == nil {
		t.Error("unknown hierarchy should error")
	}
}

func TestDominantResolution(t *testing.T) {
	doc := fig1(t)
	// Unknown dominant errors.
	if _, err := EncodeMilestones(doc, EncodeOptions{Dominant: "zzz"}); err == nil {
		t.Error("unknown dominant should error")
	}
	// Dominant not in the selected subset errors.
	if _, err := EncodeMilestones(doc, EncodeOptions{Dominant: "physical", Hierarchies: []string{"words"}}); err == nil {
		t.Error("dominant outside selection should error")
	}
}

func TestMilestonesEmptyElements(t *testing.T) {
	doc := goddag.New("r", "abcdef")
	h1 := doc.AddHierarchy("h1")
	h2 := doc.AddHierarchy("h2")
	mustIns(t, doc, h1, "line", 0, 6)
	// Empty milestone element in the non-dominant hierarchy.
	if _, err := doc.InsertElement(h2, "pb", []goddag.Attr{{Name: "n", Value: "2"}}, document.NewSpan(3, 3)); err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeMilestones(doc, EncodeOptions{Dominant: "h1"})
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeMilestones(enc)
	if err != nil {
		t.Fatalf("%v\n%s", err, enc)
	}
	pbs := back.Hierarchy("h2").Elements()
	if len(pbs) != 1 || !pbs[0].IsEmpty() || pbs[0].Span().Start != 3 {
		t.Errorf("pb = %v", pbs)
	}
	if v, _ := pbs[0].Attr("n"); v != "2" {
		t.Errorf("pb/@n = %q", v)
	}
}

func TestFragmentationEmptyElements(t *testing.T) {
	doc := goddag.New("r", "abcdef")
	h1 := doc.AddHierarchy("h1")
	h2 := doc.AddHierarchy("h2")
	mustIns(t, doc, h1, "line", 0, 6)
	if _, err := doc.InsertElement(h2, "pb", nil, document.NewSpan(3, 3)); err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeFragmentation(doc, EncodeOptions{Dominant: "h1"})
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeFragmentation(enc)
	if err != nil {
		t.Fatalf("%v\n%s", err, enc)
	}
	if !docsEqual(t, doc, back) {
		t.Errorf("round trip with milestone failed:\n%s", enc)
	}
}

func TestPlainXMLDecodes(t *testing.T) {
	// A plain XML document without chx metadata decodes as one "main"
	// hierarchy under both single-document decoders.
	plain := []byte(`<r><a>hi <b>there</b></a></r>`)
	m, err := DecodeMilestones(plain)
	if err != nil {
		t.Fatal(err)
	}
	if m.Hierarchy("main") == nil || m.Hierarchy("main").Len() != 2 {
		t.Errorf("milestones plain decode: %v", m.HierarchyNames())
	}
	f, err := DecodeFragmentation(plain)
	if err != nil {
		t.Fatal(err)
	}
	if f.Hierarchy("main") == nil || f.Hierarchy("main").Len() != 2 {
		t.Errorf("fragmentation plain decode: %v", f.HierarchyNames())
	}
}

func TestStandoffErrors(t *testing.T) {
	bad := []string{
		`<standoff><text>x</text></standoff>`,                                                                         // no root attr
		`<standoff root="r"><hierarchy name="h"/></standoff>`,                                                         // no text
		`<standoff root="r"><text>x</text><el tag="a" start="0" end="1"/></standoff>`,                                 // el outside hierarchy
		`<standoff root="r"><text>x</text><hierarchy name="h"><el tag="a" start="0" end="9"/></hierarchy></standoff>`, // out of range
		`<standoff root="r"><text>x</text><hierarchy name="h"><el tag="a" start="z" end="1"/></hierarchy></standoff>`, // bad offset
		`<standoff root="r"><text>x</text><hierarchy><el tag="a" start="0" end="1"/></hierarchy></standoff>`,          // unnamed hierarchy
		`<bogus/>`,
		`<standoff root="r"><text>x</text>stray</standoff>`,
	}
	for _, src := range bad {
		if _, err := DecodeStandoff([]byte(src)); err == nil {
			t.Errorf("DecodeStandoff(%q): expected error", src)
		}
	}
}

func TestMilestoneErrors(t *testing.T) {
	bad := []string{
		`<r chx-hierarchies="a b"><w chx-s="b.0"/>text</r>`,                  // unmatched start
		`<r chx-hierarchies="a b">text<w chx-e="b.0"/></r>`,                  // end without start
		`<r chx-hierarchies="a b"><w chx-s="b.0"/>x<v chx-e="b.0"/></r>`,     // tag mismatch
		`<r chx-hierarchies="a b"><w chx-s="noDot"/>x<w chx-e="noDot"/></r>`, // malformed id
		`<r chx-hierarchies="a b"><w chx-s="b.0"/><w chx-s="b.0"/>x</r>`,     // duplicate start
		`<r chx-hierarchies="a b"><w chx-s="b.0">x</w><w chx-e="b.0"/></r>`,  // start with content
		`<r chx-hierarchies="a b"><w chx-s="b.0"/>x<w chx-e="b.0">y</w></r>`, // end with content
	}
	for _, src := range bad {
		if _, err := DecodeMilestones([]byte(src)); err == nil {
			t.Errorf("DecodeMilestones(%q): expected error", src)
		}
	}
}

// TestStandoffNameErrors: standoff carries tags, attribute names and
// hierarchy names as attribute values; a decoder that accepted a name
// the other formats cannot write would hand their encoders a document
// they write as malformed or misread XML.
func TestStandoffNameErrors(t *testing.T) {
	bad := []string{
		`<standoff root="r"><text>ab</text><hierarchy name="h"><el tag="a b" start="0" end="1"/></hierarchy></standoff>`,                      // tag with a space
		`<standoff root="r"><text>ab</text><hierarchy name="h"><el tag="1x" start="0" end="1"/></hierarchy></standoff>`,                       // tag starting with a digit
		`<standoff root="r"><text>ab</text><hierarchy name="h"><el tag="w" start="0" end="1"><at n="1x" v="v"/></el></hierarchy></standoff>`,  // attribute name starting with a digit
		`<standoff root="r"><text>ab</text><hierarchy name="h"><el tag="w" start="0" end="1"><at n="a=b" v="v"/></el></hierarchy></standoff>`, // attribute name with '='
		`<standoff root="r s"><text>ab</text></standoff>`,                                                                                     // root tag with a space
	}
	for _, src := range bad {
		if _, err := DecodeStandoff([]byte(src)); err == nil {
			t.Errorf("DecodeStandoff(%q): expected error", src)
		}
	}
	good := `<standoff root="r"><text>ab</text><hierarchy name="h"><el tag="x:w-1.a" start="0" end="1"><at n="_n" v="1 x"/></el></hierarchy></standoff>`
	if _, err := DecodeStandoff([]byte(good)); err != nil {
		t.Errorf("DecodeStandoff(%q): %v", good, err)
	}
}

// TestDistributedNameErrors: the milestone and fragmentation encoders
// write chx- attributes as their markers, so the distributed import
// rejects them as DecodeStandoff does; a document carrying one would
// encode into a file its own decoder misreads. Every source is checked.
func TestDistributedNameErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		srcs []string
		bad  bool
	}{
		{"start marker", []string{`<r><w chx-s="h.0">ab</w></r>`}, true},
		{"second source", []string{`<r>ab</r>`, `<r><w chx-id="1">ab</w></r>`}, true},
		{"milestone", []string{`<r>a<pb chx-part="I"/>b</r>`}, true},
		{"prefix only", []string{`<r><w chx="1" xchx-s="2" chx_s="3">ab</w></r>`}, false},
		{"in text", []string{`<r><w n="chx-s">chx-s</w></r>`}, false},
		{"root attribute", []string{`<r chx-hierarchies="h">ab</r>`}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var srcs []sacx.Source
			for i, d := range tc.srcs {
				srcs = append(srcs, sacx.Source{Hierarchy: string(rune('a' + i)), Data: []byte(d)})
			}
			doc, err := DecodeDistributedOrdered(srcs)
			if tc.bad && (err == nil || !strings.Contains(err.Error(), "reserved")) {
				t.Fatalf("err %v, want a reserved-name error", err)
			}
			if tc.bad {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			// An accepted document comes back through milestones.
			enc, err := EncodeMilestones(doc, EncodeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeMilestones(enc); err != nil {
				t.Fatalf("milestones re-decode: %v\n%s", err, enc)
			}
		})
	}
}

func TestFragmentationErrors(t *testing.T) {
	bad := []string{
		`<r chx-hierarchies="a b"><x chx-h="b" chx-id="1">ab</x><y chx-h="b" chx-id="1">cd</y></r>`,             // tags disagree
		`<r chx-hierarchies="a b"><x chx-h="a" chx-id="1">ab</x><x chx-h="b" chx-id="1">cd</x></r>`,             // hierarchies disagree
		`<r chx-hierarchies="a b"><x chx-h="b" chx-id="1" n="1">ab</x><x chx-h="b" chx-id="1" n="2">cd</x></r>`, // attributes disagree
		`<r chx-hierarchies="a b"><x chx-h="b" chx-id="1">a<x chx-h="b" chx-id="1">b</x></x></r>`,               // fragments overlap
	}
	for _, src := range bad {
		if _, err := DecodeFragmentation([]byte(src)); err == nil {
			t.Errorf("DecodeFragmentation(%q): expected error", src)
		}
	}
}

func TestFormatParse(t *testing.T) {
	for _, name := range []string{"distributed", "milestones", "fragmentation", "standoff"} {
		f, err := ParseFormat(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if f.String() != name {
			t.Errorf("round trip %s -> %s", name, f)
		}
	}
	if _, err := ParseFormat("nope"); err == nil {
		t.Error("unknown format should error")
	}
	if !strings.Contains(Format(9).String(), "9") {
		t.Error("unknown format string")
	}
}

func TestCrossFormatConversion(t *testing.T) {
	// distributed -> milestones -> fragmentation -> standoff -> GODDAG
	// must preserve the document.
	doc := fig1(t)
	ms, err := EncodeMilestones(doc, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := DecodeMilestones(ms)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := EncodeFragmentation(d2, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d3, err := DecodeFragmentation(fr)
	if err != nil {
		t.Fatal(err)
	}
	so, err := EncodeStandoff(d3, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d4, err := DecodeStandoff(so)
	if err != nil {
		t.Fatal(err)
	}
	if !docsEqual(t, doc, d4) {
		t.Error("cross-format chain mismatch")
	}
}

func TestSizeOverheadOrdering(t *testing.T) {
	// Standoff and single-doc encodings exist and have sane relative
	// sizes: everything is at least as large as the bare content.
	doc := fig1(t)
	contentLen := len(doc.Content().String())
	ms, _ := EncodeMilestones(doc, EncodeOptions{})
	fr, _ := EncodeFragmentation(doc, EncodeOptions{})
	so, _ := EncodeStandoff(doc, EncodeOptions{})
	for name, b := range map[string][]byte{"milestones": ms, "fragmentation": fr, "standoff": so} {
		if len(b) <= contentLen {
			t.Errorf("%s encoding suspiciously small: %d <= %d", name, len(b), contentLen)
		}
	}
}

func mustIns(t *testing.T, d *goddag.Document, h *goddag.Hierarchy, tag string, lo, hi int) *goddag.Element {
	t.Helper()
	e, err := d.InsertElement(h, tag, nil, document.NewSpan(lo, hi))
	if err != nil {
		t.Fatal(err)
	}
	return e
}
