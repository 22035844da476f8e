package goddag

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/document"
)

// bulkSpans builds the same element set twice — through the bulk loader
// and through the general InsertElement path — and asserts identical
// structure. Spans are given in arbitrary order; both paths insert them
// sorted by CompareSpans with index order breaking ties, the order
// sacx.Build produces.
func bulkVsInsert(t *testing.T, contentLen int, spans []document.Span) {
	t.Helper()
	content := strings.Repeat("x", contentLen)
	idx := make([]int, len(spans))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return document.CompareSpans(spans[idx[a]], spans[idx[b]]) < 0
	})

	bulkDoc := New("r", content)
	bh := bulkDoc.AddHierarchy("h")
	bulk := bulkDoc.BulkLoad()
	insDoc := New("r", content)
	ih := insDoc.AddHierarchy("h")
	for _, i := range idx {
		if _, err := bulk.Append(bh, "e", nil, spans[i]); err != nil {
			t.Fatalf("bulk append %v: %v", spans[i], err)
		}
		if _, err := insDoc.InsertElement(ih, "e", nil, spans[i]); err != nil {
			t.Fatalf("insert %v: %v", spans[i], err)
		}
	}
	if err := bulkDoc.Check(); err != nil {
		t.Fatalf("bulk doc invalid: %v", err)
	}
	if err := insDoc.Check(); err != nil {
		t.Fatalf("insert doc invalid: %v", err)
	}
	var render func(es []*Element) string
	render = func(es []*Element) string {
		var b strings.Builder
		for _, e := range es {
			b.WriteString(e.String())
			b.WriteString("(")
			b.WriteString(render(e.children))
			b.WriteString(")")
		}
		return b.String()
	}
	bs, is := render(bh.top), render(ih.top)
	if bs != is {
		t.Errorf("structures differ:\n bulk   %s\n insert %s", bs, is)
	}
}

func TestBulkMatchesInsertElement(t *testing.T) {
	cases := []struct {
		name  string
		spans []document.Span
	}{
		{"nested", []document.Span{{Start: 0, End: 10}, {Start: 2, End: 8}, {Start: 3, End: 5}}},
		{"siblings", []document.Span{{Start: 0, End: 3}, {Start: 3, End: 6}, {Start: 6, End: 9}}},
		{"coextensive", []document.Span{{Start: 2, End: 6}, {Start: 2, End: 6}, {Start: 2, End: 6}}},
		{"empty-same-pos", []document.Span{{Start: 4, End: 4}, {Start: 4, End: 4}}},
		{"milestone-left-edge", []document.Span{{Start: 2, End: 8}, {Start: 2, End: 2}}},
		{"milestone-right-edge", []document.Span{{Start: 2, End: 8}, {Start: 8, End: 8}}},
		{"milestone-interior", []document.Span{{Start: 2, End: 8}, {Start: 5, End: 5}}},
		{"mixed", []document.Span{
			{Start: 0, End: 12}, {Start: 0, End: 4}, {Start: 4, End: 4},
			{Start: 4, End: 9}, {Start: 5, End: 7}, {Start: 9, End: 12},
			{Start: 9, End: 9}, {Start: 12, End: 12},
		}},
		{"deep-left-edge", []document.Span{
			{Start: 0, End: 10}, {Start: 2, End: 9}, {Start: 2, End: 6}, {Start: 2, End: 2},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bulkVsInsert(t, 16, c.spans)
		})
	}
}

func TestBulkOrderEnforced(t *testing.T) {
	doc := New("r", "abcdef")
	h := doc.AddHierarchy("h")
	bulk := doc.BulkLoad()
	if _, err := bulk.Append(h, "a", nil, document.NewSpan(2, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := bulk.Append(h, "b", nil, document.NewSpan(0, 6)); err == nil {
		t.Error("out-of-order append should fail")
	}
	// A different hierarchy has its own order frontier.
	h2 := doc.AddHierarchy("h2")
	if _, err := bulk.Append(h2, "c", nil, document.NewSpan(0, 6)); err != nil {
		t.Errorf("fresh hierarchy should accept any first span: %v", err)
	}
}

func TestBulkConflict(t *testing.T) {
	doc := New("r", "abcdef")
	h := doc.AddHierarchy("h")
	bulk := doc.BulkLoad()
	if _, err := bulk.Append(h, "a", nil, document.NewSpan(0, 4)); err != nil {
		t.Fatal(err)
	}
	_, err := bulk.Append(h, "b", nil, document.NewSpan(2, 6))
	if _, ok := err.(*ConflictError); !ok {
		t.Errorf("overlap should return *ConflictError, got %v", err)
	}
}

func TestBulkValidation(t *testing.T) {
	doc := New("r", "abcdef")
	h := doc.AddHierarchy("h")
	other := New("r", "abcdef").AddHierarchy("x")
	bulk := doc.BulkLoad()
	if _, err := bulk.Append(h, "", nil, document.NewSpan(0, 2)); err == nil {
		t.Error("empty tag should fail")
	}
	if _, err := bulk.Append(h, "a", nil, document.NewSpan(0, 99)); err == nil {
		t.Error("out-of-range span should fail")
	}
	if _, err := bulk.Append(other, "a", nil, document.NewSpan(0, 2)); err == nil {
		t.Error("foreign hierarchy should fail")
	}
	if _, err := bulk.Append(nil, "a", nil, document.NewSpan(0, 2)); err == nil {
		t.Error("nil hierarchy should fail")
	}
}

// TestBulkAttrsIndependent verifies that elements loaded from the shared
// attribute arena can be mutated without affecting their neighbours.
func TestBulkAttrsIndependent(t *testing.T) {
	doc := New("r", "abcdef")
	h := doc.AddHierarchy("h")
	bulk := doc.BulkLoad()
	a1 := []Attr{{Name: "n", Value: "1"}}
	a2 := []Attr{{Name: "n", Value: "2"}, {Name: "m", Value: "x"}}
	e1, err := bulk.Append(h, "a", a1, document.NewSpan(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := bulk.Append(h, "b", a2, document.NewSpan(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	e1.SetAttr("n", "changed")
	e1.SetAttr("extra", "new")
	if v, _ := e2.Attr("n"); v != "2" {
		t.Errorf("e2/@n corrupted: %q", v)
	}
	if v, _ := e1.Attr("extra"); v != "new" {
		t.Errorf("e1/@extra = %q", v)
	}
	if v, _ := e2.Attr("m"); v != "x" {
		t.Errorf("e2/@m corrupted: %q", v)
	}
}

// TestLoadRecords hands LoadRecords records out of order: Seq nests the
// equal spans of one hierarchy (lower Seq inner) whatever their order in
// the slice, and a record naming no registered hierarchy is an error.
func TestLoadRecords(t *testing.T) {
	for _, flip := range []bool{false, true} {
		doc := New("r", "abcdefgh")
		doc.AddHierarchy("h")
		doc.AddHierarchy("g")
		recs := []Record{
			{Hier: 1, Tag: "x", Span: document.NewSpan(0, 3)},
			{Hier: 0, Tag: "outer", Span: document.NewSpan(2, 6), Seq: 5},
			{Hier: 0, Tag: "pb", Span: document.NewSpan(7, 7), Seq: 2},
			{Hier: 0, Tag: "inner", Span: document.NewSpan(2, 6), Seq: 1},
		}
		if flip {
			recs[1], recs[3] = recs[3], recs[1]
		}
		if err := doc.LoadRecords(recs); err != nil {
			t.Fatal(err)
		}
		if err := doc.Check(); err != nil {
			t.Fatal(err)
		}
		top := doc.Hierarchy("h").top
		if len(top) != 2 || top[0].name != "outer" || len(top[0].children) != 1 || top[0].children[0].name != "inner" {
			t.Errorf("flip=%v: nesting %s", flip, DumpTree(doc.Hierarchy("h")))
		}
	}
	doc := New("r", "ab")
	doc.AddHierarchy("h")
	if err := doc.LoadRecords([]Record{{Hier: 1, Tag: "x", Span: document.NewSpan(0, 1)}}); err == nil {
		t.Error("record of an unregistered hierarchy loaded")
	}
}

// TestSerialOrder moves empty elements ahead of the wider sibling that
// starts where they are, and leaves every other order alone.
func TestSerialOrder(t *testing.T) {
	doc := New("r", "abcdef")
	h := doc.AddHierarchy("h")
	for _, sp := range []document.Span{document.NewSpan(2, 4), document.NewSpan(2, 2), document.NewSpan(2, 2), document.NewSpan(4, 4)} {
		if _, err := doc.InsertElement(h, "e", nil, sp); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for _, n := range SerialOrder(doc.Root().Children(h)) {
		got = append(got, n.Span().String())
	}
	if want := "[0,2) [2,2) [2,4) [4,4) [4,6)"; strings.Join(got, " ") != want {
		t.Errorf("serial order %s, want %s", strings.Join(got, " "), want)
	}
}
