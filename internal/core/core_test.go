package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/document"
	"repro/internal/drivers"
	"repro/internal/goddag"
	"repro/internal/sacx"
	"repro/internal/validate"
)

func twoHier(t *testing.T) *Document {
	t.Helper()
	doc, err := Parse([]sacx.Source{
		{Hierarchy: "a", Data: []byte(`<r><x>one</x> two</r>`)},
		{Hierarchy: "b", Data: []byte(`<r>on<y>e tw</y>o</r>`)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestNewDocument(t *testing.T) {
	doc := New("root", "hello")
	if doc.GODDAG().RootTag() != "root" {
		t.Errorf("root tag = %q", doc.GODDAG().RootTag())
	}
	if doc.Stats().ContentLen != 5 {
		t.Errorf("content len = %d", doc.Stats().ContentLen)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(nil); err == nil {
		t.Error("empty sources should error")
	}
	_, err := Parse([]sacx.Source{
		{Hierarchy: "a", Data: []byte(`<r>abc</r>`)},
		{Hierarchy: "b", Data: []byte(`<r>abX</r>`)},
	})
	if err == nil {
		t.Error("content mismatch should error")
	}
}

func TestQueryTypes(t *testing.T) {
	doc := twoHier(t)
	ns, err := doc.Query("//x")
	if err != nil || len(ns) != 1 {
		t.Fatalf("//x = %v, %v", ns, err)
	}
	v, err := doc.QueryValue("count(//y) + 1")
	if err != nil || v.Number() != 2 {
		t.Fatalf("count+1 = %v, %v", v, err)
	}
	if _, err := doc.Query("count(//x)"); err == nil {
		t.Error("non-node-set Query should error")
	}
	if _, err := doc.Query("//x["); err == nil {
		t.Error("syntax error should surface")
	}
	if _, err := doc.QueryValue("//x["); err == nil {
		t.Error("syntax error should surface in QueryValue")
	}
}

func TestImportExportAllFormats(t *testing.T) {
	doc := twoHier(t)
	for _, f := range []drivers.Format{
		drivers.FormatMilestones, drivers.FormatFragmentation, drivers.FormatStandoff,
	} {
		out, err := doc.Export(f, drivers.EncodeOptions{})
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		back, err := Import(f, out["document"])
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if back.Stats() != doc.Stats() {
			t.Errorf("%v: stats changed", f)
		}
	}
	if _, err := doc.Export(drivers.Format(99), drivers.EncodeOptions{}); err == nil {
		t.Error("unknown format should error")
	}
	if _, err := Import(drivers.Format(99), nil); err == nil {
		t.Error("unknown import format should error")
	}
	if _, err := Import(drivers.FormatDistributed, nil); err == nil {
		t.Error("distributed import should direct to Parse")
	}
}

func TestSchemaFlow(t *testing.T) {
	doc := twoHier(t)
	if err := doc.SetDTD("a", []byte(`<!ELEMENT r (#PCDATA|x)*> <!ELEMENT x (#PCDATA)>`)); err != nil {
		t.Fatal(err)
	}
	if doc.Schema().DTD("a") == nil {
		t.Error("DTD not registered")
	}
	if v := doc.Validate(validate.Full); len(v) != 0 {
		t.Errorf("violations: %v", v)
	}
	if err := doc.SetDTD("a", []byte(`garbage`)); err == nil {
		t.Error("bad DTD should error")
	}
}

func TestEditThroughFacade(t *testing.T) {
	doc := New("r", "abc def")
	s := doc.Edit()
	if _, err := s.InsertMarkup("h", "w", spanOf(0, 3)); err != nil {
		t.Fatal(err)
	}
	if doc.Stats().Elements != 1 {
		t.Error("edit did not reach the document")
	}
	// Undo swaps the session's document; the facade must follow it.
	if err := s.Undo(); err != nil {
		t.Fatal(err)
	}
	if doc.Stats().Elements != 0 {
		t.Errorf("facade did not follow undo: %d elements", doc.Stats().Elements)
	}
}

func TestEnablePrevalidation(t *testing.T) {
	doc := New("r", "abc")
	if err := doc.SetDTD("h", []byte(`<!ELEMENT r (#PCDATA|w)*> <!ELEMENT w (#PCDATA)>`)); err != nil {
		t.Fatal(err)
	}
	doc.EnablePrevalidation()
	if _, err := doc.Edit().InsertMarkup("h", "nope", spanOf(0, 2)); err == nil {
		t.Error("undeclared tag should be vetoed after EnablePrevalidation")
	}
	if _, err := doc.Edit().InsertMarkup("h", "w", spanOf(0, 2)); err != nil {
		t.Errorf("declared tag rejected: %v", err)
	}
}

func TestFilterFacade(t *testing.T) {
	doc := twoHier(t)
	doc.SetDTD("a", []byte(`<!ELEMENT r ANY>`))
	sub, err := doc.Filter("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.GODDAG().HierarchyNames()) != 1 {
		t.Errorf("hierarchies = %v", sub.GODDAG().HierarchyNames())
	}
	if sub.Schema().DTD("a") == nil {
		t.Error("DTD should carry over")
	}
	if _, err := doc.Filter("zzz"); err == nil {
		t.Error("unknown hierarchy should error")
	}
}

func TestExportDistributedKeys(t *testing.T) {
	doc := twoHier(t)
	out, err := doc.Export(drivers.FormatDistributed, drivers.EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("keys = %d", len(out))
	}
	for _, k := range []string{"a", "b"} {
		if _, ok := out[k]; !ok {
			t.Errorf("missing key %s", k)
		}
		if !strings.HasPrefix(string(out[k]), "<r") {
			t.Errorf("output %s does not start with root: %s", k, out[k])
		}
	}
}

// TestSaveWritesV3 pins Save to the v3 section-table format and checks
// that Load reads it back to the same document.
func TestSaveWritesV3(t *testing.T) {
	doc := twoHier(t)
	if _, err := doc.Edit().InsertMarkup("a", "x", spanOf(4, 7), goddag.Attr{Name: "k", Value: "v"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := doc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if head := buf.Bytes()[:5]; string(head) != "GDAG\x03" {
		t.Fatalf("Save wrote header %q, want GDAG version 3", head)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := goddag.Dump(back.GODDAG()), goddag.Dump(doc.GODDAG()); got != want {
		t.Fatalf("loaded document differs:\n%s\nwant:\n%s", got, want)
	}
}

func spanOf(a, b int) document.Span { return document.NewSpan(a, b) }
