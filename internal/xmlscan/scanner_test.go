package xmlscan

import (
	"io"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

// collectTokens scans src to completion and returns all tokens. Because
// the result retains every token, attribute slices are copied out of the
// shared buffer when Options.ReuseAttrs is set.
func collectTokens(src []byte, opts Options) ([]Token, error) {
	s := New(src, opts)
	var out []Token
	for {
		tok, err := s.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if opts.ReuseAttrs && len(tok.Attrs) > 0 {
			tok.Attrs = append([]Attr(nil), tok.Attrs...)
		}
		out = append(out, tok)
	}
}

// collectContent returns the character content of src: the
// concatenation of all text and CDATA, with references decoded.
func collectContent(src []byte) (string, error) {
	toks, err := collectTokens(src, Options{})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, tok := range toks {
		if tok.Kind == KindText || tok.Kind == KindCDATA {
			b.WriteString(tok.Text)
		}
	}
	return b.String(), nil
}

func mustTokens(t *testing.T, src string) []Token {
	t.Helper()
	toks, err := collectTokens([]byte(src), Options{})
	if err != nil {
		t.Fatalf("collectTokens(%q): %v", src, err)
	}
	return toks
}

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestSimpleDocument(t *testing.T) {
	toks := mustTokens(t, `<r>hello</r>`)
	want := []Kind{KindStartElement, KindText, KindEndElement}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v tokens, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v, want %v", i, got[i], want[i])
		}
	}
	if toks[1].Text != "hello" {
		t.Errorf("text: got %q, want %q", toks[1].Text, "hello")
	}
}

func TestAttributes(t *testing.T) {
	toks := mustTokens(t, `<r a="1" b='two' c="a&amp;b"/>`)
	st := toks[0]
	if !st.SelfClosing {
		t.Error("expected self-closing")
	}
	cases := []struct{ name, want string }{{"a", "1"}, {"b", "two"}, {"c", "a&b"}}
	for _, c := range cases {
		got, ok := st.Attr(c.name)
		if !ok || got != c.want {
			t.Errorf("attr %s: got %q ok=%v, want %q", c.name, got, ok, c.want)
		}
	}
	if _, ok := st.Attr("zzz"); ok {
		t.Error("Attr(zzz) should be absent")
	}
}

func TestEntityDecoding(t *testing.T) {
	toks := mustTokens(t, `<r>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;</r>`)
	if toks[1].Text != `<>&'"AB` {
		t.Errorf("got %q", toks[1].Text)
	}
}

func TestCustomEntities(t *testing.T) {
	toks, err := collectTokens([]byte(`<r>&thorn;</r>`), Options{Entities: map[string]string{"thorn": "þ"}})
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Text != "þ" {
		t.Errorf("got %q", toks[1].Text)
	}
}

func TestDoctypeEntityHarvest(t *testing.T) {
	src := `<!DOCTYPE r [<!ENTITY wynn "ƿ"> <!ENTITY ae "æ">]><r>&wynn;&ae;</r>`
	toks := mustTokens(t, src)
	var text string
	for _, tok := range toks {
		if tok.Kind == KindText {
			text += tok.Text
		}
	}
	if text != "ƿæ" {
		t.Errorf("got %q, want %q", text, "ƿæ")
	}
}

func TestCDATA(t *testing.T) {
	toks := mustTokens(t, `<r>a<![CDATA[<b>&amp;]]>c</r>`)
	var got []string
	for _, tok := range toks {
		if tok.Kind == KindText || tok.Kind == KindCDATA {
			got = append(got, tok.Text)
		}
	}
	want := []string{"a", "<b>&amp;", "c"}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestCoalesceCDATA(t *testing.T) {
	toks, err := collectTokens([]byte(`<r><![CDATA[x]]></r>`), Options{CoalesceCDATA: true})
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Kind != KindText || toks[1].Text != "x" {
		t.Errorf("got %v %q", toks[1].Kind, toks[1].Text)
	}
}

func TestCommentsSkippedByDefault(t *testing.T) {
	toks := mustTokens(t, `<r><!-- hi -->x</r>`)
	for _, tok := range toks {
		if tok.Kind == KindComment {
			t.Fatal("comment not skipped")
		}
	}
	toks2, err := collectTokens([]byte(`<r><!-- hi -->x</r>`), Options{KeepComments: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tok := range toks2 {
		if tok.Kind == KindComment && tok.Text == " hi " {
			found = true
		}
	}
	if !found {
		t.Error("comment not reported with KeepComments")
	}
}

func TestProcInst(t *testing.T) {
	toks, err := collectTokens([]byte(`<?xml version="1.0"?><r><?php echo?></r>`), Options{KeepProcInsts: true})
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != KindXMLDecl {
		t.Errorf("first token: %v", toks[0].Kind)
	}
	found := false
	for _, tok := range toks {
		if tok.Kind == KindProcInst && tok.Name == "php" && tok.Text == "echo" {
			found = true
		}
	}
	if !found {
		t.Error("PI not reported")
	}
}

func TestContentByte(t *testing.T) {
	// <r>ab<w>cd</w>e</r> : content = "abcde"
	toks := mustTokens(t, `<r>ab<w>cd</w>e</r>`)
	wantPos := map[string]int{}
	for _, tok := range toks {
		switch {
		case tok.Kind == KindStartElement && tok.Name == "w":
			wantPos["w.start"] = tok.ContentByte
		case tok.Kind == KindEndElement && tok.Name == "w":
			wantPos["w.end"] = tok.ContentByte
		case tok.Kind == KindEndElement && tok.Name == "r":
			wantPos["r.end"] = tok.ContentByte
		}
	}
	if wantPos["w.start"] != 2 {
		t.Errorf("w start content byte = %d, want 2", wantPos["w.start"])
	}
	if wantPos["w.end"] != 4 {
		t.Errorf("w end content byte = %d, want 4", wantPos["w.end"])
	}
	if wantPos["r.end"] != 5 {
		t.Errorf("r end content byte = %d, want 5", wantPos["r.end"])
	}
}

func TestContentByteMultibyte(t *testing.T) {
	// Multibyte runes count at their encoded length (æ, þ, ƿ: 2 bytes).
	toks := mustTokens(t, `<r>æþ<w>ƿ</w></r>`)
	for _, tok := range toks {
		if tok.Kind == KindStartElement && tok.Name == "w" {
			if tok.ContentByte != 4 {
				t.Errorf("w at content byte %d, want 4", tok.ContentByte)
			}
		}
		if tok.Kind == KindEndElement && tok.Name == "r" {
			if tok.ContentByte != 6 {
				t.Errorf("r end at content byte %d, want 6", tok.ContentByte)
			}
		}
	}
}

func TestDepth(t *testing.T) {
	toks := mustTokens(t, `<a><b><c/></b></a>`)
	want := map[string]int{"a": 0, "b": 1, "c": 2}
	for _, tok := range toks {
		if tok.Kind == KindStartElement {
			if tok.Depth != want[tok.Name] {
				t.Errorf("<%s> depth %d, want %d", tok.Name, tok.Depth, want[tok.Name])
			}
		}
	}
}

func TestOffsetsSliceable(t *testing.T) {
	src := `<r a="1">text<w/>more</r>`
	toks := mustTokens(t, src)
	for _, tok := range toks {
		raw := src[tok.Offset:tok.End]
		switch tok.Kind {
		case KindStartElement:
			if !strings.HasPrefix(raw, "<") || !strings.HasSuffix(raw, ">") {
				t.Errorf("start raw %q", raw)
			}
		case KindText:
			if raw != tok.Text {
				t.Errorf("text raw %q != %q", raw, tok.Text)
			}
		}
	}
}

func TestLineCol(t *testing.T) {
	src := "<r>\n  <w/>\n</r>"
	s := New([]byte(src), Options{})
	for {
		tok, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if tok.Kind == KindStartElement && tok.Name == "w" {
			if line, col := s.Position(tok.Offset); line != 2 || col != 3 {
				t.Errorf("<w> at %d:%d, want 2:3", line, col)
			}
		}
	}
}

func TestWellFormednessErrors(t *testing.T) {
	bad := []struct {
		src, wantSub string
	}{
		{`<r>`, "unclosed"},
		{`<r></s>`, "does not match"},
		{`</r>`, "unexpected end tag"},
		{`<r/><r/>`, "after root"},
		{`<r></r><r></r>`, "after root"},
		{`<r></r><s/>`, "after root"},
		{`<r a="1" a="2"/>`, "duplicate attribute"},
		{`<r a=1/>`, "quoted"},
		{`<r a="x/>`, "unterminated attribute"},
		{`<r>&unknown;</r>`, "undefined entity"},
		{`<r>&#xZZ;</r>`, "invalid character reference"},
		{`<r>]]></r>`, "']]>'"},
		{`<r><!-- a -- b --></r>`, "--"},
		{`hello`, "root"},
		{`<r>x</r>trailing`, "outside root"},
		{``, "no root"},
		{`<1bad/>`, "expected name"},
		{`</`, "expected name"},
		{`<?`, "expected name"},
		{`<!DOCTYPE `, "expected name"},
		{`<r></`, "expected name"},
		{`<r b="<"/>`, "'<' not allowed"},
		{`<r>&#0;</r>`, "invalid character reference"},
	}
	for _, c := range bad {
		_, err := collectTokens([]byte(c.src), Options{})
		if err == nil {
			t.Errorf("collectTokens(%q): expected error containing %q, got nil", c.src, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("collectTokens(%q): error %q does not contain %q", c.src, err, c.wantSub)
		}
	}
}

func TestErrorIsSticky(t *testing.T) {
	s := New([]byte(`<r></s>`), Options{})
	var firstErr error
	for {
		_, err := s.Next()
		if err != nil {
			firstErr = err
			break
		}
	}
	_, err2 := s.Next()
	if err2 != firstErr {
		t.Errorf("second error %v, want sticky %v", err2, firstErr)
	}
}

func TestSyntaxErrorFields(t *testing.T) {
	_, err := collectTokens([]byte("<r>\n<bad</r>"), Options{})
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("got %T, want *SyntaxError", err)
	}
	if se.Line != 2 {
		t.Errorf("line %d, want 2", se.Line)
	}
	if !strings.Contains(se.Error(), "xml:") {
		t.Errorf("Error() = %q", se.Error())
	}
}

func TestContent(t *testing.T) {
	got, err := collectContent([]byte(`<r>ab<w>c</w><![CDATA[d]]>e</r>`))
	if err != nil {
		t.Fatal(err)
	}
	if got != "abcde" {
		t.Errorf("Content = %q, want %q", got, "abcde")
	}
}

func TestWhitespaceOutsideRoot(t *testing.T) {
	toks := mustTokens(t, "  \n<r>x</r>\n  ")
	// Leading/trailing whitespace produces empty-content text tokens.
	content := ""
	for _, tok := range toks {
		content += tok.Text
	}
	if content != "x" {
		t.Errorf("content %q, want %q", content, "x")
	}
}

func TestEscapeText(t *testing.T) {
	if got := EscapeText(`a<b>&c`); got != "a&lt;b&gt;&amp;c" {
		t.Errorf("EscapeText = %q", got)
	}
}

func TestEscapeAttr(t *testing.T) {
	if got := EscapeAttr("a\"b<c&d\ne"); got != `a&quot;b&lt;c&amp;d&#10;e` {
		t.Errorf("EscapeAttr = %q", got)
	}
}

func TestIsName(t *testing.T) {
	valid := []string{"a", "ab", "a-b", "a.b", "a1", "_x", "ns:tag", "æ"}
	invalid := []string{"", "1a", "-a", ".a", "a b", "a<"}
	for _, s := range valid {
		if !IsName(s) {
			t.Errorf("IsName(%q) = false, want true", s)
		}
	}
	for _, s := range invalid {
		if IsName(s) {
			t.Errorf("IsName(%q) = true, want false", s)
		}
	}
}

// TestRoundTripEscape is a property test: any text survives an
// escape/scan round trip as document content.
func TestRoundTripEscape(t *testing.T) {
	f := func(s string) bool {
		if !utf8.ValidString(s) {
			return true // skip invalid UTF-8 inputs
		}
		for _, r := range s {
			if !isXMLChar(r) || r == '\r' {
				return true // skip non-XML characters; \r is normalized by real parsers
			}
		}
		src := "<r>" + EscapeText(s) + "</r>"
		got, err := collectContent([]byte(src))
		if err != nil {
			return false
		}
		return got == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestRoundTripAttr is a property test for attribute escaping.
func TestRoundTripAttr(t *testing.T) {
	f := func(s string) bool {
		if !utf8.ValidString(s) {
			return true
		}
		for _, r := range s {
			if !isXMLChar(r) || r == '\r' {
				return true
			}
		}
		src := `<r a="` + EscapeAttr(s) + `"/>`
		toks, err := collectTokens([]byte(src), Options{})
		if err != nil {
			return false
		}
		got, _ := toks[0].Attr("a")
		return got == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestScannerState(t *testing.T) {
	s := New([]byte(`<r>ab<w>c</w></r>`), Options{})
	maxDepth := 0
	for {
		_, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if s.Depth() > maxDepth {
			maxDepth = s.Depth()
		}
	}
	if maxDepth != 2 {
		t.Errorf("max depth %d, want 2", maxDepth)
	}
	if s.ContentByte() != 3 {
		t.Errorf("final content byte %d, want 3", s.ContentByte())
	}
}

func TestDeepNesting(t *testing.T) {
	depth := 2000
	var b strings.Builder
	for i := 0; i < depth; i++ {
		b.WriteString("<a>")
	}
	b.WriteString("x")
	for i := 0; i < depth; i++ {
		b.WriteString("</a>")
	}
	toks := mustTokens(t, b.String())
	if len(toks) != 2*depth+1 {
		t.Errorf("got %d tokens, want %d", len(toks), 2*depth+1)
	}
}

func TestDoctypeToken(t *testing.T) {
	toks := mustTokens(t, `<!DOCTYPE r SYSTEM "r.dtd"><r/>`)
	if toks[0].Kind != KindDoctype || toks[0].Name != "r" {
		t.Errorf("got %v %q", toks[0].Kind, toks[0].Name)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindStartElement: "StartElement",
		KindEndElement:   "EndElement",
		KindText:         "Text",
		KindCDATA:        "CDATA",
		KindComment:      "Comment",
		KindProcInst:     "ProcInst",
		KindDoctype:      "Doctype",
		KindXMLDecl:      "XMLDecl",
		Kind(99):         "Kind(99)",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

// ---- zero-copy / lazy-path coverage ------------------------------------

// TestZeroCopyTextAliasesInput checks that reference-free text comes back
// as a substring of the input rather than a copy.
func TestZeroCopyTextAliasesInput(t *testing.T) {
	src := `<r>plain text run</r>`
	toks := mustTokens(t, src)
	text := toks[1]
	if text.Kind != KindText || text.Text != "plain text run" {
		t.Fatalf("unexpected token %+v", text)
	}
	if src[text.Offset:text.End] != text.Text {
		t.Errorf("text %q is not the input slice %q", text.Text, src[text.Offset:text.End])
	}
}

// TestEntityHeavyText exercises the decoded (slow) text path: every run
// mixes plain chunks, named entities, character references, and ']'
// bytes that must be checked against "]]>".
func TestEntityHeavyText(t *testing.T) {
	src := `<r>a&amp;b&lt;c&#65;&#x42;]x&gt;[&quot;&apos;]tail&amp;&amp;</r>`
	toks := mustTokens(t, src)
	want := `a&b<cAB]x>["']tail&&`
	if toks[1].Text != want {
		t.Errorf("decoded text %q, want %q", toks[1].Text, want)
	}
	if toks[2].ContentByte != len(want) {
		t.Errorf("end tag content byte %d, want %d", toks[2].ContentByte, len(want))
	}
}

// TestEntityTextPositions verifies byte content offsets across a mix of
// multi-byte literals and references that decode to multi-byte runes.
func TestEntityTextPositions(t *testing.T) {
	// Content: "æx" + "þy" — æ literal, þ via character reference; both
	// count at their decoded length of 2 bytes.
	toks := mustTokens(t, `<r>æx<w>&#xFE;y</w></r>`)
	for _, tok := range toks {
		if tok.Kind == KindStartElement && tok.Name == "w" {
			if tok.ContentByte != 3 {
				t.Errorf("w content byte %d, want 3 (æ is 2 bytes)", tok.ContentByte)
			}
		}
		if tok.Kind == KindEndElement && tok.Name == "r" {
			if tok.ContentByte != 6 {
				t.Errorf("r end at byte=%d, want 6", tok.ContentByte)
			}
		}
	}
}

// TestCDATACoalescingPositions checks that coalesced CDATA advances
// content offsets exactly like plain text, including raw markup-looking
// bytes inside the section.
func TestCDATACoalescingPositions(t *testing.T) {
	src := `<r>ab<![CDATA[<&]]>cd<w/></r>`
	toks, err := collectTokens([]byte(src), Options{CoalesceCDATA: true})
	if err != nil {
		t.Fatal(err)
	}
	var content string
	for _, tok := range toks {
		if tok.Kind == KindText {
			content += tok.Text
		}
		if tok.Kind == KindStartElement && tok.Name == "w" {
			if tok.ContentByte != 6 {
				t.Errorf("w at byte=%d, want 6", tok.ContentByte)
			}
		}
	}
	if content != "ab<&cd" {
		t.Errorf("content %q, want %q", content, "ab<&cd")
	}
}

// TestCRLFInputs checks that carriage returns pass through text untouched
// and that line/col positions treat only '\n' as a line break, exactly as
// the eager implementation did.
func TestCRLFInputs(t *testing.T) {
	src := "<r>\r\nab\r\n<w/>\r\n</r>"
	s := New([]byte(src), Options{})
	var text string
	for {
		tok, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if tok.Kind == KindText {
			text += tok.Text
		}
		if tok.Kind == KindStartElement && tok.Name == "w" {
			if line, col := s.Position(tok.Offset); line != 3 || col != 1 {
				t.Errorf("<w> at %d:%d, want 3:1", line, col)
			}
		}
	}
	if text != "\r\nab\r\n\r\n" {
		t.Errorf("text %q: CR bytes must be preserved", text)
	}
}

// TestErrorLineColLazy locks the Line/Col fields of SyntaxErrors produced
// by the lazy computation to the values the eager seed scanner reported.
func TestErrorLineColLazy(t *testing.T) {
	cases := []struct {
		src       string
		line, col int
	}{
		{"<r>\n<bad</r>", 2, 5},  // attr-name error at the stray '<' on line 2
		{"<r>\n  </s>", 2, 3},    // mismatched end tag after indent
		{"<r>a&zz;</r>", 1, 5},   // undefined entity at the '&'
		{"<r>\n\n]]></r>", 3, 1}, // ']]>' in character data
		{"<a><b>\n\n\nx", 4, 2},  // EOF with unclosed elements
		{"<r>x</r>\nmore", 1, 9}, // content outside root, anchored at the run start
	}
	for _, c := range cases {
		_, err := collectTokens([]byte(c.src), Options{})
		se, ok := err.(*SyntaxError)
		if !ok {
			t.Errorf("collectTokens(%q): got %T (%v), want *SyntaxError", c.src, err, err)
			continue
		}
		if se.Line != c.line || se.Col != c.col {
			t.Errorf("collectTokens(%q): error at %d:%d, want %d:%d (%v)", c.src, se.Line, se.Col, c.line, c.col, se)
		}
	}
}

// TestZeroCopyAttrValues checks both attribute paths: clean values alias
// the input, reference-bearing values decode.
func TestZeroCopyAttrValues(t *testing.T) {
	toks := mustTokens(t, `<r plain="abc" quoted='x"y' dec="a&amp;&#66;"/>`)
	st := toks[0]
	for _, c := range []struct{ name, want string }{
		{"plain", "abc"}, {"quoted", `x"y`}, {"dec", "a&B"},
	} {
		if got, ok := st.Attr(c.name); !ok || got != c.want {
			t.Errorf("attr %s = %q,%v want %q", c.name, got, ok, c.want)
		}
	}
}

// TestReuseAttrs checks the opt-in attribute buffer reuse: values are
// correct per token, and the buffer really is reused between tags.
func TestReuseAttrs(t *testing.T) {
	src := `<r><a x="1" y="2"/><b x="3"/><c/></r>`
	s := New([]byte(src), Options{ReuseAttrs: true})
	var prev []Attr
	for {
		tok, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if tok.Kind != KindStartElement {
			continue
		}
		switch tok.Name {
		case "a":
			if v, _ := tok.Attr("y"); v != "2" {
				t.Errorf("a/@y = %q", v)
			}
			prev = tok.Attrs
		case "b":
			if v, _ := tok.Attr("x"); v != "3" {
				t.Errorf("b/@x = %q", v)
			}
			// The buffer is shared: a's attrs were overwritten in place.
			if len(prev) > 0 && prev[0].Value != "3" {
				t.Errorf("expected buffer reuse to overwrite earlier attrs, got %v", prev)
			}
		case "c":
			if tok.Attrs != nil {
				t.Errorf("c should have nil attrs, got %v", tok.Attrs)
			}
		}
	}
}

// TestEscapeFastPathsReturnInput checks that escaping clean strings does
// not copy.
func TestEscapeFastPathsReturnInput(t *testing.T) {
	clean := "just plain text with æ runes"
	if got := EscapeText(clean); got != clean {
		t.Errorf("EscapeText changed clean input: %q", got)
	}
	if got := EscapeAttr(clean); got != clean {
		t.Errorf("EscapeAttr changed clean input: %q", got)
	}
	if n := testing.AllocsPerRun(100, func() { _ = EscapeText(clean); _ = EscapeAttr(clean) }); n != 0 {
		t.Errorf("escaping clean strings allocates %.0f times", n)
	}
}

// TestTokensCopiesReusedAttrs ensures collectTokens (which retains every token)
// detaches attribute slices from the shared ReuseAttrs buffer.
func TestTokensCopiesReusedAttrs(t *testing.T) {
	toks, err := collectTokens([]byte(`<r><a x="1"/><b y="2"/></r>`), Options{ReuseAttrs: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks {
		if tok.Kind != KindStartElement {
			continue
		}
		switch tok.Name {
		case "a":
			if v, ok := tok.Attr("x"); !ok || v != "1" {
				t.Errorf("a attrs corrupted: %v", tok.Attrs)
			}
		case "b":
			if v, ok := tok.Attr("y"); !ok || v != "2" {
				t.Errorf("b attrs corrupted: %v", tok.Attrs)
			}
		}
	}
}
