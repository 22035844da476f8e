package cliutil

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/goddag"
	"repro/internal/xpath"
)

// jsonStringCases covers every escaping regime of encoding/json with
// HTML escaping off: plain ASCII, the two escaped printables, every
// control byte, multibyte text, the JSONP separators, and invalid
// UTF-8.
var jsonStringCases = []string{
	"", "plain ascii", `with "quotes" and \backslash\`,
	"tab\there\nnewline\rreturn", "\b\f\x00\x01\x1f\x7f",
	"hwæt wé gár-dena ĝeár-dagum", "多字节文本", "emoji 🙂 mixed",
	"line\u2028sep\u2029para", "<html> & 'unescaped'",
	"invalid \xff utf8 \xc3\x28 tail \xe2\x82", "trailing\xf0",
}

func stdlibJSONString(t *testing.T, s string) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(s); err != nil {
		t.Fatal(err)
	}
	return strings.TrimSuffix(buf.String(), "\n")
}

func TestAppendJSONStringMatchesStdlib(t *testing.T) {
	for _, s := range jsonStringCases {
		got := string(AppendJSONString(nil, s))
		want := stdlibJSONString(t, s)
		if got != want {
			t.Errorf("AppendJSONString(%q):\n  got:  %s\n  want: %s", s, got, want)
		}
	}
}

// streamGridDoc builds one corpus configuration for encoder tests.
func streamGridDoc(t *testing.T, hierarchies int, vocab []string) *goddag.Document {
	t.Helper()
	cfg := corpus.DefaultConfig(120)
	cfg.Hierarchies = hierarchies
	cfg.OverlapDensity = 0.6
	cfg.Vocabulary = vocab
	doc, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// allNodes returns every node of the document (root, elements, leaves).
func allNodes(t *testing.T, doc *goddag.Document) []goddag.Node {
	t.Helper()
	ns, err := xpath.Select(doc, "//node()")
	if err != nil {
		t.Fatal(err)
	}
	return append([]goddag.Node{doc.Root()}, ns...)
}

// TestAppendNodeJSONMatchesEncodeNode pins the streaming JSON encoder
// to the materializing one, byte for byte, across hierarchies and
// vocabularies (including multibyte text where byte and rune spans
// diverge).
func TestAppendNodeJSONMatchesEncodeNode(t *testing.T) {
	vocabs := map[string][]string{"default": nil, "multibyte": corpus.MultibyteVocabulary}
	for vn, vocab := range vocabs {
		for _, h := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("%s/h=%d", vn, h), func(t *testing.T) {
				doc := streamGridDoc(t, h, vocab)
				for _, n := range allNodes(t, doc) {
					var buf bytes.Buffer
					enc := json.NewEncoder(&buf)
					enc.SetEscapeHTML(false)
					if err := enc.Encode(EncodeNode(n)); err != nil {
						t.Fatal(err)
					}
					want := strings.TrimSuffix(buf.String(), "\n")
					got := string(AppendNodeJSON(nil, n))
					if got != want {
						t.Fatalf("node %v:\n  got:  %s\n  want: %s", n, got, want)
					}
				}
			})
		}
	}
}

// TestAppendNodeTextMatchesFormatNode pins the streaming text encoder
// to the historical fmt-based line format.
func TestAppendNodeTextMatchesFormatNode(t *testing.T) {
	vocabs := map[string][]string{"default": nil, "multibyte": corpus.MultibyteVocabulary}
	for vn, vocab := range vocabs {
		t.Run(vn, func(t *testing.T) {
			doc := streamGridDoc(t, 4, vocab)
			content := doc.Content()
			for _, n := range allNodes(t, doc) {
				got := string(AppendNodeText(nil, n))
				// Reference: the original fmt.Sprintf formula.
				var want string
				switch v := n.(type) {
				case *goddag.Element:
					want = fmt.Sprintf("%s:%s%v %q", v.Hierarchy().Name(), v.Name(), content.RuneSpan(v.Span()), clip(v.Text()))
				case goddag.Leaf:
					want = fmt.Sprintf("leaf#%d%v %q", v.Index(), content.RuneSpan(v.Span()), clip(v.Text()))
				default:
					want = fmt.Sprintf("root:%s %q", n.Document().RootTag(), clip(n.Text()))
				}
				if got != want {
					t.Fatalf("node %v:\n  got:  %s\n  want: %s", n, got, want)
				}
				if got != FormatNode(n) {
					t.Fatalf("FormatNode drifted from AppendNodeText: %q vs %q", FormatNode(n), got)
				}
			}
		})
	}
}

func TestAppendClippedQuote(t *testing.T) {
	cases := []string{
		"", "short", strings.Repeat("x", 60), strings.Repeat("x", 61),
		strings.Repeat("日", 57), strings.Repeat("日", 61), strings.Repeat("日", 200),
		"quote\"and\\slash " + strings.Repeat("héllo ", 30),
	}
	for _, s := range cases {
		got := string(appendClippedQuote(nil, s))
		want := strconv.Quote(clip(s))
		if got != want {
			t.Errorf("appendClippedQuote(%d runes):\n  got:  %s\n  want: %s", len([]rune(s)), got, want)
		}
	}
}

// sliceSource adapts a node slice to NodeSource for writer tests.
type sliceSource struct {
	ns []goddag.Node
	i  int
}

func (s *sliceSource) Next() (goddag.Node, error) {
	if s.i >= len(s.ns) {
		return nil, nil
	}
	n := s.ns[s.i]
	s.i++
	return n, nil
}

func (s *sliceSource) Size() int { return len(s.ns) - s.i }

func TestWriteNodesTextMatchesWriteValue(t *testing.T) {
	doc := streamGridDoc(t, 4, corpus.MultibyteVocabulary)
	v, err := xpath.MustCompile("//w").Eval(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{0, 1, 5, 100000} {
		var want, got bytes.Buffer
		WriteValue(&want, v, false, limit)
		n, err := WriteNodesText(&got, &sliceSource{ns: v.Nodes()}, limit)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("limit=%d: streaming text differs from WriteValue", limit)
		}
		wantN := len(v.Nodes())
		if limit > 0 && limit < wantN {
			wantN = limit
		}
		if n != wantN {
			t.Fatalf("limit=%d: wrote %d nodes, want %d", limit, n, wantN)
		}
	}
}

// TestAppendUint pins the fast integer appender to strconv across digit
// counts and pair boundaries.
func TestAppendUint(t *testing.T) {
	cases := []int64{0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 12345,
		99999, 100000, 285938, 1<<31 - 1, 1e15, 1<<63 - 1}
	for _, v := range cases {
		got := string(AppendUint(nil, v))
		want := strconv.FormatInt(v, 10)
		if got != want {
			t.Errorf("AppendUint(%d) = %q, want %q", v, got, want)
		}
	}
}

// clip is FormatNode's text clipping written the obvious way, the
// reference appendClippedQuote is held to.
func clip(s string) string {
	r := []rune(s)
	if len(r) > 60 {
		return string(r[:57]) + "..."
	}
	return s
}

// valueQueries yields every value kind: node sets (empty, small,
// large, from every node kind), attribute sets (empty and not), and
// string, number and boolean scalars with escaping and empty values.
var valueQueries = []string{
	"//w", "//nosuch", "/", "//node()", "//line/covered::w", "//w/text()",
	"//w/@n", "//line/@n", "//w/@nope",
	"string(//w)", "string(//nosuch)", `concat("<&> \", '"', "\")`, "name(//line)",
	"count(//w)", "1 div 0", "0 div 0", "-1.5",
	"boolean(//w)", "not(//w)",
}

// encodeValueStdlib is the oracle: encoding/json of the reference
// encoder, without the trailing newline.
func encodeValueStdlib(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return strings.TrimSuffix(buf.String(), "\n")
}

// unsizedSource hides its size, as predicate, semi-join and join
// streams do, so the count is known only after the drain.
type unsizedSource struct{ sliceSource }

func (s *unsizedSource) Size() int { return -1 }

func TestAppendValueJSONMatchesEncodeValue(t *testing.T) {
	doc := streamGridDoc(t, 4, corpus.MultibyteVocabulary)
	for _, q := range valueQueries {
		v, err := xpath.MustCompile(q).Eval(doc)
		if err != nil {
			t.Fatal(err)
		}
		size := len(v.Nodes()) + len(v.Attrs())
		for _, limit := range []int{0, 1, size, size + 1} {
			want := EncodeValue(v, limit)
			wantJSON := encodeValueStdlib(t, want)
			got, n, truncated := AppendValueJSON(nil, v, false, limit)
			if string(got) != wantJSON {
				t.Fatalf("%s limit=%d:\n  got:  %.300s\n  want: %.300s", q, limit, got, wantJSON)
			}
			wantN := len(want.Nodes) + len(want.Attrs)
			if !v.IsNodeSet() {
				wantN = 1
			}
			if n != wantN || truncated != want.Truncated {
				t.Fatalf("%s limit=%d: n=%d truncated=%v, want %d %v", q, limit, n, truncated, wantN, want.Truncated)
			}
			if v.Kind() != "node-set" {
				continue
			}
			for _, src := range []NodeSource{&sliceSource{ns: v.Nodes()}, &unsizedSource{sliceSource{ns: v.Nodes()}}} {
				got, err := AppendNodeSetJSON([]byte("prefix"), src, limit)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != "prefix"+wantJSON {
					t.Fatalf("%s limit=%d, %T: streamed node set differs:\n  got:  %.300s\n  want: %.300s", q, limit, src, got, wantJSON)
				}
			}
		}
		// countOnly is the reference with the lists dropped.
		want := EncodeValue(v, 0)
		want.Nodes, want.Attrs = nil, nil
		if got, _, _ := AppendValueJSON(nil, v, true, 1); string(got) != encodeValueStdlib(t, want) {
			t.Fatalf("%s countOnly: %s, want %s", q, got, encodeValueStdlib(t, want))
		}
	}
}

// TestEmptyAttributeSetKeepsKind: an attribute-axis query with no
// match is an empty attribute set on the wire, as Value.Kind says, not
// an empty node set.
func TestEmptyAttributeSetKeepsKind(t *testing.T) {
	doc := streamGridDoc(t, 2, nil)
	v, err := xpath.MustCompile("//w/@nope").Eval(doc)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"type":"attribute-set","count":0}`
	if got := encodeValueStdlib(t, EncodeValue(v, 0)); got != want {
		t.Errorf("EncodeValue: %s, want %s", got, want)
	}
	if got, _, _ := AppendValueJSON(nil, v, false, 0); string(got) != want {
		t.Errorf("AppendValueJSON: %s, want %s", got, want)
	}
}

// TestAppendValuesJSONSharedCap holds the FLWOR tuple array against
// the reference loop: tuples encoded with the remaining budget until it
// is spent, then the array ends and is marked truncated.
func TestAppendValuesJSONSharedCap(t *testing.T) {
	doc := streamGridDoc(t, 4, corpus.MultibyteVocabulary)
	var vals []xpath.Value
	for _, q := range valueQueries {
		v, err := xpath.MustCompile(q).Eval(doc)
		if err != nil {
			t.Fatal(err)
		}
		vals = append(vals, v)
	}
	for _, limit := range []int{0, 1, 5, 200, 1 << 20} {
		for _, tuples := range [][]xpath.Value{nil, vals[:1], vals} {
			want := []ValueJSON{}
			remaining, wantTrunc := limit, false
			for _, v := range tuples {
				if limit > 0 && remaining <= 0 {
					wantTrunc = true
					break
				}
				enc := EncodeValue(v, remaining)
				wantTrunc = wantTrunc || enc.Truncated
				if v.IsNodeSet() {
					remaining -= len(enc.Nodes) + len(enc.Attrs)
				} else {
					remaining--
				}
				want = append(want, enc)
			}
			got, truncated := AppendValuesJSON(nil, tuples, limit)
			if w := encodeValueStdlib(t, want); string(got) != w || truncated != wantTrunc {
				t.Fatalf("limit=%d, %d tuples: truncated=%v (want %v)\n  got:  %.300s\n  want: %.300s",
					limit, len(tuples), truncated, wantTrunc, got, w)
			}
		}
	}
}

// TestWriteFLWORMatchesWriteValue: each tuple writes as WriteValue
// writes it, under the shared cap.
func TestWriteFLWORMatchesWriteValue(t *testing.T) {
	doc := streamGridDoc(t, 4, corpus.MultibyteVocabulary)
	var vals []xpath.Value
	for _, q := range valueQueries {
		v, err := xpath.MustCompile(q).Eval(doc)
		if err != nil {
			t.Fatal(err)
		}
		vals = append(vals, v)
	}
	var want bytes.Buffer
	for _, v := range vals {
		WriteValue(&want, v, false, 0)
	}
	var got bytes.Buffer
	WriteFLWOR(&got, vals, false, 0)
	if got.String() != want.String() {
		t.Fatal("uncapped WriteFLWOR differs from WriteValue per tuple")
	}
	lines := strings.SplitAfter(want.String(), "\n")
	for _, limit := range []int{1, 7, 300} {
		got.Reset()
		WriteFLWOR(&got, vals, false, limit)
		if w := strings.Join(lines[:min(limit, len(lines))], ""); got.String() != w {
			t.Fatalf("limit=%d: WriteFLWOR is not the first %d lines", limit, limit)
		}
	}
}
