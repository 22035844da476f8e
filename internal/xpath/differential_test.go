package xpath

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/document"
	"repro/internal/goddag"
)

// compileReference compiles a query with all plan rewrites disabled.
func compileReference(t *testing.T, query string) *Query {
	t.Helper()
	toks, err := lex(query)
	if err != nil {
		t.Fatal(err)
	}
	p := &parser{query: query, toks: toks, noOpt: true}
	e, err := p.parseExpr()
	if err != nil {
		t.Fatal(err)
	}
	if p.peek().kind != tokEOF {
		t.Fatalf("trailing input in %q", query)
	}
	return &Query{source: query, root: e}
}

// randomDoc builds a multi-hierarchy document with random (per-hierarchy
// conflict-free) markup for differential testing.
func randomDoc(seed int64) *goddag.Document {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"swa", "hwaet", "he", "us", "saegde", "wisdom", "gemynd"}
	var sb strings.Builder
	for i := 0; i < 30; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(words[rng.Intn(len(words))])
	}
	d := goddag.New("r", sb.String())
	n := d.Content().Len()
	tags := []string{"a", "b", "c"}
	for hi := 0; hi < 3; hi++ {
		h := d.AddHierarchy(string(rune('p' + hi)))
		lastEnd := 0
		for k := 0; k < 10; k++ {
			lo := lastEnd + rng.Intn(6)
			span := document.NewSpan(lo, lo+1+rng.Intn(9))
			if span.End > n {
				break
			}
			if _, err := d.InsertElement(h, tags[rng.Intn(len(tags))], nil, span); err != nil {
				panic(err)
			}
			lastEnd = span.End
		}
	}
	return d
}

// TestFastPathsAgreeWithReference evaluates a battery of queries on
// random documents four ways — optimized/reference compilation ×
// production/Options.Reference evaluation — and demands identical
// node-sets.
func TestFastPathsAgreeWithReference(t *testing.T) {
	queries := []string{
		"//a",
		"//*",
		"//a/overlapping::*",
		"//b/overlapping::a",
		"//a/covering::*",
		"//a/covered::node()",
		"/a",
		"/*",
		"//a/following::b",
		"//a/preceding::*",
		"//c/..",
		"//a/text()",
		"//node()",
		"//text()",
		"//a[2]",
		"//a[overlaps(//b)]",
		// positional predicates on every axis with indexed candidates,
		// and on the reverse axes (numbered nearest-first)
		"/descendant::a[2]", "/descendant-or-self::*[last()]",
		"/child::b[2]", "/*[3]", "//text()/ancestor::*[1]",
		"//text()/ancestor-or-self::*[2]", "//b/preceding::a[1]",
		"//c/preceding::*[last()]", "//a/preceding::node()[3]",
		"//a/following::b[2]", "//c/following::*[last()]",
		"//a/covered::*[position() mod 2 = 1]",
		"//b/preceding-sibling::*[1]",
	}
	for seed := int64(1); seed <= 10; seed++ {
		doc := randomDoc(seed)
		for _, qs := range queries {
			optimized := MustCompile(qs)
			reference := compileReference(t, qs)
			var results [4][]goddag.Node
			for i, run := range []struct {
				q    *Query
				opts Options
			}{
				{optimized, Options{}},
				{optimized, Options{Reference: true}},
				{reference, Options{}},
				{reference, Options{Reference: true}},
			} {
				v, err := run.q.EvalWithOptions(doc, run.opts)
				if err != nil {
					t.Fatalf("seed %d %q variant %d: %v", seed, qs, i, err)
				}
				results[i] = v.Nodes()
			}
			for i := 1; i < 4; i++ {
				if !sameNodes(results[0], results[i]) {
					t.Errorf("seed %d %q: variant %d differs: %v vs %v",
						seed, qs, i, nodeNames(results[0]), nodeNames(results[i]))
				}
			}
		}
	}
}

func sameNodes(a, b []goddag.Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !goddag.NodesEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func nodeNames(ns []goddag.Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		switch v := n.(type) {
		case *goddag.Element:
			out[i] = v.String()
		case goddag.Leaf:
			out[i] = "leaf" + v.Span().String()
		default:
			out[i] = "root"
		}
	}
	return out
}

// TestScalarQueriesAgree runs scalar-result queries through both plans.
func TestScalarQueriesAgree(t *testing.T) {
	queries := []string{
		"count(//a)",
		"count(//a/overlapping::*)",
		"count(//node())",
		"string(//b)",
		"count(//a | //b)",
	}
	for seed := int64(1); seed <= 5; seed++ {
		doc := randomDoc(seed)
		for _, qs := range queries {
			v1, err := MustCompile(qs).Eval(doc)
			if err != nil {
				t.Fatal(err)
			}
			v2, err := compileReference(t, qs).EvalWithOptions(doc, Options{Reference: true})
			if err != nil {
				t.Fatal(err)
			}
			if v1.String() != v2.String() {
				t.Errorf("seed %d %q: %q vs %q", seed, qs, v1.String(), v2.String())
			}
		}
	}
}
