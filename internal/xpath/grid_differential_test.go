package xpath

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/document"
	"repro/internal/goddag"
)

// axisCatalogQueries exercises every axis in the catalog (standard XPath
// re-defined over GODDAG plus the concurrent-markup extensions), with
// name, *, node() and text() tests, positional and value predicates, and
// unions. Tags that a small-h configuration lacks simply produce empty
// node-sets — those must agree between the evaluators too.
var axisCatalogQueries = []string{
	// self
	"//w/self::*", "//w/self::node()", "//mark/self::mark",
	// child
	"/line", "/child::*", "//s/w", "//s/child::node()", "//page/child::line",
	// descendant / descendant-or-self
	"//w", "//*", "//node()", "//text()",
	"//page/descendant::w", "//s/descendant::node()",
	"//s/descendant-or-self::*", "//page/descendant-or-self::node()",
	// parent / ancestor / ancestor-or-self
	"//w/..", "//w/parent::*", "//dmg/ancestor::*", "//w/ancestor::node()",
	"//dmg/ancestor-or-self::*",
	// sibling axes
	"//w/following-sibling::*", "//line/following-sibling::node()",
	"//w/preceding-sibling::*", "//line/preceding-sibling::node()",
	// following / preceding (content-extent order, incl. milestones)
	"//res/following::w", "//dmg/following::node()", "//mark/following::w",
	"//res/preceding::w", "//dmg/preceding::node()", "//mark/preceding::*",
	// overlap family
	"//dmg/overlapping::w", "//dmg/overlapping::node()", "//line/overlapping::*",
	"//dmg/overlapping-left::*", "//dmg/overlapping-right::w",
	// covering / covered
	"//w/covering::*", "//dmg/covering::node()", "//mark/covering::*",
	"//line/covered::w", "//s/covered::node()", "//line/covered::mark",
	// covered / covering as span joins: self-joins (identity exclusion),
	// milestones (empty spans) on either side, * on either side, a
	// multi-step origin list, a single origin, and sparse origins whose
	// gaps the covered join gallops over
	"//w/covered::w", "//w/covering::w", "//mark/covered::mark",
	"//mark/covering::mark", "//mark/covering::*", "//line/covering::w",
	"//w/covering::line", "//s/covering::line", "//line/covered::*",
	"//*/covered::*", "//*/covering::*", "//page/line/covered::w",
	"//w[7]/covering::*", "//dmg/covered::w", "//dmg/covered::*", "//res/covered::*",
	// predicates (positional semantics are per origin) and unions
	"//w[2]", "//s/w[3]", "//line/covered::w[2]", "//res/following::w[1]",
	// positional predicates on every axis with indexed candidates, on
	// the reverse axes (numbered nearest-first) and on leaf-matching
	// tests of following and covered (numbered in document order)
	"//s/descendant::w[2]", "//page/descendant-or-self::*[3]",
	"//page/child::line[last()]", "/*[1]", "//w/ancestor::*[1]",
	"//dmg/ancestor-or-self::*[2]", "//w/ancestor-or-self::*[2]",
	"//w/ancestor::*[last()]", "//text()/ancestor::*[2]",
	"//line/preceding::w[1]", "//res/preceding::w[position() < 3]",
	"//dmg/preceding::node()[2]", "//dmg/following::w[last()]",
	"//line/covered::w[position() mod 2 = 0]", "//s/covered::text()[2]",
	"//dmg/following::node()[1]",
	"//w/preceding-sibling::*[1]", "//w/preceding-sibling::node()[last()]",
	"//w[@n='5']", "//w | //line", "//dmg/overlapping::w | //res",
}

// gridDoc generates one corpus configuration and decorates it with a
// hierarchy of milestones (empty elements) at rune-safe positions —
// content start and end plus existing element borders — so the
// empty-span paths of every axis are exercised.
func gridDoc(t *testing.T, hierarchies int, density float64, vocab []string) *goddag.Document {
	t.Helper()
	cfg := corpus.DefaultConfig(100)
	cfg.Hierarchies = hierarchies
	cfg.OverlapDensity = density
	cfg.Vocabulary = vocab
	doc, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	marks := doc.AddHierarchy("marks")
	positions := []int{0, doc.Content().Len()}
	if els := doc.Elements(); len(els) > 0 {
		positions = append(positions,
			els[0].Span().End,
			els[len(els)/2].Span().Start,
			els[len(els)-1].Span().End)
	}
	for _, p := range positions {
		if _, err := doc.InsertElement(marks, "mark", nil, document.NewSpan(p, p)); err != nil {
			t.Fatal(err)
		}
	}
	return doc
}

// TestAxisCatalogAgreesAcrossGrid runs the axis-catalog battery over the
// corpus grid — hierarchies 1..8 × overlap densities × default and
// multibyte vocabularies — and demands that the production evaluator,
// the reference evaluator (Options.Reference), and the reference plan
// (no step rewrites) produce identical node-sets, query by query.
func TestAxisCatalogAgreesAcrossGrid(t *testing.T) {
	vocabs := map[string][]string{"default": nil, "multibyte": corpus.MultibyteVocabulary}
	for vn, vocab := range vocabs {
		for h := 1; h <= 8; h++ {
			for _, density := range []float64{0.1, 0.9} {
				t.Run(fmt.Sprintf("%s/h=%d/density=%.1f", vn, h, density), func(t *testing.T) {
					doc := gridDoc(t, h, density, vocab)
					for _, qs := range axisCatalogQueries {
						optimized := MustCompile(qs)
						reference := compileReference(t, qs)
						var results [3][]goddag.Node
						for i, run := range []struct {
							q    *Query
							opts Options
						}{
							{optimized, Options{}},
							{optimized, Options{Reference: true}},
							{reference, Options{Reference: true}},
						} {
							v, err := run.q.EvalWithOptions(doc, run.opts)
							if err != nil {
								t.Fatalf("%q variant %d: %v", qs, i, err)
							}
							results[i] = v.Nodes()
						}
						for i := 1; i < len(results); i++ {
							if !sameNodes(results[0], results[i]) {
								t.Errorf("%q: variant %d differs:\n  fast: %v\n  ref:  %v",
									qs, i, nodeNames(results[0]), nodeNames(results[i]))
							}
						}
					}
				})
			}
		}
	}
}

// TestAttributeAxisAgreesAcrossGrid covers the attribute axis of the
// catalog, whose results are attribute sets rather than nodes.
func TestAttributeAxisAgreesAcrossGrid(t *testing.T) {
	for h := 1; h <= 8; h += 3 {
		doc := gridDoc(t, h, 0.5, nil)
		for _, qs := range []string{"//w/@n", "//line/@*", "//page/@n", "//w/@missing"} {
			v1, err := MustCompile(qs).EvalWithOptions(doc, Options{})
			if err != nil {
				t.Fatal(err)
			}
			v2, err := compileReference(t, qs).EvalWithOptions(doc, Options{Reference: true})
			if err != nil {
				t.Fatal(err)
			}
			a1, a2 := v1.Attrs(), v2.Attrs()
			if len(a1) != len(a2) {
				t.Fatalf("h=%d %q: %d vs %d attrs", h, qs, len(a1), len(a2))
			}
			for i := range a1 {
				if a1[i] != a2[i] {
					t.Fatalf("h=%d %q: attr %d differs: %+v vs %+v", h, qs, i, a1[i], a2[i])
				}
			}
		}
	}
}

// TestConcurrentEval evaluates a battery of queries from many goroutines
// against one freshly built document, so the lazily built caches
// (element list, span index, ordinals, name index) are first constructed
// under contention. Run under -race in CI; every goroutine must also see
// identical results.
func TestConcurrentEval(t *testing.T) {
	doc := gridDoc(t, 6, 0.5, nil)
	queries := []string{
		"//w", "//dmg/overlapping::w", "//res/following::w", "//line/covered::node()",
		"//w/ancestor::*", "//s/w[3]", "//w | //line", "count(//w)",
		"//line/covered::w", "//*/covered::*", "//s/covering::line", "//page/line/covered::w",
	}
	compiled := make([]*Query, len(queries))
	for i, qs := range queries {
		compiled[i] = MustCompile(qs)
	}
	const goroutines = 8
	results := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]string, len(compiled))
			for i, q := range compiled {
				v, err := q.Eval(doc)
				if err != nil {
					out[i] = "error: " + err.Error()
					continue
				}
				if v.IsNodeSet() {
					out[i] = fmt.Sprint(nodeNames(v.Nodes()))
				} else {
					out[i] = v.String()
				}
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range results[0] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d query %q: %s vs %s", g, queries[i], results[g][i], results[0][i])
			}
		}
	}
}
