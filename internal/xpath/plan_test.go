package xpath

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/document"
	"repro/internal/goddag"
)

// plannerQueries is the differential battery for the plan layer: shapes
// the planner streams (bucket scans, predicate pushdown, count/exists
// clamps, reversed overlap semi-joins), shapes it must recognize and
// decline (positional predicates under '//', last() in a later stage),
// and empty-bucket edge cases. Every query must produce identical
// results with the planner on, under Options.Reference, and from the
// reference (unoptimized) compilation under Options.Reference.
var plannerQueries = []string{
	// bare bucket scans, incl. a tag the corpus lacks
	"//w", "//line", "//s", "//nosuch",
	// explicit single-step descendant scans with positional pushdown
	"/descendant::w[2]", "/descendant::w[position()<5]", "/descendant::w[last()]",
	"/descendant::w[position()>2][3]", "/descendant::w[2][last()]",
	// collapsed '//name[preds]' pushdown: static-boolean predicates only
	"//w[@n='5']", "//w[@n='5' or @n='7']", "//w[not(@n='5')]",
	"//w[starts-with(@n, '1')]",
	// positional under '//' must NOT push down (per-parent positions)
	"//w[2]", "//s/w[3]",
	// overlap semi-joins, both drive directions and empty sides
	"//dmg/overlapping::w", "//w/overlapping::dmg", "//w/overlapping::*",
	"//line/overlapping::w", "//mark/overlapping::w", "//w/overlapping::mark",
	"//nosuch/overlapping::w", "//w/overlapping::nosuch",
	// span joins: covered and covering, self-joins, milestones, *, empty
	// sides, and a covering shape the size rule sends per origin
	"//line/covered::w", "//w/covered::w", "//*/covered::*", "//mark/covered::mark",
	"//line/covering::w", "//w/covering::line", "//w/covering::w", "//*/covering::*",
	"//mark/covering::*", "//nosuch/covered::w", "//w/covering::nosuch", "//dmg/covering::*",
	"//dmg/covered::w", "//res/covered::*",
}

// plannerScalarQueries are the count/exists clamp forms; scalar results
// must agree across all evaluator configurations.
var plannerScalarQueries = []string{
	"count(//w)", "count(//w[@n='5'])", "count(//nosuch)",
	"count(/descendant::w[position()<5])",
	"count(//w/overlapping::dmg)", "count(//dmg/overlapping::w)",
	"boolean(//w)", "boolean(//nosuch)", "boolean(//w/overlapping::dmg)",
	"not(//w)", "not(//nosuch)", "not(//w[@n='5'])",
	"count(//line/covered::w)", "count(//w/covering::line)", "boolean(//w/covering::w)",
	"not(//mark/covering::mark)",
}

// planConfigs are the evaluator configurations a planner-equivalence
// test compares: production (planner and indexed steps) and the
// reference evaluator. Eval of a path never consults the planner and
// Stream always does, so both halves of production meet the reference.
var planConfigs = []struct {
	name string
	opts Options
}{
	{"planner", Options{}},
	{"reference", Options{Reference: true}},
}

// collectStream drains a stream into a node slice through the lazy
// contract, checking the scalar/node-set split on the way.
func collectStream(t *testing.T, q *Query, doc *goddag.Document, opts Options) []goddag.Node {
	t.Helper()
	st, err := q.StreamWithOptions(doc, opts)
	if err != nil {
		t.Fatalf("stream %q: %v", q.String(), err)
	}
	defer st.Close()
	if !st.IsNodeSet() {
		t.Fatalf("stream %q: expected node-set", q.String())
	}
	var out []goddag.Node
	for {
		n, err := st.Next()
		if err != nil {
			t.Fatalf("stream %q: %v", q.String(), err)
		}
		if n == nil {
			return out
		}
		out = append(out, n)
	}
}

// TestPlannerAgreesAcrossGrid runs the planner battery over the corpus
// grid — hierarchies × overlap densities × default and multibyte
// vocabularies — and demands byte-identical node-sets from the
// production evaluator, the reference evaluator, the reference
// compilation, and the streaming API of both (full drain, first-k
// clamp, and Count).
func TestPlannerAgreesAcrossGrid(t *testing.T) {
	vocabs := map[string][]string{"default": nil, "multibyte": corpus.MultibyteVocabulary}
	for vn, vocab := range vocabs {
		for _, h := range []int{1, 3, 6, 8} {
			for _, density := range []float64{0.1, 0.9} {
				t.Run(fmt.Sprintf("%s/h=%d/density=%.1f", vn, h, density), func(t *testing.T) {
					doc := gridDoc(t, h, density, vocab)
					for _, qs := range plannerQueries {
						q := MustCompile(qs)
						reference := compileReference(t, qs)
						want, err := reference.EvalWithOptions(doc, Options{Reference: true})
						if err != nil {
							t.Fatalf("%q reference: %v", qs, err)
						}
						wantNodes := want.Nodes()
						for _, cfg := range planConfigs {
							v, err := q.EvalWithOptions(doc, cfg.opts)
							if err != nil {
								t.Fatalf("%q %s: %v", qs, cfg.name, err)
							}
							if !sameNodes(wantNodes, v.Nodes()) {
								t.Errorf("%q %s eval differs:\n  got:  %v\n  want: %v",
									qs, cfg.name, nodeNames(v.Nodes()), nodeNames(wantNodes))
							}
							streamed := collectStream(t, q, doc, cfg.opts)
							if !sameNodes(wantNodes, streamed) {
								t.Errorf("%q %s stream differs:\n  got:  %v\n  want: %v",
									qs, cfg.name, nodeNames(streamed), nodeNames(wantNodes))
							}
						}
						// Limit clamp: the first k streamed nodes are the
						// first k reference nodes, no more pulled.
						for _, k := range []int{0, 1, 3} {
							st, err := q.Stream(doc)
							if err != nil {
								t.Fatal(err)
							}
							var first []goddag.Node
							for len(first) < k {
								n, err := st.Next()
								if err != nil {
									t.Fatal(err)
								}
								if n == nil {
									break
								}
								first = append(first, n)
							}
							st.Close()
							limit := k
							if limit > len(wantNodes) {
								limit = len(wantNodes)
							}
							if !sameNodes(wantNodes[:limit], first) {
								t.Errorf("%q first-%d differs: %v vs %v",
									qs, k, nodeNames(first), nodeNames(wantNodes[:limit]))
							}
						}
						// Count never materializes but must agree.
						st, err := q.Stream(doc)
						if err != nil {
							t.Fatal(err)
						}
						n, err := st.Count()
						st.Close()
						if err != nil {
							t.Fatal(err)
						}
						if n != len(wantNodes) {
							t.Errorf("%q Count=%d want %d", qs, n, len(wantNodes))
						}
					}
					for _, qs := range plannerScalarQueries {
						q := MustCompile(qs)
						want, err := compileReference(t, qs).EvalWithOptions(doc, Options{Reference: true})
						if err != nil {
							t.Fatalf("%q reference: %v", qs, err)
						}
						for _, cfg := range planConfigs {
							v, err := q.EvalWithOptions(doc, cfg.opts)
							if err != nil {
								t.Fatalf("%q %s: %v", qs, cfg.name, err)
							}
							if v.String() != want.String() {
								t.Errorf("%q %s: got %s want %s", qs, cfg.name, v.String(), want.String())
							}
							st, err := q.StreamWithOptions(doc, cfg.opts)
							if err != nil {
								t.Fatal(err)
							}
							sv, ok := st.Value()
							st.Close()
							if !ok {
								t.Fatalf("%q %s: stream should be scalar", qs, cfg.name)
							}
							if sv.String() != want.String() {
								t.Errorf("%q %s stream: got %s want %s", qs, cfg.name, sv.String(), want.String())
							}
						}
					}
				})
			}
		}
	}
}

// TestPlanExplainShapes pins the plan classification: which shapes
// stream, which push predicates down, which reverse the overlap join,
// and which fall back — by inspecting the explain lines.
func TestPlanExplainShapes(t *testing.T) {
	doc := gridDoc(t, 4, 0.5, nil)
	cases := []struct {
		query string
		kind  planKind
	}{
		{"//w", planScan},
		{"//w[@n='5']", planScan},
		{"/descendant::w[2]", planScan},
		{"//w[2]", planEval},                    // positional under '//'
		{"/descendant::w[2][last()]", planEval}, // last() in a later stage
		{"//w/overlapping::dmg", planSemiJoin},  // output side rarer? dmg < w
		{"//dmg/overlapping::w", planEval},      // forward drive kept
		{"//nosuch/overlapping::w", planScan},   // empty origin bucket
		{"//line/covered::w", planJoin},
		{"//*/covered::*", planJoin},
		{"//w/covering::line", planJoin},
		{"//dmg/covering::*", planEval}, // output side too large: per origin
		{"count(//line/covered::w)", planCount},
		{"count(//w)", planCount},
		{"count(//w[@n='5'])", planCount},
		{"boolean(//w)", planExists},
		{"not(//w)", planExists},
		{"count(//w[2])", planEval}, // inner not streamable
		{"//w/../self::*", planEval},
	}
	for _, tc := range cases {
		q := MustCompile(tc.query)
		pl := q.planFor(doc, Options{})
		if pl.kind != tc.kind {
			t.Errorf("%q: plan kind %d, want %d (explain: %v)", tc.query, pl.kind, tc.kind, pl.Explain())
		}
		if len(pl.Explain()) == 0 {
			t.Errorf("%q: empty explain", tc.query)
		}
		// The cached slot must be reused while the document is unchanged.
		if again := q.planFor(doc, Options{}); again != pl {
			t.Errorf("%q: plan not cached", tc.query)
		}
	}
}

// TestPlanAllocs holds planning to recording what Explain is made
// from: no line is formatted unless a caller asks for it, and a
// count() inside a predicate does not replan with formatting per
// context node.
func TestPlanAllocs(t *testing.T) {
	doc, err := corpus.Generate(corpus.DefaultConfig(400))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		query string
		max   float64
	}{
		{"//w", 1},         // the plan
		{"count(//w)", 2},  // the plan and its inner scan
		{"string(//w)", 1}, // no streamable shape, and no inner plan thrown away
		{"//w[@n='5']", 1}, // a pushdown scan
		{"//dmg/covering::*", 1},
	} {
		root := MustCompile(tc.query).root
		if allocs := testing.AllocsPerRun(20, func() { planQuery(doc, root) }); allocs > tc.max {
			t.Errorf("planQuery(%s): %.0f allocs, want at most %.0f", tc.query, allocs, tc.max)
		}
	}
	words := len(doc.ElementsNamed("w"))
	evalAllocs := func(query string) float64 {
		q := MustCompile(query)
		if _, err := q.Eval(doc); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() { q.Eval(doc) })
	}
	base, counted := evalAllocs("//w[true()]"), evalAllocs("//w[count(//dmg) > 0]")
	t.Logf("//w[true()] %.0f, //w[count(//dmg) > 0] %.0f allocs per Eval", base, counted)
	// The count runs per word through a streamed cursor: one allocation
	// each, with one more of slack.
	if counted > base+2*float64(words) {
		t.Errorf("//w[count(//dmg) > 0]: %.0f allocs per Eval, want at most %.0f (//w[true()] %.0f + 2 per word, %d words)",
			counted, base+2*float64(words), base, words)
	}
}

// TestPlanCacheInvalidation mutates the document and checks the cached
// plan is re-derived — the new element must be visible through a
// previously planned query.
func TestPlanCacheInvalidation(t *testing.T) {
	doc := gridDoc(t, 2, 0.5, nil)
	q := MustCompile("count(//w)")
	v, err := q.Eval(doc)
	if err != nil {
		t.Fatal(err)
	}
	before := v.Number()
	// Prime the Stream-side plan cache too.
	st, err := q.Stream(doc)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	extra := doc.AddHierarchy("extra")
	if _, err := doc.InsertElement(extra, "w", nil, document.NewSpan(0, 0)); err != nil {
		t.Fatal(err)
	}
	v, err = q.Eval(doc)
	if err != nil {
		t.Fatal(err)
	}
	if v.Number() != before+1 {
		t.Fatalf("after insert: count=%v want %v", v.Number(), before+1)
	}
	st, err = q.Stream(doc)
	if err != nil {
		t.Fatal(err)
	}
	sv, ok := st.Value()
	st.Close()
	if !ok || sv.Number() != before+1 {
		t.Fatalf("after insert: stream count=%v want %v", sv.Number(), before+1)
	}
}

// TestConcurrentStream exercises the pooled evaluators and the shared
// plan slot from many goroutines against one document. Run under -race
// in CI; every goroutine must see identical results.
func TestConcurrentStream(t *testing.T) {
	doc := gridDoc(t, 6, 0.5, nil)
	queries := []string{
		"//w", "//w[@n='5']", "//w/overlapping::dmg", "//dmg/overlapping::w",
		"count(//w)", "not(//nosuch)", "/descendant::w[position()<7]",
		"//line/covered::w", "//*/covered::*", "//w/covering::line", "count(//*/covering::*)",
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
				st, err := q.Stream(doc)
				if err != nil {
					out[i] = "error: " + err.Error()
					continue
				}
				if v, ok := st.Value(); ok {
					out[i] = v.String()
				} else {
					var names []string
					for {
						n, err := st.Next()
						if err != nil || n == nil {
							break
						}
						names = append(names, nodeName(n))
					}
					out[i] = fmt.Sprint(names)
				}
				st.Close()
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
