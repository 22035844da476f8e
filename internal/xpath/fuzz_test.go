package xpath

import (
	"testing"

	"repro/internal/goddag"
	"repro/internal/sacx"
)

// FuzzParse throws arbitrary bytes at the query compiler and, when they
// compile, evaluates them under a tight node budget against a small
// overlapping document. The contract under attack: hostile input may
// produce a SyntaxError or an evaluation error, never a panic, a hang,
// or a stack overflow (the parser's recursion-depth cap exists for the
// nesting bombs this fuzzer finds). It is also differential: when a
// query finishes under the budget both in production and under
// Options.Reference, Eval must give equal values and a drained Stream
// equal nodes. Reference visits more nodes, so a query that finishes
// only in production is not compared.
func FuzzParse(f *testing.F) {
	seeds := []string{
		// The E4 axis battery — real queries, mutation fodder.
		"/page", "//line", "//w", "//s/w", "//s/descendant::w",
		"//dmg/overlapping::*", "//dmg/overlapping::w",
		"//res/following::w", "//res/preceding::w",
		"//line/covered::w", "//w/ancestor::*", "//w | //line",
		"count(//dmg/overlapping::w)",
		// Span joins: covered and covering between buckets, self-joins,
		// several origin steps.
		"//w/covered::w", "//*/covering::*", "//line/covering::w",
		"//w/covering::line", "//page/line/covered::w", "count(//*/covered::*)",
		// Positional steps on the indexed and reverse axes.
		"//dmg/following::w[1]", "//w[3]/preceding::w[1]",
		"//line/covered::w[2]", "//dmg/ancestor-or-self::*[last()]",
		// Predicates, functions, arithmetic, variables, attributes.
		"//w[count(preceding::w) >= 0]",
		"//w[@lemma = 'swa'][2]",
		"//line/covering::*/@n",
		"concat(name(//w[1]), '-', string(2 div 0))",
		"//w[position() = last()]",
		"-(-(-1)) + 2 * (3 - 4)",
		"$x + 1",
		// Malformed: truncations, stray tokens, nesting.
		"//w[", "((1)", "1 +", "::", "//", "@", "'unterminated",
		"(((((((((1)))))))))",
		"//w[//w[//w[//w[1]]]]",
	}
	for _, s := range seeds {
		f.Add(s)
	}

	doc, err := sacx.Build([]sacx.Source{
		{Hierarchy: "physical", Data: []byte(`<r><line n="1">swa hwæt swa</line><line n="2"> he us sægde</line></r>`)},
		{Hierarchy: "words", Data: []byte(`<r><w>swa</w> <w>hwæt</w> <w>swa</w> <w>he</w> <w>us</w> <w>sægde</w></r>`)},
		{Hierarchy: "damage", Data: []byte(`<r>swa hw<dmg type="stain">æt sw</dmg>a he us sægde</r>`)},
	})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, src string) {
		q, err := Compile(src)
		if err != nil {
			return // rejected cleanly — the common, correct outcome
		}
		// Evaluate under a budget so an accidentally-expensive but valid
		// expression cannot stall the fuzzer; both result and error are
		// acceptable, crashing is not.
		budget := Budget{MaxVisited: 50_000}
		prod, err := q.EvalWithOptions(doc, Options{Budget: budget})
		if ref, refErr := q.EvalWithOptions(doc, Options{Budget: budget, Reference: true}); err == nil && refErr == nil {
			if !sameValue(prod, ref) {
				t.Errorf("%q: Eval %s %q differs from Reference %s %q", src, prod.Kind(), prod.String(), ref.Kind(), ref.String())
			}
		}
		// Streams must survive the same input.
		prodStream, prodOK := drainStream(q, doc, Options{Budget: budget})
		refStream, refOK := drainStream(q, doc, Options{Budget: budget, Reference: true})
		if prodOK && refOK && !sameValue(prodStream, refStream) {
			t.Errorf("%q: Stream %s %q %v differs from Reference %s %q %v", src,
				prodStream.Kind(), prodStream.String(), nodeNames(prodStream.Nodes()),
				refStream.Kind(), refStream.String(), nodeNames(refStream.Nodes()))
		}
	})
}

// drainStream runs q as a Stream and collects its result: the scalar
// value, or the drained nodes as a node-set. ok is false when the
// stream failed (budget exhausted, evaluation error).
func drainStream(q *Query, doc *goddag.Document, opts Options) (Value, bool) {
	st, err := q.StreamWithOptions(doc, opts)
	if err != nil {
		return Value{}, false
	}
	defer st.Close()
	if v, ok := st.Value(); ok {
		return v, true
	}
	var ns []goddag.Node
	for {
		n, err := st.Next()
		if err != nil {
			return Value{}, false
		}
		if n == nil {
			return nodesValue(ns), true
		}
		ns = append(ns, n)
	}
}

// sameValue reports whether two results agree: same kind, and the same
// nodes, attributes or string value.
func sameValue(a, b Value) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case valNodes:
		return sameNodes(a.nodes, b.nodes)
	case valAttrs:
		if len(a.attrs) != len(b.attrs) {
			return false
		}
		for i := range a.attrs {
			if a.attrs[i] != b.attrs[i] {
				return false
			}
		}
		return true
	default:
		return a.String() == b.String()
	}
}
