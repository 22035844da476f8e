package xpath

import (
	"testing"

	"repro/internal/goddag"
	"repro/internal/sacx"
)

// TestValueSemantics pins XPath 1.0 value semantics with hand-computed
// results: numeric predicates select by exact position (§2.4), node-set
// comparisons against booleans and numbers (§3.4), string-to-number
// conversion accepting only the Number syntax (§4.4), and number
// formatting without exponents (§4.2). Each case must hold for the
// production evaluator and for Options.Reference alike.
func TestValueSemantics(t *testing.T) {
	// content: "5.0  7 1e5 Inf 0x10 -.5"
	doc, err := sacx.Build([]sacx.Source{{Hierarchy: "nums", Data: []byte(
		`<r><w n="a">5.0</w> <w> 7</w> <w>1e5</w> <w>Inf</w> <w>0x10</w> <w>-.5</w></r>`)}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ query, want string }{
		// A fractional position selects nothing, in every predicate loop:
		// a step, an attribute step, and a planned bucket scan.
		{"count(//w[1.5])", "0"},
		{"count(//w[1.0])", "1"},
		{"count(//w/@n[1.5])", "0"},
		{"count(//w/@n[1])", "1"},
		{"count(/descendant::w[2.5])", "0"},
		{"count(/descendant::w[6 div 3])", "1"},
		// A node-set compared with a boolean is boolean(node-set).
		{"//w = true()", "true"},
		{"true() = //w", "true"},
		{"//w != true()", "false"},
		{"//nosuch = false()", "true"},
		{"//w < true()", "false"},
		// A node-set compared with a number compares number(string(node)).
		{"//w = 5", "true"},
		{"//w = 7", "true"},
		{"//w = 100000", "false"},
		{"//w != 5", "true"},
		{"//w > 1000", "false"},
		{"//w < -0.25", "true"},
		{"//w = '5.0'", "true"},
		{"//w = '5'", "false"},
		// Two node-sets compare existentially over both sides.
		{"//w[1] > //w", "true"},
		{"//w[1] = //w[2]", "false"},
		// Scalars: booleans first, then numbers, then strings.
		{"true() = 'x'", "true"},
		{"1 = '1.0'", "true"},
		{"'1' = '1.0'", "false"},
		// String to number: only XPath's Number syntax.
		{"number(//w[1])", "5"},
		{"number(//w[2])", "7"},
		{"number(//w[3])", "NaN"},
		{"number(//w[4])", "NaN"},
		{"number(//w[5])", "NaN"},
		{"number(//w[6])", "-0.5"},
		{"number('  12  ')", "12"},
		{"number('12.')", "12"},
		{"number('+1')", "NaN"},
		{"number('-')", "NaN"},
		{"number('1.2.3')", "NaN"},
		{"number('')", "NaN"},
		// Number to string: names for the infinities, no exponent.
		{"1 div 0", "Infinity"},
		{"-1 div 0", "-Infinity"},
		{"0 div 0", "NaN"},
		{"0 * -1", "0"},
		{"1000000000000000", "1000000000000000"},
		{"100000000000000000000", "100000000000000000000"},
		{"0.0000001", "0.0000001"},
		{"1 div 4", "0.25"},
		{"string(1 div 0)", "Infinity"},
	}
	for _, tc := range cases {
		q := MustCompile(tc.query)
		for _, opts := range []Options{{}, {Reference: true}} {
			v, err := q.EvalWithOptions(doc, opts)
			if err != nil {
				t.Fatalf("%q (reference=%v): %v", tc.query, opts.Reference, err)
			}
			if got := v.String(); got != tc.want {
				t.Errorf("%q (reference=%v) = %s, want %s", tc.query, opts.Reference, got, tc.want)
			}
		}
	}
}

// TestProximityPositions pins XPath 1.0 §2.4 proximity positions over
// the Figure 1 document: on a reverse axis position 1 is the node
// nearest the context node, so the preceding axis counts backwards
// through document order; forward axes count in document order with
// leaves interleaved. The result itself is in document order.
func TestProximityPositions(t *testing.T) {
	doc := fig1(t)
	// Byte spans (æ is two bytes):
	// words: w[0,3) w[4,9) w[10,13) w[14,16) w[17,19) w[20,26)
	// res[11,18), dmg[6,12), line[0,13) line[13,26)
	cases := []struct {
		query string
		want  []string // name@span, in document order
	}{
		{"//w[3]/preceding::w[1]", []string{"w[4,9)"}},
		{"//w[3]/preceding::w[2]", []string{"w[0,3)"}},
		{"//w[3]/preceding::w[last()]", []string{"w[0,3)"}},
		{"//w[3]/preceding::w", []string{"w[0,3)", "w[4,9)"}},
		{"//w[6]/preceding::w[position() <= 2]", []string{"w[14,16)", "w[17,19)"}},
		{"//w[6]/preceding::*[3]", []string{"res[11,18)"}},
		{"//w[6]/preceding::*[1]", []string{"w[17,19)"}},
		{"//line[2]/preceding::node()[1]", []string{"text[12,13)"}},
		{"//w[preceding::w[1] = 'hwæt']", []string{"w[10,13)"}},
		{"//w[3]/preceding-sibling::*[1]", []string{"w[4,9)"}},
		{"//dmg/ancestor-or-self::*[1]", []string{"dmg[6,12)"}},
		{"(//w[3] | //w[5])/preceding::w[1]", []string{"w[4,9)", "w[14,16)"}},
		// Forward axes number in document order, leaves included.
		{"//dmg/following::node()[1]", []string{"text[12,13)"}},
		{"//line[1]/covered::node()[2]", []string{"text[0,3)"}},
		{"//line[1]/covered::node()[last()]", []string{"text[12,13)"}},
	}
	for _, tc := range cases {
		q := MustCompile(tc.query)
		for _, opts := range []Options{{}, {Reference: true}} {
			v, err := q.EvalWithOptions(doc, opts)
			if err != nil {
				t.Fatalf("%q: %v", tc.query, err)
			}
			got := spanNames(v.Nodes())
			if len(got) != len(tc.want) {
				t.Errorf("%q (reference=%v) = %v, want %v", tc.query, opts.Reference, got, tc.want)
				continue
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("%q (reference=%v) = %v, want %v", tc.query, opts.Reference, got, tc.want)
					break
				}
			}
		}
	}
}

// spanNames labels nodes as name@span ("text" for leaves).
func spanNames(ns []goddag.Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		name := "text"
		if el, ok := n.(*goddag.Element); ok {
			name = el.Name()
		}
		out[i] = name + n.Span().String()
	}
	return out
}
