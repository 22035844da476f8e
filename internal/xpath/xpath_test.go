package xpath

import (
	"strings"
	"testing"

	"repro/internal/goddag"
	"repro/internal/sacx"
)

// fig1 is the paper's Figure 1 document: four hierarchies over the same
// Old English fragment, with mutual overlaps.
//
// content: "swa hwæt swa he us sægde" (24 runes)
// physical:    line[0,12) line[12,24)
// words:       w[0,3) w[4,8) w[9,12) w[13,15) w[16,18) w[19,24)
// restoration: res[10,17)
// damage:      dmg[6,11)
func fig1(t *testing.T) *goddag.Document {
	t.Helper()
	doc, err := sacx.Build([]sacx.Source{
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

func sel(t *testing.T, doc *goddag.Document, query string) []goddag.Node {
	t.Helper()
	ns, err := Select(doc, query)
	if err != nil {
		t.Fatalf("Select(%q): %v", query, err)
	}
	return ns
}

func evalVal(t *testing.T, doc *goddag.Document, query string) Value {
	t.Helper()
	q, err := Compile(query)
	if err != nil {
		t.Fatalf("Compile(%q): %v", query, err)
	}
	v, err := q.Eval(doc)
	if err != nil {
		t.Fatalf("Eval(%q): %v", query, err)
	}
	return v
}

func names(ns []goddag.Node) []string {
	var out []string
	for _, n := range ns {
		switch v := n.(type) {
		case *goddag.Element:
			out = append(out, v.Name())
		case goddag.Leaf:
			out = append(out, "#"+v.Text())
		case *goddag.Root:
			out = append(out, "/")
		}
	}
	return out
}

func TestChildAxis(t *testing.T) {
	doc := fig1(t)
	// Children of the root across all hierarchies.
	ns := sel(t, doc, "/*")
	// Elements only: line,line,w*6,res,dmg = 10.
	if len(ns) != 10 {
		t.Errorf("/* returned %d nodes: %v", len(ns), names(ns))
	}
	// Named child.
	lines := sel(t, doc, "/line")
	if len(lines) != 2 {
		t.Errorf("/line = %v", names(lines))
	}
}

func TestDescendantAxis(t *testing.T) {
	doc := fig1(t)
	ws := sel(t, doc, "//w")
	if len(ws) != 6 {
		t.Errorf("//w = %d: %v", len(ws), names(ws))
	}
	// text() under a line: leaves.
	leaves := sel(t, doc, "/line/text()")
	if len(leaves) == 0 {
		t.Error("no leaves under lines")
	}
	for _, n := range leaves {
		if n.Kind() != goddag.KindLeaf {
			t.Errorf("non-leaf %v", n)
		}
	}
}

func TestPredicates(t *testing.T) {
	doc := fig1(t)
	// Attribute predicate.
	l2 := sel(t, doc, `/line[@n='2']`)
	if len(l2) != 1 || l2[0].Text() != " he us sægde" {
		t.Errorf("line[@n='2'] = %v", names(l2))
	}
	// Positional predicate.
	w3 := sel(t, doc, `//w[3]`)
	if len(w3) != 1 || w3[0].Text() != "swa" {
		t.Errorf("w[3] = %v %q", names(w3), w3[0].Text())
	}
	// last().
	wLast := sel(t, doc, `//w[last()]`)
	if len(wLast) != 1 || wLast[0].Text() != "sægde" {
		t.Errorf("w[last()] = %v", names(wLast))
	}
	// String content predicate.
	swa := sel(t, doc, `//w[string()='swa']`)
	if len(swa) != 2 {
		t.Errorf("w[.='swa'] = %d", len(swa))
	}
}

func TestOverlappingAxis(t *testing.T) {
	doc := fig1(t)
	// The paper's flagship query: markup overlapping the damage region.
	over := sel(t, doc, "//dmg/overlapping::*")
	// dmg[6,11) properly overlaps w[4,8), w[9,12), res[10,17).
	got := names(over)
	want := map[string]int{"w": 2, "res": 1}
	count := map[string]int{}
	for _, g := range got {
		count[g]++
	}
	for k, v := range want {
		if count[k] != v {
			t.Errorf("overlapping %s = %d, want %d (all: %v)", k, count[k], v, got)
		}
	}
	if len(over) != 3 {
		t.Errorf("overlapping count = %d: %v", len(over), got)
	}
}

func TestOverlappingNamed(t *testing.T) {
	doc := fig1(t)
	// Words overlapping restorations — a typical editorial query.
	ws := sel(t, doc, "//res/overlapping::w")
	if len(ws) != 2 {
		t.Errorf("res/overlapping::w = %v", names(ws))
	}
	texts := []string{ws[0].Text(), ws[1].Text()}
	if texts[0] != "swa" || texts[1] != "us" {
		t.Errorf("texts = %v", texts)
	}
}

func TestOverlappingDirectional(t *testing.T) {
	doc := fig1(t)
	// res[10,17): elements overlapping and starting before it:
	// w[9,12) and dmg[6,11) and line[0,12).
	left := sel(t, doc, "//res/overlapping-left::*")
	if len(left) != 3 {
		t.Errorf("overlapping-left = %v", names(left))
	}
	right := sel(t, doc, "//res/overlapping-right::*")
	// Elements overlapping res and ending after it: line[12,24), w[16,18).
	if len(right) != 2 {
		t.Errorf("overlapping-right = %v", names(right))
	}
	// left ∪ right == overlapping
	all := sel(t, doc, "//res/overlapping::*")
	if len(left)+len(right) != len(all) {
		t.Errorf("left %d + right %d != all %d", len(left), len(right), len(all))
	}
}

func TestCoveringAxis(t *testing.T) {
	doc := fig1(t)
	// w[4,8) is covered by line[0,12) and dmg[6,11)? dmg[6,11) does not
	// contain [4,8). Covering = line1 only.
	cov := sel(t, doc, "//w[2]/covering::*")
	if len(cov) != 1 || names(cov)[0] != "line" {
		t.Errorf("covering = %v", names(cov))
	}
	// The first word is covered by line 1 only.
	cov1 := sel(t, doc, "//w[1]/covering::*")
	if len(cov1) != 1 {
		t.Errorf("covering w1 = %v", names(cov1))
	}
}

func TestCoveredAxis(t *testing.T) {
	doc := fig1(t)
	// Everything inside line 1 across hierarchies: w[0,3), w[4,8),
	// w[9,12), dmg[6,11), and leaves.
	cov := sel(t, doc, "/line[1]/covered::*")
	count := map[string]int{}
	for _, g := range names(cov) {
		count[g]++
	}
	if count["w"] != 3 || count["dmg"] != 1 {
		t.Errorf("covered = %v", names(cov))
	}
	// covered::node() includes leaves too.
	all := sel(t, doc, "/line[1]/covered::node()")
	if len(all) <= len(cov) {
		t.Errorf("covered::node() = %d should exceed covered::* = %d", len(all), len(cov))
	}
}

func TestParentOfLeafIsMultiple(t *testing.T) {
	doc := fig1(t)
	// A leaf inside the overlap region has parents in several
	// hierarchies. Take leaves under dmg, then their parents.
	parents := sel(t, doc, "//dmg/text()/..")
	// Parents across hierarchies of dmg's leaves: line1, w2, w3, res, dmg.
	count := map[string]int{}
	for _, g := range names(parents) {
		count[g]++
	}
	for _, want := range []string{"line", "w", "res", "dmg"} {
		if count[want] == 0 {
			t.Errorf("missing %s parent; got %v", want, names(parents))
		}
	}
}

func TestHierarchyFunction(t *testing.T) {
	doc := fig1(t)
	// Filter overlapping markup to one hierarchy.
	ws := sel(t, doc, "//dmg/overlapping::*[hierarchy()='words']")
	if len(ws) != 2 {
		t.Errorf("overlap words = %v", names(ws))
	}
	v := evalVal(t, doc, "hierarchy(//dmg)")
	if v.String() != "damage" {
		t.Errorf("hierarchy(//dmg) = %q", v.String())
	}
}

func TestAncestorAxis(t *testing.T) {
	doc := fig1(t)
	anc := sel(t, doc, "//w[2]/ancestor::*")
	// w[4,8) ancestors within words tree: none (top-level), so only root
	// via element path... ancestor::* excludes root (matches elements).
	if len(anc) != 0 {
		t.Errorf("ancestor::* = %v", names(anc))
	}
	ancNode := sel(t, doc, "//w[2]/ancestor::node()")
	if len(ancNode) != 1 || ancNode[0].Kind() != goddag.KindRoot {
		t.Errorf("ancestor::node() = %v", names(ancNode))
	}
	// Leaf ancestors span hierarchies.
	leafAnc := sel(t, doc, "//res/text()[1]/ancestor::node()")
	count := map[string]int{}
	for _, g := range names(leafAnc) {
		count[g]++
	}
	if count["res"] != 1 || count["line"] != 1 || count["/"] != 1 {
		t.Errorf("leaf ancestors = %v", names(leafAnc))
	}
}

func TestSiblingAxes(t *testing.T) {
	doc := fig1(t)
	fs := sel(t, doc, "//w[2]/following-sibling::w")
	if len(fs) != 4 {
		t.Errorf("following-sibling = %v", names(fs))
	}
	ps := sel(t, doc, "//w[2]/preceding-sibling::w")
	if len(ps) != 1 || ps[0].Text() != "swa" {
		t.Errorf("preceding-sibling = %v", names(ps))
	}
}

func TestFollowingPreceding(t *testing.T) {
	doc := fig1(t)
	// Elements entirely after dmg[6,11): w[13,15), w[16,18), w[19,24),
	// line[12,24). res starts at 10 < 11 so it is not following.
	fol := sel(t, doc, "//dmg/following::*")
	count := map[string]int{}
	for _, g := range names(fol) {
		count[g]++
	}
	if count["w"] != 3 || count["line"] != 1 || count["res"] != 0 {
		t.Errorf("following = %v", names(fol))
	}
	pre := sel(t, doc, "//dmg/preceding::*")
	count = map[string]int{}
	for _, g := range names(pre) {
		count[g]++
	}
	// Entirely before [6,11): w[0,3), w[4,8)? ends at 8 > 6 — no. So w1 only.
	if count["w"] != 1 || len(pre) != 1 {
		t.Errorf("preceding = %v", names(pre))
	}
}

func TestAttributes(t *testing.T) {
	doc := fig1(t)
	v := evalVal(t, doc, "//res/@resp")
	if v.String() != "ed" {
		t.Errorf("@resp = %q", v.String())
	}
	all := evalVal(t, doc, "//line/@*")
	if len(all.Attrs()) != 2 {
		t.Errorf("line/@* = %v", all.Attrs())
	}
	// Comparison through attributes.
	v2 := evalVal(t, doc, `count(//line[@n='1'])`)
	if v2.Number() != 1 {
		t.Errorf("count = %v", v2.Number())
	}
}

func TestCountAndArithmetic(t *testing.T) {
	doc := fig1(t)
	cases := []struct {
		q    string
		want float64
	}{
		{"count(//w)", 6},
		{"count(//w) + count(//line)", 8},
		{"count(//w) - 1", 5},
		{"count(//w) * 2", 12},
		{"count(//w) div 2", 3},
		{"count(//w) mod 4", 2},
		{"-count(//w)", -6},
		{"count(//w | //line)", 8},
		{"count(//dmg/overlapping::*)", 3},
		{"span-start(//dmg)", 6},
		{"span-end(//dmg)", 11},
		{"string-length('abc')", 3},
	}
	for _, c := range cases {
		v := evalVal(t, doc, c.q)
		if v.Number() != c.want {
			t.Errorf("%s = %v, want %v", c.q, v.Number(), c.want)
		}
	}
}

func TestBooleansAndComparisons(t *testing.T) {
	doc := fig1(t)
	cases := []struct {
		q    string
		want bool
	}{
		{"count(//w) = 6", true},
		{"count(//w) != 6", false},
		{"count(//w) > 5", true},
		{"count(//w) >= 6", true},
		{"count(//w) < 6", false},
		{"count(//w) <= 5", false},
		{"true()", true},
		{"false()", false},
		{"not(false())", true},
		{"true() and false()", false},
		{"true() or false()", true},
		{"contains('hello', 'ell')", true},
		{"starts-with('hello', 'he')", true},
		{"starts-with('hello', 'lo')", false},
		{"overlaps(//dmg, //res)", true},
		{"overlaps(//line, //line)", false},
		{"'a' = 'a'", true},
		{"'a' != 'b'", true},
		{"1 < 2 and 2 < 3", true},
	}
	for _, c := range cases {
		v := evalVal(t, doc, c.q)
		if v.Bool() != c.want {
			t.Errorf("%s = %v, want %v", c.q, v.Bool(), c.want)
		}
	}
}

func TestStringFunctions(t *testing.T) {
	doc := fig1(t)
	cases := []struct {
		q, want string
	}{
		{"string(//w[1])", "swa"},
		{"concat('a', 'b', 'c')", "abc"},
		{"substring('hello', 2)", "ello"},
		{"substring('hello', 2, 3)", "ell"},
		{"normalize-space('  a   b  ')", "a b"},
		{"name(//dmg)", "dmg"},
		{"string(count(//w))", "6"},
	}
	for _, c := range cases {
		v := evalVal(t, doc, c.q)
		if v.String() != c.want {
			t.Errorf("%s = %q, want %q", c.q, v.String(), c.want)
		}
	}
}

func TestOverlapsPredicate(t *testing.T) {
	doc := fig1(t)
	// Words that overlap any damage markup.
	ws := sel(t, doc, "//w[overlaps(//dmg)]")
	if len(ws) != 2 {
		t.Errorf("w overlapping dmg = %v", names(ws))
	}
}

func TestWalkAndIntervalAgree(t *testing.T) {
	doc := fig1(t)
	queries := []string{
		"//dmg/overlapping::*",
		"//res/overlapping::w",
		"//w/overlapping::*",
		"//line/overlapping::*",
	}
	for _, qs := range queries {
		q := MustCompile(qs)
		a, err := q.EvalWithOptions(doc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := q.EvalWithOptions(doc, Options{Reference: true})
		if err != nil {
			t.Fatal(err)
		}
		na, nb := names(a.Nodes()), names(b.Nodes())
		if strings.Join(na, " ") != strings.Join(nb, " ") {
			t.Errorf("%s: interval %v != walk %v", qs, na, nb)
		}
	}
}

func TestEvalFrom(t *testing.T) {
	doc := fig1(t)
	dmg := doc.Hierarchy("damage").Elements()[0]
	q := MustCompile("overlapping::w")
	v, err := q.EvalFrom(doc, dmg)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Nodes()) != 2 {
		t.Errorf("from dmg: %v", names(v.Nodes()))
	}
}

func TestPathFromFilter(t *testing.T) {
	doc := fig1(t)
	ns := sel(t, doc, "(//dmg)/overlapping::w")
	if len(ns) != 2 {
		t.Errorf("filtered path = %v", names(ns))
	}
}

func TestUnionDedup(t *testing.T) {
	doc := fig1(t)
	ns := sel(t, doc, "//w | //w")
	if len(ns) != 6 {
		t.Errorf("union dedup = %d", len(ns))
	}
	// Document order: results sorted by span start.
	for i := 1; i < len(ns); i++ {
		if goddag.CompareNodes(ns[i-1], ns[i]) > 0 {
			t.Errorf("out of order at %d", i)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"",
		"//",
		"//w[",
		"//w[]",
		"//w)",
		"bogus-axis::w",
		"//w/unknown::x",
		"@",
		"'unterminated",
		"//w[@]",
		"1 !",
		"count(",
		"count(//w",
		"//w[position() = ]",
		"a:b",
	}
	for _, q := range bad {
		if _, err := Compile(q); err == nil {
			t.Errorf("Compile(%q): expected error", q)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	doc := fig1(t)
	bad := []string{
		"unknownfn()",
		"count('notanodeset')",
		"count()",
		"overlaps('x')",
		"('str')/w",
		"not()",
	}
	for _, q := range bad {
		c, err := Compile(q)
		if err != nil {
			continue // compile-time rejection is fine too
		}
		if _, err := c.Eval(doc); err == nil {
			t.Errorf("Eval(%q): expected error", q)
		}
	}
	// Select on a non-node-set result errors.
	if _, err := Select(doc, "count(//w)"); err == nil {
		t.Error("Select of number should error")
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := Compile("//w[")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("got %T", err)
	}
	if !strings.Contains(se.Error(), "xpath:") {
		t.Errorf("Error() = %q", se.Error())
	}
}

func TestQueryString(t *testing.T) {
	q := MustCompile("//w[1]")
	if q.String() != "//w[1]" {
		t.Errorf("String() = %q", q.String())
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustCompile("//w[")
}

func TestRelativeVsAbsolute(t *testing.T) {
	doc := fig1(t)
	w2 := doc.Hierarchy("words").Elements()[1]
	// Relative query from w2.
	q := MustCompile("following-sibling::w")
	v, err := q.EvalFrom(doc, w2)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Nodes()) != 4 {
		t.Errorf("relative = %v", names(v.Nodes()))
	}
	// Absolute query ignores context.
	qa := MustCompile("//w")
	va, err := qa.EvalFrom(doc, w2)
	if err != nil {
		t.Fatal(err)
	}
	if len(va.Nodes()) != 6 {
		t.Errorf("absolute = %v", names(va.Nodes()))
	}
}

func TestSelfAndDotDot(t *testing.T) {
	doc := fig1(t)
	ns := sel(t, doc, "//dmg/.")
	if len(ns) != 1 || names(ns)[0] != "dmg" {
		t.Errorf("self = %v", names(ns))
	}
	up := sel(t, doc, "//dmg/..")
	if len(up) != 1 || up[0].Kind() != goddag.KindRoot {
		t.Errorf(".. = %v", names(up))
	}
}

func TestDescendantOrSelf(t *testing.T) {
	doc := fig1(t)
	ns := sel(t, doc, "//line/descendant-or-self::node()")
	// 2 lines + their leaves; w's are NOT descendants of lines (different
	// hierarchy trees), but shared leaves are.
	hasLine, hasLeaf, hasW := false, false, false
	for _, n := range ns {
		switch v := n.(type) {
		case *goddag.Element:
			if v.Name() == "line" {
				hasLine = true
			}
			if v.Name() == "w" {
				hasW = true
			}
		case goddag.Leaf:
			hasLeaf = true
		}
	}
	if !hasLine || !hasLeaf {
		t.Errorf("descendant-or-self missing kinds: %v", names(ns))
	}
	if hasW {
		t.Error("w should not be a descendant of line (different hierarchy)")
	}
}

func TestRootChildrenNoHierarchies(t *testing.T) {
	doc := goddag.New("r", "plain text")
	ns := sel(t, doc, "/node()")
	if len(ns) != 1 || ns[0].Kind() != goddag.KindLeaf {
		t.Errorf("bare document children = %v", names(ns))
	}
}
