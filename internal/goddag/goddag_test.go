package goddag

import (
	"strings"
	"testing"

	"repro/internal/document"
)

// fig1Doc builds the paper's Figure 1 scenario: an Old English manuscript
// fragment encoded with four concurrent hierarchies — physical layout
// (line), words (w), restorations (res), damage (dmg) — whose markup
// mutually overlaps.
//
// Content (rune offsets):
//
//	"swa hwæt swa he us sægde"
//	 0123456789...
//
// physical: line[0,12) line[12,24)
// words:    w[0,3) w[4,8) w[9,12) w[13,15) w[16,18) w[19,24)
// restore:  res[10,17)   -- overlaps w[9,12), line boundary, w[16,18)
// damage:   dmg[6,11)    -- overlaps w[4,8), w[9,12), res[10,17)
// fig1Content is the shared Figure 1 text; æ is 2 bytes in UTF-8, so
// byte offsets past each æ run one ahead of the rune offsets.
const fig1Content = "swa hwæt swa he us sægde"

// fig1Byte converts a rune offset in fig1Content to the byte offset the
// document's spans use.
func fig1Byte(runeOff int) int {
	return len(string([]rune(fig1Content)[:runeOff]))
}

func fig1Doc(t *testing.T) *Document {
	t.Helper()
	d := New("r", fig1Content)
	phys := d.AddHierarchy("physical")
	words := d.AddHierarchy("words")
	rest := d.AddHierarchy("restoration")
	dmg := d.AddHierarchy("damage")

	// Spans below are written as the paper's rune offsets and converted
	// to byte spans at insertion.
	ins := func(h *Hierarchy, tag string, lo, hi int, attrs ...Attr) *Element {
		t.Helper()
		e, err := d.InsertElement(h, tag, attrs, document.NewSpan(fig1Byte(lo), fig1Byte(hi)))
		if err != nil {
			t.Fatalf("insert %s:%s[%d,%d): %v", h.Name(), tag, lo, hi, err)
		}
		return e
	}
	ins(phys, "line", 0, 12, Attr{Name: "n", Value: "1"})
	ins(phys, "line", 12, 24, Attr{Name: "n", Value: "2"})
	for _, s := range [][2]int{{0, 3}, {4, 8}, {9, 12}, {13, 15}, {16, 18}, {19, 24}} {
		ins(words, "w", s[0], s[1])
	}
	ins(rest, "res", 10, 17)
	ins(dmg, "dmg", 6, 11)
	if err := d.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	return d
}

func TestNewDocument(t *testing.T) {
	d := New("r", "hello")
	if d.RootTag() != "r" {
		t.Errorf("RootTag = %q", d.RootTag())
	}
	if d.NumLeaves() != 1 {
		t.Errorf("NumLeaves = %d", d.NumLeaves())
	}
	if d.Root().Text() != "hello" {
		t.Errorf("root text = %q", d.Root().Text())
	}
	if d.Root().Kind() != KindRoot {
		t.Error("root kind")
	}
	if d.Root().Span() != document.NewSpan(0, 5) {
		t.Errorf("root span = %v", d.Root().Span())
	}
	if err := d.Check(); err != nil {
		t.Error(err)
	}
}

func TestAddHierarchy(t *testing.T) {
	d := New("r", "x")
	h1 := d.AddHierarchy("a")
	h2 := d.AddHierarchy("b")
	if d.AddHierarchy("a") != h1 {
		t.Error("AddHierarchy not idempotent")
	}
	if d.Hierarchy("b") != h2 {
		t.Error("Hierarchy lookup")
	}
	if d.Hierarchy("zzz") != nil {
		t.Error("missing hierarchy should be nil")
	}
	names := d.HierarchyNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("names = %v", names)
	}
}

func TestInsertSimpleElement(t *testing.T) {
	d := New("r", "hello world")
	h := d.AddHierarchy("h")
	e, err := d.InsertElement(h, "w", []Attr{{Name: "id", Value: "1"}}, document.NewSpan(0, 5))
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "w" || e.Text() != "hello" {
		t.Errorf("element %v text %q", e, e.Text())
	}
	if v, ok := e.Attr("id"); !ok || v != "1" {
		t.Errorf("attr id = %q,%v", v, ok)
	}
	if d.NumLeaves() != 2 {
		t.Errorf("NumLeaves = %d, want 2", d.NumLeaves())
	}
	if err := d.Check(); err != nil {
		t.Error(err)
	}
	if h.Len() != 1 {
		t.Errorf("hierarchy len = %d", h.Len())
	}
}

func TestInsertNesting(t *testing.T) {
	d := New("r", "abcdefghij")
	h := d.AddHierarchy("h")
	outer, _ := d.InsertElement(h, "s", nil, document.NewSpan(0, 10))
	inner, err := d.InsertElement(h, "w", nil, document.NewSpan(2, 5))
	if err != nil {
		t.Fatal(err)
	}
	if inner.ParentElement() != outer {
		t.Error("inner's parent should be outer")
	}
	if len(outer.ChildElements()) != 1 {
		t.Errorf("outer children = %d", len(outer.ChildElements()))
	}
	// Insert an element *around* inner but inside outer: adoption.
	mid, err := d.InsertElement(h, "phr", nil, document.NewSpan(1, 7))
	if err != nil {
		t.Fatal(err)
	}
	if inner.ParentElement() != mid {
		t.Error("inner should be adopted by mid")
	}
	if mid.ParentElement() != outer {
		t.Error("mid's parent should be outer")
	}
	if err := d.Check(); err != nil {
		t.Error(err)
	}
}

func TestInsertConflictSameHierarchy(t *testing.T) {
	d := New("r", "abcdefghij")
	h := d.AddHierarchy("h")
	if _, err := d.InsertElement(h, "a", nil, document.NewSpan(0, 6)); err != nil {
		t.Fatal(err)
	}
	_, err := d.InsertElement(h, "b", nil, document.NewSpan(3, 9))
	if err == nil {
		t.Fatal("expected conflict error")
	}
	ce, ok := err.(*ConflictError)
	if !ok {
		t.Fatalf("got %T, want *ConflictError", err)
	}
	if ce.Hierarchy != "h" || ce.Tag != "b" {
		t.Errorf("conflict fields: %+v", ce)
	}
	if !strings.Contains(ce.Error(), "overlaps") {
		t.Errorf("Error() = %q", ce.Error())
	}
}

func TestOverlapAcrossHierarchiesAllowed(t *testing.T) {
	d := New("r", "abcdefghij")
	h1 := d.AddHierarchy("h1")
	h2 := d.AddHierarchy("h2")
	if _, err := d.InsertElement(h1, "a", nil, document.NewSpan(0, 6)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertElement(h2, "b", nil, document.NewSpan(3, 9)); err != nil {
		t.Fatalf("cross-hierarchy overlap must be allowed: %v", err)
	}
	if err := d.Check(); err != nil {
		t.Error(err)
	}
	// The overlapping pair splits content into leaves at 0,3,6,9.
	if d.NumLeaves() != 4 {
		t.Errorf("NumLeaves = %d, want 4", d.NumLeaves())
	}
}

func TestInsertEqualSpans(t *testing.T) {
	d := New("r", "abcdef")
	h := d.AddHierarchy("h")
	first, _ := d.InsertElement(h, "a", nil, document.NewSpan(1, 4))
	second, err := d.InsertElement(h, "b", nil, document.NewSpan(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	// The newer element wraps the older one.
	if first.ParentElement() != second {
		t.Errorf("first's parent = %v, want second", first.Parent())
	}
	if err := d.Check(); err != nil {
		t.Error(err)
	}
}

func TestInsertEmptyElement(t *testing.T) {
	d := New("r", "abcdef")
	h := d.AddHierarchy("h")
	line, _ := d.InsertElement(h, "line", nil, document.NewSpan(0, 6))
	ms, err := d.InsertElement(h, "pb", nil, document.NewSpan(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !ms.IsEmpty() {
		t.Error("milestone should be empty")
	}
	if ms.ParentElement() != line {
		t.Errorf("milestone parent = %v", ms.Parent())
	}
	// The milestone's position becomes a leaf boundary.
	if d.NumLeaves() != 2 {
		t.Errorf("NumLeaves = %d, want 2", d.NumLeaves())
	}
	if err := d.Check(); err != nil {
		t.Error(err)
	}
	// Children include the milestone between the two leaves.
	kids := line.Children()
	if len(kids) != 3 {
		t.Fatalf("children = %d, want 3 (leaf, milestone, leaf)", len(kids))
	}
	if kids[1].(*Element) != ms {
		t.Errorf("middle child = %v", kids[1])
	}
}

func TestInsertErrors(t *testing.T) {
	d := New("r", "abc")
	h := d.AddHierarchy("h")
	other := New("r", "zzz").AddHierarchy("x")
	if _, err := d.InsertElement(other, "a", nil, document.NewSpan(0, 1)); err == nil {
		t.Error("foreign hierarchy should error")
	}
	if _, err := d.InsertElement(h, "a", nil, document.NewSpan(0, 9)); err == nil {
		t.Error("out-of-range span should error")
	}
	if _, err := d.InsertElement(h, "", nil, document.NewSpan(0, 1)); err == nil {
		t.Error("empty tag should error")
	}
	if _, err := d.InsertElement(nil, "a", nil, document.NewSpan(0, 1)); err == nil {
		t.Error("nil hierarchy should error")
	}
}

func TestRemoveElement(t *testing.T) {
	d := New("r", "abcdefghij")
	h := d.AddHierarchy("h")
	outer, _ := d.InsertElement(h, "s", nil, document.NewSpan(0, 10))
	mid, _ := d.InsertElement(h, "phr", nil, document.NewSpan(1, 7))
	inner, _ := d.InsertElement(h, "w", nil, document.NewSpan(2, 5))
	if err := d.RemoveElement(mid); err != nil {
		t.Fatal(err)
	}
	if inner.ParentElement() != outer {
		t.Error("inner should be re-adopted by outer")
	}
	if h.Len() != 2 {
		t.Errorf("len = %d, want 2", h.Len())
	}
	if err := d.Check(); err != nil {
		t.Error(err)
	}
	// Removing a foreign element errors.
	d2 := New("r", "xy")
	h2 := d2.AddHierarchy("h")
	e2, _ := d2.InsertElement(h2, "a", nil, document.NewSpan(0, 1))
	if err := d.RemoveElement(e2); err == nil {
		t.Error("foreign element should error")
	}
	if err := d.RemoveElement(nil); err == nil {
		t.Error("nil element should error")
	}
}

func TestCompact(t *testing.T) {
	d := New("r", "abcdefghij")
	h := d.AddHierarchy("h")
	e, _ := d.InsertElement(h, "a", nil, document.NewSpan(2, 8))
	before := d.NumLeaves()
	if before != 3 {
		t.Fatalf("leaves = %d", before)
	}
	if err := d.RemoveElement(e); err != nil {
		t.Fatal(err)
	}
	removed := d.Compact()
	if removed != 2 {
		t.Errorf("removed = %d, want 2", removed)
	}
	if d.NumLeaves() != 1 {
		t.Errorf("leaves after compact = %d, want 1", d.NumLeaves())
	}
	if err := d.Check(); err != nil {
		t.Error(err)
	}
}

func TestFig1Structure(t *testing.T) {
	d := fig1Doc(t)
	st := d.Stats()
	if st.Hierarchies != 4 {
		t.Errorf("hierarchies = %d", st.Hierarchies)
	}
	if st.Elements != 10 {
		t.Errorf("elements = %d, want 10", st.Elements)
	}
	// Boundaries at rune offsets 0,3,4,6,8,9,10,11,12,13,15,16,17,18,19,
	// expressed in the spans' byte coordinates.
	wantRunes := []int{0, 3, 4, 6, 8, 9, 10, 11, 12, 13, 15, 16, 17, 18, 19}
	wantBoundaries := make([]int, len(wantRunes))
	for i, r := range wantRunes {
		wantBoundaries[i] = fig1Byte(r)
	}
	got := d.Partition().Boundaries()
	if len(got) != len(wantBoundaries) {
		t.Fatalf("boundaries %v, want %v", got, wantBoundaries)
	}
	for i := range got {
		if got[i] != wantBoundaries[i] {
			t.Fatalf("boundaries %v, want %v", got, wantBoundaries)
		}
	}
}

func TestFig1LeafParents(t *testing.T) {
	d := fig1Doc(t)
	// Leaf containing offset 10 ("æ" region inside "swa" word 3):
	// parents should be: line1 (physical), w[9,12) (words),
	// res[10,17) (restoration), dmg[6,11) (damage).
	l := d.LeafAt(fig1Byte(10))
	parents := l.Parents()
	if len(parents) != 4 {
		t.Fatalf("parents = %d, want 4", len(parents))
	}
	wantTags := []string{"line", "w", "res", "dmg"}
	for i, p := range parents {
		e, ok := p.(*Element)
		if !ok {
			t.Fatalf("parent %d is %T, want *Element", i, p)
		}
		if e.Name() != wantTags[i] {
			t.Errorf("parent %d = %s, want %s", i, e.Name(), wantTags[i])
		}
	}
	// A leaf outside all res/dmg markup has the root as those parents.
	l0 := d.LeafAt(0)
	parents0 := l0.Parents()
	if _, ok := parents0[2].(*Root); !ok {
		t.Errorf("restoration parent of leaf 0 = %T, want *Root", parents0[2])
	}
	if _, ok := parents0[3].(*Root); !ok {
		t.Errorf("damage parent of leaf 0 = %T, want *Root", parents0[3])
	}
}

func TestFig1Overlaps(t *testing.T) {
	d := fig1Doc(t)
	res := d.Hierarchy("restoration").Elements()[0]
	over := d.ElementsOverlapping(res.Span())
	// res[10,17) properly overlaps: line[0,12), line[12,24)? [12,24) vs
	// [10,17): intersect, neither contains -> yes. w[9,12): yes.
	// w[16,18): yes. dmg[6,11): yes. w[13,15) is contained -> no.
	var tags []string
	for _, e := range over {
		tags = append(tags, e.Name())
	}
	want := map[string]int{"line": 2, "w": 2, "dmg": 1}
	gotCount := map[string]int{}
	for _, tg := range tags {
		gotCount[tg]++
	}
	for k, v := range want {
		if gotCount[k] != v {
			t.Errorf("overlapping %s count = %d, want %d (all: %v)", k, gotCount[k], v, tags)
		}
	}
	if len(over) != 5 {
		t.Errorf("total overlapping = %d, want 5: %v", len(over), tags)
	}
}

func TestChildrenInterleaving(t *testing.T) {
	d := New("r", "one two three")
	h := d.AddHierarchy("h")
	s, _ := d.InsertElement(h, "s", nil, document.NewSpan(0, 13))
	d.InsertElement(h, "w", nil, document.NewSpan(4, 7)) // "two"
	kids := s.Children()
	// leaf "one " , <w>, leaf " three"? Note leaf split at 4 and 7:
	// [0,4) "one ", w[4,7), [7,13) " three"
	if len(kids) != 3 {
		t.Fatalf("children = %d, want 3", len(kids))
	}
	if l, ok := kids[0].(Leaf); !ok || l.Text() != "one " {
		t.Errorf("kid 0 = %v", kids[0])
	}
	if e, ok := kids[1].(*Element); !ok || e.Name() != "w" {
		t.Errorf("kid 1 = %v", kids[1])
	}
	if l, ok := kids[2].(Leaf); !ok || l.Text() != " three" {
		t.Errorf("kid 2 = %v", kids[2])
	}
}

func TestRootChildren(t *testing.T) {
	d := New("r", "abcdef")
	h := d.AddHierarchy("h")
	d.InsertElement(h, "w", nil, document.NewSpan(2, 4))
	kids := d.Root().Children(h)
	if len(kids) != 3 {
		t.Fatalf("root children = %d, want 3", len(kids))
	}
	if d.Root().Name() != "r" {
		t.Errorf("root name = %q", d.Root().Name())
	}
}

func TestLeafNavigation(t *testing.T) {
	d := New("r", "abcdef")
	h := d.AddHierarchy("h")
	d.InsertElement(h, "w", nil, document.NewSpan(2, 4))
	l0 := d.Leaf(0)
	l1, ok := l0.Next()
	if !ok || l1.Text() != "cd" {
		t.Errorf("Next = %v %q", ok, l1.Text())
	}
	back, ok := l1.Prev()
	if !ok || back.Index() != 0 {
		t.Errorf("Prev = %v %d", ok, back.Index())
	}
	if _, ok := l0.Prev(); ok {
		t.Error("first leaf has no Prev")
	}
	last := d.Leaf(d.NumLeaves() - 1)
	if _, ok := last.Next(); ok {
		t.Error("last leaf has no Next")
	}
	if l0.Kind() != KindLeaf {
		t.Error("leaf kind")
	}
}

func TestElementLeafRange(t *testing.T) {
	d := fig1Doc(t)
	w := d.Hierarchy("words").ElementsNamed("w")[1] // w[4,8)
	first, last := w.LeafRange()
	leaves := w.Leaves()
	if len(leaves) != last-first {
		t.Errorf("Leaves len %d, range %d", len(leaves), last-first)
	}
	text := ""
	for _, l := range leaves {
		text += l.Text()
	}
	if text != w.Text() {
		t.Errorf("leaf concat %q != element text %q", text, w.Text())
	}
	fl, ok := w.FirstLeaf()
	if !ok || fl.Span().Start != fig1Byte(4) {
		t.Errorf("FirstLeaf %v %v", fl, ok)
	}
	ll, ok := w.LastLeaf()
	if !ok || ll.Span().End != fig1Byte(8) {
		t.Errorf("LastLeaf %v %v", ll, ok)
	}
}

func TestAttrOps(t *testing.T) {
	d := New("r", "ab")
	h := d.AddHierarchy("h")
	e, _ := d.InsertElement(h, "w", []Attr{{Name: "a", Value: "1"}}, document.NewSpan(0, 2))
	e.SetAttr("b", "2")
	e.SetAttr("a", "9")
	if v, _ := e.Attr("a"); v != "9" {
		t.Errorf("a = %q", v)
	}
	if len(e.Attrs()) != 2 {
		t.Errorf("attrs = %v", e.Attrs())
	}
	if !e.RemoveAttr("a") {
		t.Error("RemoveAttr a")
	}
	if e.RemoveAttr("zzz") {
		t.Error("RemoveAttr zzz should fail")
	}
	if _, ok := e.Attr("a"); ok {
		t.Error("a should be gone")
	}
}

func TestCompareNodes(t *testing.T) {
	d := fig1Doc(t)
	root := d.Root()
	els := d.Elements()
	if CompareNodes(root, els[0]) != -1 || CompareNodes(els[0], root) != 1 {
		t.Error("root must come first")
	}
	if CompareNodes(root, root) != 0 {
		t.Error("root == root")
	}
	// Document order of elements is non-decreasing by span start.
	for i := 1; i < len(els); i++ {
		if CompareNodes(els[i-1], els[i]) > 0 {
			t.Errorf("elements out of order at %d: %v then %v", i, els[i-1], els[i])
		}
	}
	// Containing element precedes its leaves.
	line := d.Hierarchy("physical").Elements()[0]
	fl, _ := line.FirstLeaf()
	if CompareNodes(line, fl) != -1 {
		t.Error("element should precede its first leaf")
	}
	// Leaves in index order.
	if CompareNodes(d.Leaf(0), d.Leaf(1)) != -1 {
		t.Error("leaf order")
	}
	if CompareNodes(d.Leaf(1), d.Leaf(1)) != 0 {
		t.Error("leaf self-compare")
	}
}

func TestNodesEqualAndID(t *testing.T) {
	d := New("r", "abc")
	h := d.AddHierarchy("h")
	e, _ := d.InsertElement(h, "w", nil, document.NewSpan(0, 2))
	if !NodesEqual(d.Leaf(0), d.Leaf(0)) {
		t.Error("same leaf should be equal")
	}
	if NodesEqual(d.Leaf(0), d.Leaf(1)) {
		t.Error("different leaves")
	}
	if NodesEqual(d.Leaf(0), e) {
		t.Error("leaf != element")
	}
	if !NodesEqual(e, e) {
		t.Error("same element")
	}
	if NodesEqual(nil, e) {
		t.Error("nil != element")
	}
	if NodeID(d.Leaf(0)) != NodeID(d.Leaf(0)) {
		t.Error("leaf IDs should match")
	}
	if NodeID(d.Leaf(0)) == NodeID(d.Leaf(1)) {
		t.Error("distinct leaf IDs")
	}
}

func TestInsertText(t *testing.T) {
	d := New("r", "hello world")
	h := d.AddHierarchy("h")
	w1, _ := d.InsertElement(h, "w", nil, document.NewSpan(0, 5))
	w2, _ := d.InsertElement(h, "w", nil, document.NewSpan(6, 11))
	if err := d.InsertText(5, "!!"); err != nil {
		t.Fatal(err)
	}
	if d.Content().String() != "hello!! world" {
		t.Errorf("content = %q", d.Content().String())
	}
	// Insertion binds left: w1 ended at 5 and absorbs the new text.
	if w1.Span() != document.NewSpan(0, 7) {
		t.Errorf("w1 span = %v", w1.Span())
	}
	if w1.Text() != "hello!!" {
		t.Errorf("w1 text = %q", w1.Text())
	}
	// w2 started at 6: shifts right.
	if w2.Span() != document.NewSpan(8, 13) {
		t.Errorf("w2 span = %v", w2.Span())
	}
	if err := d.Check(); err != nil {
		t.Error(err)
	}
	if w2.Text() != "world" {
		t.Errorf("w2 text = %q", w2.Text())
	}
}

func TestInsertTextInside(t *testing.T) {
	d := New("r", "abcdef")
	h := d.AddHierarchy("h")
	e, _ := d.InsertElement(h, "w", nil, document.NewSpan(1, 5))
	if err := d.InsertText(3, "XY"); err != nil {
		t.Fatal(err)
	}
	if e.Span() != document.NewSpan(1, 7) {
		t.Errorf("span = %v", e.Span())
	}
	if e.Text() != "bcXYde" {
		t.Errorf("text = %q", e.Text())
	}
	if err := d.Check(); err != nil {
		t.Error(err)
	}
}

func TestDeleteText(t *testing.T) {
	d := New("r", "hello cruel world")
	h := d.AddHierarchy("h")
	w1, _ := d.InsertElement(h, "w", nil, document.NewSpan(0, 5))
	w2, _ := d.InsertElement(h, "w", nil, document.NewSpan(6, 11))  // cruel
	w3, _ := d.InsertElement(h, "w", nil, document.NewSpan(12, 17)) // world
	if err := d.DeleteText(document.NewSpan(5, 12)); err != nil {
		t.Fatal(err)
	}
	if d.Content().String() != "helloworld" {
		t.Errorf("content = %q", d.Content().String())
	}
	if w1.Span() != document.NewSpan(0, 5) {
		t.Errorf("w1 = %v", w1.Span())
	}
	if !w2.IsEmpty() {
		t.Errorf("w2 should be an empty milestone, span %v", w2.Span())
	}
	if w3.Span() != document.NewSpan(5, 10) || w3.Text() != "world" {
		t.Errorf("w3 = %v %q", w3.Span(), w3.Text())
	}
	if err := d.Check(); err != nil {
		t.Error(err)
	}
}

func TestTextEditErrors(t *testing.T) {
	d := New("r", "abc")
	if err := d.InsertText(5, "x"); err == nil {
		t.Error("insert out of range should error")
	}
	if err := d.DeleteText(document.NewSpan(1, 9)); err == nil {
		t.Error("delete out of range should error")
	}
	if err := d.InsertText(1, ""); err != nil {
		t.Errorf("empty insert: %v", err)
	}
	if err := d.DeleteText(document.NewSpan(1, 1)); err != nil {
		t.Errorf("empty delete: %v", err)
	}
}

func TestCoveringElements(t *testing.T) {
	d := fig1Doc(t)
	phys := d.Hierarchy("physical")
	chain := phys.CoveringElements(document.NewSpan(4, 8))
	if len(chain) != 1 || chain[0].Name() != "line" {
		t.Errorf("chain = %v", chain)
	}
	if e := phys.innermostCovering(document.NewSpan(4, 8)); e == nil || e.Name() != "line" {
		t.Errorf("innermost = %v", e)
	}
	// Span crossing the line boundary is covered by nothing in physical.
	if e := phys.innermostCovering(document.NewSpan(10, 14)); e != nil {
		t.Errorf("crossing span should have no cover, got %v", e)
	}
}

func TestElementsNamed(t *testing.T) {
	d := fig1Doc(t)
	ws := d.ElementsNamed("w")
	if len(ws) != 6 {
		t.Errorf("w count = %d", len(ws))
	}
	if len(d.ElementsNamed("nothing")) != 0 {
		t.Error("nothing should be empty")
	}
	hws := d.Hierarchy("words").ElementsNamed("w")
	if len(hws) != 6 {
		t.Errorf("hierarchy w count = %d", len(hws))
	}
}

func TestDumpAndDOT(t *testing.T) {
	d := fig1Doc(t)
	dump := Dump(d)
	for _, want := range []string{"content:", "leaves (", "hierarchy physical", "hierarchy words", "<line>", "<res>", "<dmg>"} {
		if !strings.Contains(dump, want) {
			t.Errorf("Dump missing %q", want)
		}
	}
	dot := DOT(d)
	for _, want := range []string{"digraph goddag", "root ->", "leaf0", "subgraph cluster_physical", "subgraph cluster_damage"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
	table := LeafTable(d)
	if len(strings.Split(strings.TrimSpace(table), "\n")) != d.NumLeaves() {
		t.Error("LeafTable line count mismatch")
	}
}

func TestInventory(t *testing.T) {
	d := fig1Doc(t)
	inv := Inventory(d)
	want := []string{"damage:dmg x1", "physical:line x2", "restoration:res x1", "words:w x6"}
	if len(inv) != len(want) {
		t.Fatalf("inventory = %v", inv)
	}
	for i := range want {
		if inv[i] != want[i] {
			t.Errorf("inventory[%d] = %q, want %q", i, inv[i], want[i])
		}
	}
}

func TestKindString(t *testing.T) {
	if KindRoot.String() != "root" || KindElement.String() != "element" || KindLeaf.String() != "leaf" {
		t.Error("kind names")
	}
	if !strings.Contains(NodeKind(9).String(), "9") {
		t.Error("unknown kind")
	}
}

func TestLeafPanics(t *testing.T) {
	d := New("r", "ab")
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	d.Leaf(5)
}

func TestElementsIntersecting(t *testing.T) {
	d := fig1Doc(t)
	// Span [0,1) intersects line1 and w[0,3) only.
	got := d.ElementsIntersecting(document.NewSpan(0, 1))
	if len(got) != 2 {
		t.Errorf("intersecting = %v", got)
	}
}
