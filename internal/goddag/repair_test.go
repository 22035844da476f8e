package goddag

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/document"
)

// elemKey identifies an element across document copies: copyTree
// preserves hierarchy, tag, span, and insertion sequence.
func elemKey(e *Element) string {
	return fmt.Sprintf("%s:%s%v#%d", e.hier.name, e.name, e.span, e.seq)
}

// copyTree returns a deep copy of d's structure — text, leaf cuts, and
// each hierarchy's element trees with their insertion sequences — with
// cold derived indexes. It walks the trees, never the indexes, so a
// repair that misorders an index cannot leak into the copy.
func copyTree(d *Document) *Document {
	d.ensure()
	nd := New(d.rootTag, d.content.String())
	nd.seq = d.seq
	for _, b := range d.part.Boundaries() {
		nd.part.Cut(b)
	}
	for _, name := range d.order {
		h := d.hiers[name]
		nh := nd.AddHierarchy(name)
		var walk func(es []*Element, parent *Element) []*Element
		walk = func(es []*Element, parent *Element) []*Element {
			out := make([]*Element, 0, len(es))
			for _, e := range es {
				ne := &Element{
					doc: nd, hier: nh, name: e.name,
					attrs: append([]Attr(nil), e.attrs...),
					span:  e.span, parent: parent, seq: e.seq,
				}
				ne.children = walk(e.children, ne)
				out = append(out, ne)
			}
			return out
		}
		nh.top = walk(h.top, nil)
		nh.n = h.n
	}
	return nd
}

// assertIndexesEqualRebuild holds every live derived index of d — which
// may have been repaired in place any number of times — against a
// from-scratch rebuild on a cold structural copy.
func assertIndexesEqualRebuild(t *testing.T, d *Document) {
	t.Helper()
	if err := d.Check(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	ref := copyTree(d)
	ref.Warm()

	els, rels := d.Elements(), ref.Elements()
	if len(els) != len(rels) {
		t.Fatalf("element cache length %d != rebuilt %d", len(els), len(rels))
	}
	for i := range els {
		if elemKey(els[i]) != elemKey(rels[i]) {
			t.Fatalf("element cache[%d]: %s != rebuilt %s", i, elemKey(els[i]), elemKey(rels[i]))
		}
	}

	ord, rord := d.Ordinals(), ref.Ordinals()
	if ord.Len() != rord.Len() {
		t.Fatalf("ordinal space %d != rebuilt %d", ord.Len(), rord.Len())
	}
	for i := range els {
		if els[i].ord != rels[i].ord {
			t.Fatalf("ord of %s: %d != rebuilt %d", elemKey(els[i]), els[i].ord, rels[i].ord)
		}
	}
	if len(ord.leafOrd) != len(rord.leafOrd) {
		t.Fatalf("leafOrd length %d != rebuilt %d", len(ord.leafOrd), len(rord.leafOrd))
	}
	for i := range ord.leafOrd {
		if ord.leafOrd[i] != rord.leafOrd[i] {
			t.Fatalf("leafOrd[%d] = %d != rebuilt %d", i, ord.leafOrd[i], rord.leafOrd[i])
		}
	}
	for i := range ord.byOrd {
		if ord.byOrd[i] != rord.byOrd[i] {
			t.Fatalf("byOrd[%d] = %d != rebuilt %d", i, ord.byOrd[i], rord.byOrd[i])
		}
	}
	if len(ord.empty) != len(rord.empty) {
		t.Fatalf("milestone list length %d != rebuilt %d", len(ord.empty), len(rord.empty))
	}
	for i := range ord.empty {
		if elemKey(ord.empty[i]) != elemKey(rord.empty[i]) {
			t.Fatalf("milestones[%d]: %s != rebuilt %s", i, elemKey(ord.empty[i]), elemKey(rord.empty[i]))
		}
	}

	// Pre-order arrays and subtree intervals, per hierarchy.
	for _, name := range d.HierarchyNames() {
		h, rh := d.Hierarchy(name), ref.Hierarchy(name)
		if len(h.pre) != len(rh.pre) {
			t.Fatalf("hierarchy %q pre length %d != rebuilt %d", name, len(h.pre), len(rh.pre))
		}
		for i := range h.pre {
			e, re := h.pre[i], rh.pre[i]
			if elemKey(e) != elemKey(re) || e.preIdx != re.preIdx || e.preEnd != re.preEnd {
				t.Fatalf("hierarchy %q pre[%d]: %s [%d,%d) != rebuilt %s [%d,%d)",
					name, i, elemKey(e), e.preIdx, e.preEnd, elemKey(re), re.preIdx, re.preEnd)
			}
		}
	}

	// Name index, over the union of tags.
	tags := map[string]bool{"never-used": true}
	for _, e := range rels {
		tags[e.name] = true
	}
	for tag := range tags {
		a, b := d.ElementsNamed(tag), ref.ElementsNamed(tag)
		if len(a) != len(b) {
			t.Fatalf("ElementsNamed(%q): %d != rebuilt %d", tag, len(a), len(b))
		}
		for i := range a {
			if elemKey(a[i]) != elemKey(b[i]) {
				t.Fatalf("ElementsNamed(%q)[%d]: %s != rebuilt %s", tag, i, elemKey(a[i]), elemKey(b[i]))
			}
		}
	}

	// Span index: the segment tree is a deterministic function of the
	// element cache; compare query results over probe spans.
	n := d.Content().Len()
	probes := []document.Span{{Start: 0, End: n}}
	rng := rand.New(rand.NewSource(int64(len(els))))
	for i := 0; i < 8 && n > 1; i++ {
		lo := rng.Intn(n - 1)
		probes = append(probes, document.NewSpan(lo, lo+1+rng.Intn(n-lo-1)))
	}
	for _, sp := range probes {
		a, b := d.ElementsIntersecting(sp), ref.ElementsIntersecting(sp)
		if len(a) != len(b) {
			t.Fatalf("ElementsIntersecting(%v): %d != rebuilt %d", sp, len(a), len(b))
		}
		for i := range a {
			if elemKey(a[i]) != elemKey(b[i]) {
				t.Fatalf("ElementsIntersecting(%v)[%d] differs", sp, i)
			}
		}
		a, b = d.ElementsOverlapping(sp), ref.ElementsOverlapping(sp)
		if len(a) != len(b) {
			t.Fatalf("ElementsOverlapping(%v): %d != rebuilt %d", sp, len(a), len(b))
		}
	}
}

// indexesLive reports whether the four derived caches are all
// version-current (i.e. the last mutation repaired rather than
// invalidated them).
func (d *Document) indexesLive() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.elemCache != nil && d.spanIdx != nil && d.ordIdx != nil && d.nameIdx != nil &&
		d.idxVer == d.version
}

// TestRepairDifferential drives random edit sequences — element inserts
// (including milestones and equal-span wrappers), removals, attribute
// edits, and occasional text edits — against warm indexes and checks
// after every operation that the repaired indexes are identical to a
// from-scratch rebuild.
func TestRepairDifferential(t *testing.T) {
	tags := []string{"x", "y", "z", "m"}
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			d := randomDocWithMilestones(seed, 120, 2+int(seed%3), 8)
			d.Warm()
			n := d.Content().Len()
			repaired, fallbacks := 0, 0
			for op := 0; op < 60; op++ {
				wasLive := d.indexesLive()
				switch k := rng.Intn(10); {
				case k < 5: // insert, sometimes empty (milestone)
					hier := d.Hierarchies()[rng.Intn(len(d.Hierarchies()))]
					lo := rng.Intn(n + 1)
					hi := lo
					if rng.Intn(4) > 0 && lo < n {
						hi = lo + 1 + rng.Intn(n-lo)
					}
					_, err := d.InsertElement(hier, tags[rng.Intn(len(tags))], nil, document.NewSpan(lo, hi))
					var conflict *ConflictError
					if err != nil && !errors.As(err, &conflict) {
						t.Fatalf("op %d: insert: %v", op, err)
					}
				case k < 7: // remove a random element
					els := d.Elements()
					if len(els) == 0 {
						continue
					}
					if err := d.RemoveElement(els[rng.Intn(len(els))]); err != nil {
						t.Fatalf("op %d: remove: %v", op, err)
					}
				case k < 9: // attribute edits (never touch the indexes)
					els := d.Elements()
					if len(els) == 0 {
						continue
					}
					e := els[rng.Intn(len(els))]
					if rng.Intn(2) == 0 {
						e.SetAttr("k", fmt.Sprint(op))
					} else {
						e.RemoveAttr("k")
					}
				default: // text edit: full-rebuild fallback, then re-warm
					if rng.Intn(2) == 0 {
						if err := d.InsertText(rng.Intn(n+1), "ab"); err != nil {
							t.Fatalf("op %d: insert text: %v", op, err)
						}
					} else if n > 2 {
						lo := rng.Intn(n - 1)
						if err := d.DeleteText(document.NewSpan(lo, lo+1)); err != nil {
							t.Fatalf("op %d: delete text: %v", op, err)
						}
					}
					n = d.Content().Len()
					d.Warm()
				}
				if wasLive {
					if d.indexesLive() {
						repaired++
					} else {
						fallbacks++
						d.Warm()
					}
				}
				assertIndexesEqualRebuild(t, d)
			}
			// The sequences must actually exercise the repair path: the
			// rebuild fallback (text edits, rare non-contiguous adoption)
			// may occur, but in-place repair must dominate.
			if repaired < fallbacks {
				t.Fatalf("repair exercised %d times vs %d fallbacks", repaired, fallbacks)
			}
		})
	}
}

// TestRepairEqualSpanWrappers exercises the trickiest splice shape:
// repeated insertion of elements coextensive with existing ones (the
// wrapper adopts the equal-span element), plus their removal, with warm
// indexes throughout.
func TestRepairEqualSpanWrappers(t *testing.T) {
	d := randomDoc(7, 60, 2, 5)
	d.Warm()
	h := d.Hierarchy("a")
	base := d.Hierarchy("a").Elements()
	for _, e := range base {
		if _, err := d.InsertElement(h, "wrap", nil, e.Span()); err != nil {
			t.Fatalf("wrap %v: %v", e, err)
		}
		assertIndexesEqualRebuild(t, d)
	}
	if !d.indexesLive() {
		t.Fatal("equal-span wrapping fell back to full rebuilds")
	}
	// ElementsNamed hands out the live bucket, which RemoveElement splices
	// in place — copy before iterating (per the snapshot contract).
	wraps := append([]*Element(nil), d.ElementsNamed("wrap")...)
	for _, e := range wraps {
		if err := d.RemoveElement(e); err != nil {
			t.Fatalf("unwrap: %v", err)
		}
	}
	assertIndexesEqualRebuild(t, d)
}

// TestRepairRootWideAndEdges covers edge spans: whole-document elements,
// empty elements at offset 0 and at the end, and removal down to an
// empty hierarchy.
func TestRepairRootWideAndEdges(t *testing.T) {
	d := New("r", "hello brave new world")
	h := d.AddHierarchy("h")
	d.Warm()
	n := d.Content().Len()
	spans := []document.Span{
		document.NewSpan(0, n),
		document.NewSpan(0, 0),
		document.NewSpan(n, n),
		document.NewSpan(0, 5),
		document.NewSpan(6, 11),
		document.NewSpan(5, 6),
	}
	for _, sp := range spans {
		if _, err := d.InsertElement(h, "e", nil, sp); err != nil {
			t.Fatalf("insert %v: %v", sp, err)
		}
		assertIndexesEqualRebuild(t, d)
	}
	if !d.indexesLive() {
		t.Fatal("edge-span inserts fell back to full rebuilds")
	}
	for len(d.Elements()) > 0 {
		if err := d.RemoveElement(d.Elements()[0]); err != nil {
			t.Fatal(err)
		}
		assertIndexesEqualRebuild(t, d)
	}
}

// TestElementAtMatchesElements: ElementAt agrees with Elements indexing
// in both modes — counting walk on cold indexes, pre-order array when
// the ordinal index is live — including after repaired edits.
func TestElementAtMatchesElements(t *testing.T) {
	d := randomDocWithMilestones(5, 100, 3, 8)
	check := func(stage string) {
		t.Helper()
		for _, h := range d.Hierarchies() {
			els := h.Elements()
			for i := range els {
				if e, ok := h.ElementAt(i); !ok || e != els[i] {
					t.Fatalf("%s: hierarchy %q ElementAt(%d) = %v, want %v", stage, h.Name(), i, e, els[i])
				}
			}
			if _, ok := h.ElementAt(len(els)); ok {
				t.Fatalf("%s: ElementAt past the end succeeded", stage)
			}
			if _, ok := h.ElementAt(-1); ok {
				t.Fatalf("%s: ElementAt(-1) succeeded", stage)
			}
		}
	}
	check("cold")
	d.Warm()
	check("warm")
	h := d.Hierarchies()[0]
	if _, err := d.InsertElement(h, "z", nil, document.NewSpan(0, d.Content().Len())); err != nil {
		t.Fatal(err)
	}
	check("after repaired insert")
}
