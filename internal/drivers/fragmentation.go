package drivers

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/document"
	"repro/internal/goddag"
	"repro/internal/xmlscan"
)

// The fragmentation representation is a single well-formed XML document in
// which *every* selected hierarchy appears structurally: wherever two
// elements would overlap, the one with lower priority is split into
// fragments that nest properly (TEI's first workaround, made mechanical).
// Fragments of one original element share a chx-id and carry
// chx-part="I"/"M"/"F" (initial/middle/final); every element carries
// chx-h naming its hierarchy. The root records chx-hierarchies and
// chx-dominant (the highest-priority hierarchy, which is never
// fragmented by lower-priority ones).
//
// Encoding is a single left-to-right sweep over leaf boundaries with a
// stack of open fragments: at each boundary, elements ending there close;
// any still-running element sitting above them on the stack is
// *interrupted* (its fragment closes too and reopens after), exactly the
// fragment-and-glue discipline a TEI encoder applies by hand.

// EncodeFragmentation renders doc as a single fragmentation-encoded XML
// document.
func EncodeFragmentation(doc *goddag.Document, opts EncodeOptions) ([]byte, error) {
	hs, err := selectHierarchies(doc, opts)
	if err != nil {
		return nil, err
	}
	dom, err := dominantOf(hs, opts)
	if err != nil {
		return nil, err
	}
	priority := map[string]int{dom.Name(): 0}
	for _, h := range hs {
		if _, ok := priority[h.Name()]; !ok {
			priority[h.Name()] = len(priority)
		}
	}

	// Gather elements with stable ids.
	type item struct {
		el *goddag.Element
		id int
	}
	var items []item
	var all []*goddag.Element
	for _, h := range hs {
		all = append(all, h.Elements()...)
	}
	orderForNesting(all, priority)
	for i, e := range all {
		items = append(items, item{el: e, id: i})
	}

	// Output token plan; part attributes are resolved after the sweep.
	type frag struct {
		itemID int
		part   int // fragment ordinal of its element
	}
	type outTok struct {
		kind  int // 0 text, 1 open, 2 close
		text  string
		f     frag
		final bool // set on close when the element truly ends
	}
	var (
		toks      []outTok
		fragCount = make([]int, len(items))
	)
	byID := make([]*goddag.Element, len(items))
	for _, it := range items {
		byID[it.id] = it.el
	}

	type openFrag struct {
		itemID int
		end    int // true end of the element
		prio   int
	}
	var stack []openFrag

	openOne := func(id int) {
		e := byID[id]
		toks = append(toks, outTok{kind: 1, f: frag{itemID: id, part: fragCount[id]}})
		fragCount[id]++
		stack = append(stack, openFrag{itemID: id, end: e.Span().End, prio: priority[e.Hierarchy().Name()]})
	}
	closeTop := func(final bool) openFrag {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		toks = append(toks, outTok{kind: 2, f: frag{itemID: top.itemID, part: fragCount[top.itemID] - 1}, final: final})
		return top
	}

	// Events by position.
	starts := map[int][]int{} // position -> item ids starting there
	for _, it := range items {
		sp := it.el.Span()
		starts[sp.Start] = append(starts[sp.Start], it.id)
	}
	positions := map[int]bool{0: true, doc.Content().Len(): true}
	for _, it := range items {
		positions[it.el.Span().Start] = true
		positions[it.el.Span().End] = true
	}
	var posList []int
	for p := range positions {
		posList = append(posList, p)
	}
	sort.Ints(posList)

	content := doc.Content()
	for pi, pos := range posList {
		// 1. Close everything that ends here; interrupted fragments
		// reopen below.
		var reopen []int
		needClose := map[int]bool{}
		for _, of := range stack {
			if of.end == pos {
				needClose[of.itemID] = true
			}
		}
		for len(needClose) > 0 {
			top := closeTop(stack[len(stack)-1].end == pos)
			if needClose[top.itemID] {
				delete(needClose, top.itemID)
			} else {
				reopen = append(reopen, top.itemID)
			}
		}
		// 2. Open new elements and reopen interrupted ones, outer-most
		// (latest end, then priority) first.
		opening := append(reopen, starts[pos]...)
		sort.SliceStable(opening, func(i, j int) bool {
			ei, ej := byID[opening[i]], byID[opening[j]]
			if ei.Span().End != ej.Span().End {
				return ei.Span().End > ej.Span().End
			}
			pi, pj := priority[ei.Hierarchy().Name()], priority[ej.Hierarchy().Name()]
			if pi != pj {
				return pi < pj
			}
			// Wider (earlier-starting) first for containment at equal end.
			return ei.Span().Start < ej.Span().Start
		})
		for _, id := range opening {
			e := byID[id]
			if e.Span().IsEmpty() {
				// Milestone: open and close immediately.
				toks = append(toks, outTok{kind: 1, f: frag{itemID: id, part: 0}})
				fragCount[id]++
				toks = append(toks, outTok{kind: 2, f: frag{itemID: id, part: 0}, final: true})
				continue
			}
			openOne(id)
		}
		// 3. Emit the text run to the next position.
		if pi+1 < len(posList) {
			next := posList[pi+1]
			if next > pos {
				toks = append(toks, outTok{kind: 0, text: content.Slice(document.NewSpan(pos, next))})
			}
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("drivers: fragmentation: internal error: %d unclosed fragments", len(stack))
	}

	// Render.
	var b strings.Builder
	names := make([]string, len(hs))
	for i, h := range hs {
		names[i] = h.Name()
	}
	fmt.Fprintf(&b, "<%s %s=\"%s\" %s=\"%s\">", doc.RootTag(), attrHierarchies,
		xmlscan.EscapeAttr(strings.Join(names, " ")), attrDominant, xmlscan.EscapeAttr(dom.Name()))
	for _, tk := range toks {
		switch tk.kind {
		case 0:
			b.WriteString(xmlscan.EscapeText(tk.text))
		case 1:
			e := byID[tk.f.itemID]
			fmt.Fprintf(&b, "<%s %s=\"%s\"", e.Name(), attrHier, xmlscan.EscapeAttr(e.Hierarchy().Name()))
			if fragCount[tk.f.itemID] > 1 {
				fmt.Fprintf(&b, " %s=\"%d\"", attrFragID, tk.f.itemID)
				part := "M"
				switch {
				case tk.f.part == 0:
					part = "I"
				case tk.f.part == fragCount[tk.f.itemID]-1:
					part = "F"
				}
				fmt.Fprintf(&b, " %s=%q", attrFragPart, part)
			}
			for _, a := range e.Attrs() {
				fmt.Fprintf(&b, " %s=\"%s\"", a.Name, xmlscan.EscapeAttr(a.Value))
			}
			b.WriteString(">")
		case 2:
			e := byID[tk.f.itemID]
			fmt.Fprintf(&b, "</%s>", e.Name())
		}
	}
	fmt.Fprintf(&b, "</%s>", doc.RootTag())
	return []byte(b.String()), nil
}

// DecodeFragmentation parses a fragmentation-encoded document into a
// GODDAG, gluing chx-id fragment chains back into single elements.
// Documents without chx-* metadata decode as a single hierarchy "main".
// The document's names and attribute values alias data.
//
// Equal spans in one hierarchy nest by the order their first fragments
// open, the first opened outermost. That is the one order the encoder
// never flips: it opens coextensive elements outer first, but writes
// coextensive empty elements one after the other and reopens
// interrupted fragments in the order it closed them.
func DecodeFragmentation(data []byte) (*goddag.Document, error) {
	type open struct {
		tag   string
		attrs []goddag.Attr
		pos   int
		hier  int
		id    string
		seq   int
	}
	var (
		set     recordSet
		text    strings.Builder
		rootTag string
		defHier = "main"           // hierarchy of elements without chx-h
		stack   []open             // elements awaiting their end tag
		chains  = map[string]int{} // chx-id -> record index
		opens   int
	)
	// finish files a closed fragment as a record, or extends the record
	// of its chx-id chain.
	finish := func(o open, end int) error {
		span := document.NewSpan(o.pos, end)
		i, ok := chains[o.id]
		if o.id == "" || !ok {
			if o.id != "" {
				chains[o.id] = len(set.recs)
			}
			set.add(o.hier, o.tag, o.attrs, span, o.seq)
			return nil
		}
		r := &set.recs[i]
		if r.Hier != o.hier || r.Tag != o.tag || !slices.Equal(r.Attrs, o.attrs) {
			return fmt.Errorf("fragments of %q disagree on hierarchy, tag or attributes", o.id)
		}
		if span.Start < r.Span.End {
			return fmt.Errorf("fragments of %q overlap", o.id)
		}
		r.Span.End = span.End
		return nil
	}
	set.grow(data)
	err := scan(data, func(tok *xmlscan.Token) error {
		switch tok.Kind {
		case xmlscan.KindText:
			text.WriteString(tok.Text)
		case xmlscan.KindStartElement:
			if rootTag == "" {
				rootTag = tok.Name
				names := set.rootHiers(tok)
				if len(names) > 0 {
					defHier = names[0]
				}
				return nil
			}
			hier := defHier
			if hv, ok := tok.Attr(attrHier); ok {
				if err := checkHierName(hv); err != nil {
					return err
				}
				hier = hv
			}
			id, _ := tok.Attr(attrFragID)
			o := open{tag: tok.Name, attrs: set.plainAttrs(tok.Attrs), pos: tok.ContentByte, hier: set.hier(hier), id: id, seq: -opens}
			opens++
			if tok.SelfClosing {
				return finish(o, tok.ContentByte)
			}
			stack = append(stack, o)
		case xmlscan.KindEndElement:
			if tok.Depth == 0 {
				return nil // root close
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			return finish(top, tok.ContentByte)
		}
		return nil
	})
	return set.load("fragmentation", rootTag, text.String(), err)
}
