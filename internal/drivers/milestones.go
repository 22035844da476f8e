package drivers

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/document"
	"repro/internal/goddag"
	"repro/internal/xmlscan"
)

// The milestone representation is a single well-formed XML document. One
// *dominant* hierarchy keeps its element tree; every element of the other
// hierarchies is flattened into a pair of empty milestone tags carrying
// reserved attributes:
//
//	<w chx-s="words.3" id="w3"/>  ...content...  <w chx-e="words.3"/>
//
// The start milestone carries the element's original attributes. The
// reserved identifier encodes "hierarchy.ordinal", so the decoder can
// reassign every element to its hierarchy. The root element records the
// encoding parameters:
//
//	<r chx-hierarchies="physical words" chx-dominant="physical">
//
// This is TEI's "milestone" workaround made lossless and mechanical
// (paper §2: "declare elements that are likely to produce overlapping as
// empty elements").

// Reserved attribute names used by the single-document encoders.
const (
	attrMilestoneStart = "chx-s"
	attrMilestoneEnd   = "chx-e"
	attrHierarchies    = "chx-hierarchies"
	attrDominant       = "chx-dominant"
	attrHier           = "chx-h"
	attrFragID         = "chx-id"
	attrFragPart       = "chx-part"
)

// EncodeMilestones renders doc as a single milestone-encoded XML document.
func EncodeMilestones(doc *goddag.Document, opts EncodeOptions) ([]byte, error) {
	hs, err := selectHierarchies(doc, opts)
	if err != nil {
		return nil, err
	}
	dom, err := dominantOf(hs, opts)
	if err != nil {
		return nil, err
	}

	// Milestone events for all non-dominant elements, grouped by content
	// position. Ends sort before starts at a position; empty elements
	// emit start+end adjacently in the start class.
	type msEvent struct {
		open bool
		el   *goddag.Element
		id   string
	}
	events := map[int][]msEvent{}
	for _, h := range hs {
		if h == dom {
			continue
		}
		for i, e := range h.Elements() {
			id := fmt.Sprintf("%s.%d", h.Name(), i)
			sp := e.Span()
			if sp.IsEmpty() {
				events[sp.Start] = append(events[sp.Start],
					msEvent{open: true, el: e, id: id}, msEvent{open: false, el: e, id: id})
				continue
			}
			events[sp.Start] = append(events[sp.Start], msEvent{open: true, el: e, id: id})
			events[sp.End] = append(events[sp.End], msEvent{open: false, el: e, id: id})
		}
	}
	for pos := range events {
		evs := events[pos]
		sort.SliceStable(evs, func(i, j int) bool {
			// Ends first, except the paired events of empty elements,
			// which were appended adjacently and must stay in order;
			// stable sort keeps them adjacent when both map to the same
			// class. Classify: end-of-nonempty = 0, everything else = 1.
			ci, cj := 1, 1
			if !evs[i].open && !evs[i].el.Span().IsEmpty() {
				ci = 0
			}
			if !evs[j].open && !evs[j].el.Span().IsEmpty() {
				cj = 0
			}
			return ci < cj
		})
		events[pos] = evs
	}

	var b strings.Builder
	emitMilestones := func(pos int) {
		for _, ev := range events[pos] {
			if ev.open {
				fmt.Fprintf(&b, "<%s %s=\"%s\"", ev.el.Name(), attrMilestoneStart, xmlscan.EscapeAttr(ev.id))
				for _, a := range ev.el.Attrs() {
					fmt.Fprintf(&b, " %s=\"%s\"", a.Name, xmlscan.EscapeAttr(a.Value))
				}
				b.WriteString("/>")
			} else {
				fmt.Fprintf(&b, "<%s %s=\"%s\"/>", ev.el.Name(), attrMilestoneEnd, xmlscan.EscapeAttr(ev.id))
			}
		}
		delete(events, pos)
	}

	names := make([]string, len(hs))
	for i, h := range hs {
		names[i] = h.Name()
	}
	fmt.Fprintf(&b, "<%s %s=\"%s\" %s=\"%s\">", doc.RootTag(), attrHierarchies,
		xmlscan.EscapeAttr(strings.Join(names, " ")), attrDominant, xmlscan.EscapeAttr(dom.Name()))

	var walk func(nodes []goddag.Node)
	walk = func(nodes []goddag.Node) {
		for _, n := range goddag.SerialOrder(nodes) {
			switch v := n.(type) {
			case *goddag.Element:
				emitMilestones(v.Span().Start)
				fmt.Fprintf(&b, "<%s", v.Name())
				for _, a := range v.Attrs() {
					fmt.Fprintf(&b, " %s=\"%s\"", a.Name, xmlscan.EscapeAttr(a.Value))
				}
				if v.IsEmpty() && len(v.ChildElements()) == 0 {
					b.WriteString("/>")
					continue
				}
				b.WriteString(">")
				walk(v.Children())
				emitMilestones(v.Span().End)
				fmt.Fprintf(&b, "</%s>", v.Name())
			case goddag.Leaf:
				sp := v.Span()
				emitMilestones(sp.Start)
				b.WriteString(xmlscan.EscapeText(v.Text()))
			}
		}
	}
	walk(doc.Root().Children(dom))
	// Trailing milestones at end-of-content.
	emitMilestones(doc.Content().Len())
	// Any remaining milestone positions fall strictly inside dominant
	// leaves (possible only if Compact ran with milestones still present);
	// flush them in position order before closing the root.
	if len(events) > 0 {
		rest := make([]int, 0, len(events))
		for pos := range events {
			rest = append(rest, pos)
		}
		sort.Ints(rest)
		for _, pos := range rest {
			emitMilestones(pos)
		}
	}
	fmt.Fprintf(&b, "</%s>", doc.RootTag())
	return []byte(b.String()), nil
}

// DecodeMilestones parses a milestone-encoded document into a GODDAG.
// Documents without the chx-hierarchies root attribute decode as a single
// hierarchy named "main". The document's names and attribute values
// alias data.
//
// Equal spans in the dominant hierarchy nest as the XML does: the
// element closed first is the inner one. Milestone pairs carry no
// nesting; the encoder writes them in pre-order, so among equal spans
// the pair started last is the inner one.
func DecodeMilestones(data []byte) (*goddag.Document, error) {
	type open struct {
		tag   string
		attrs []goddag.Attr
		pos   int
		hier  int
		seq   int
	}
	var (
		set      recordSet
		text     strings.Builder
		rootTag  string
		dominant int                 // the dominant hierarchy's position
		stack    []open              // dominant elements awaiting their end tag
		pending  = map[string]open{} // milestone starts awaiting their end, by id
		starts   int
	)
	set.grow(data)
	err := scan(data, func(tok *xmlscan.Token) error {
		switch tok.Kind {
		case xmlscan.KindText:
			text.WriteString(tok.Text)
		case xmlscan.KindStartElement:
			if rootTag == "" {
				rootTag = tok.Name
				names := set.rootHiers(tok)
				dom := "main"
				if dm, ok := tok.Attr(attrDominant); ok {
					dom = dm
				} else if len(names) > 0 {
					dom = names[0]
				}
				dominant = set.hier(dom)
				return checkHierName(dom)
			}
			if id, ok := tok.Attr(attrMilestoneStart); ok {
				hier, err := hierOfID(id)
				if err != nil {
					return err
				}
				if !tok.SelfClosing {
					return fmt.Errorf("start %q is not an empty tag", id)
				}
				if _, dup := pending[id]; dup {
					return fmt.Errorf("duplicate start %q", id)
				}
				pending[id] = open{tag: tok.Name, attrs: set.plainAttrs(tok.Attrs), pos: tok.ContentByte, hier: set.hier(hier), seq: -starts}
				starts++
				return nil
			}
			if id, ok := tok.Attr(attrMilestoneEnd); ok {
				ms, open := pending[id]
				if !open {
					return fmt.Errorf("end %q without start", id)
				}
				if ms.tag != tok.Name {
					return fmt.Errorf("end %q tag <%s> != start tag <%s>", id, tok.Name, ms.tag)
				}
				if !tok.SelfClosing {
					return fmt.Errorf("end %q is not an empty tag", id)
				}
				delete(pending, id)
				set.add(ms.hier, ms.tag, ms.attrs, document.NewSpan(ms.pos, tok.ContentByte), ms.seq)
				return nil
			}
			// Dominant structural element.
			attrs := set.plainAttrs(tok.Attrs)
			if tok.SelfClosing {
				set.add(dominant, tok.Name, attrs, document.NewSpan(tok.ContentByte, tok.ContentByte), len(set.recs))
				return nil
			}
			stack = append(stack, open{tag: tok.Name, attrs: attrs, pos: tok.ContentByte})
		case xmlscan.KindEndElement:
			if tok.Depth == 0 {
				return nil // root close
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			set.add(dominant, top.tag, top.attrs, document.NewSpan(top.pos, tok.ContentByte), len(set.recs))
		}
		return nil
	})
	for id := range pending {
		if err == nil {
			err = fmt.Errorf("start %q without end", id)
		}
	}
	return set.load("milestones", rootTag, text.String(), err)
}

// hierOfID extracts the hierarchy name from a "hierarchy.ordinal" id.
func hierOfID(id string) (string, error) {
	i := strings.LastIndexByte(id, '.')
	if i <= 0 {
		return "", fmt.Errorf("malformed id %q", id)
	}
	return id[:i], checkHierName(id[:i])
}
