package goddag

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/document"
)

// BulkBuilder inserts elements into a document in document order —
// CompareSpans non-decreasing (start ascending, wider spans first), ties
// in insertion sequence — the order sacx.Build's merge emits natively:
// each source's elements stream out sorted, and the k-way element merge
// interleaves them without any global sort.
//
// Because parents always arrive before the elements they dominate, the
// builder can maintain one stack of open elements per hierarchy and place
// each new element in O(1) amortized time: no root-descent locate, no
// per-insert adoption set. The only reparenting that can occur in sorted
// order is the equal-span case (the inner of two coextensive elements
// ended first, so it arrives first and is wrapped by the outer), which the
// builder handles identically to InsertElement.
//
// Appending out of document order returns an error. Importers whose
// element records do not arrive in document order hand them to
// Document.LoadRecords, which sorts them and streams them through a
// BulkBuilder; InsertElement is for edits. The two paths produce
// identical structures for the same element set.
type BulkBuilder struct {
	doc    *Document
	states map[*Hierarchy]*bulkState

	// Arenas: elements are handed out of fixed-capacity chunks and
	// attribute copies share one growing slice, so a bulk load performs a
	// handful of large allocations instead of two per element. Arena
	// attribute views are safe to hand to Elements: each element owns its
	// [lo:hi:hi] sub-slice exclusively, and SetAttr growth reallocates
	// away from the arena.
	elems    []Element
	attrPool []Attr
	precut   bool
}

// bulkChunk is the element arena chunk size.
const bulkChunk = 1024

func (b *BulkBuilder) newElement() *Element {
	if len(b.elems) == cap(b.elems) {
		b.elems = make([]Element, 0, bulkChunk)
	}
	b.elems = append(b.elems, Element{})
	return &b.elems[len(b.elems)-1]
}

func (b *BulkBuilder) copyAttrs(attrs []Attr) []Attr {
	if len(attrs) == 0 {
		return nil
	}
	lo := len(b.attrPool)
	b.attrPool = append(b.attrPool, attrs...)
	return b.attrPool[lo:len(b.attrPool):len(b.attrPool)]
}

type bulkState struct {
	stack []*Element    // chain of elements still able to parent arrivals
	last  document.Span // last appended span, for order checking
	any   bool
}

// Precut declares that every span border the builder will see is already
// a leaf boundary (established up front with Partition.CutAll, as
// sacx.Build does), letting Append skip its per-span boundary cuts.
// Declaring it wrongly breaks the GODDAG border invariant, which
// Document.Check reports.
func (b *BulkBuilder) Precut() { b.precut = true }

// BulkLoad returns a builder for inserting elements in document order.
func (d *Document) BulkLoad() *BulkBuilder {
	d.prepareMutate()
	return &BulkBuilder{doc: d, states: make(map[*Hierarchy]*bulkState)}
}

// Grow pre-sizes the builder's arenas for a load of elems elements
// carrying attrs attributes in total.
func (b *BulkBuilder) Grow(elems, attrs int) {
	if elems > cap(b.elems)-len(b.elems) {
		b.elems = make([]Element, 0, elems)
	}
	if attrs > cap(b.attrPool)-len(b.attrPool) {
		b.attrPool = make([]Attr, 0, attrs)
	}
}

// Append inserts an element over span into hierarchy h. Calls must arrive
// in document order per hierarchy (CompareSpans non-decreasing). The
// span's borders become leaf boundaries. A span that properly overlaps an
// element of the same hierarchy returns a *ConflictError.
func (b *BulkBuilder) Append(h *Hierarchy, tag string, attrs []Attr, span document.Span) (*Element, error) {
	d := b.doc
	if h == nil || h.doc != d {
		return nil, fmt.Errorf("goddag: hierarchy does not belong to this document")
	}
	if tag == "" {
		return nil, fmt.Errorf("goddag: empty element tag")
	}
	if !span.Valid() || span.End > d.content.Len() {
		return nil, fmt.Errorf("goddag: span %v out of content range [0,%d]", span, d.content.Len())
	}
	if !d.content.IsRuneBoundary(span.Start) || !d.content.IsRuneBoundary(span.End) {
		return nil, fmt.Errorf("goddag: span %v does not lie on rune boundaries", span)
	}
	st := b.states[h]
	if st == nil {
		st = &bulkState{}
		b.states[h] = st
	}
	if st.any && document.CompareSpans(st.last, span) > 0 {
		return nil, fmt.Errorf("goddag: bulk insert of %v after %v is out of document order; use InsertElement", span, st.last)
	}
	st.any, st.last = true, span

	// Pop elements that end at or before the new span: in sorted order
	// nothing later can nest inside them. An equal span is kept — that is
	// the adoption case below (relevant for coextensive empty elements,
	// whose End equals the new span's Start).
	stack := st.stack
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		if top.span != span && top.span.End <= span.Start {
			stack = stack[:len(stack)-1]
			continue
		}
		break
	}

	el := b.newElement()
	*el = Element{doc: d, hier: h, name: tag, attrs: b.copyAttrs(attrs), span: span, seq: d.seq}
	d.seq++

	// Establish leaf boundaries at the span borders.
	if !b.precut {
		d.part.Cut(span.Start)
		d.part.Cut(span.End)
	}

	if n := len(stack); n > 0 && stack[n-1].span == span {
		// Coextensive spans: the later arrival wraps the earlier one,
		// exactly as InsertElement adopts an equal-span sibling. The
		// equal-span run on the stack is consecutive; el becomes the
		// parent of its shallowest member.
		j := n - 1
		for j > 0 && stack[j-1].span == span {
			j--
		}
		adoptee := stack[j]
		parent := adoptee.parent
		list := h.top
		if parent != nil {
			list = parent.children
		}
		if len(list) == 0 || list[len(list)-1] != adoptee {
			return nil, fmt.Errorf("goddag: bulk adoption of %v out of order", adoptee)
		}
		list[len(list)-1] = el
		el.parent = parent
		el.children = []*Element{adoptee}
		adoptee.parent = el
		if parent == nil {
			h.top = list
		} else {
			parent.children = list
		}
		// el slots into the containment chain just below the run.
		stack = append(stack, nil)
		copy(stack[j+1:], stack[j:])
		stack[j] = el
	} else {
		// The parent is the innermost stack element strictly containing
		// the span. For a non-empty span only the top can qualify —
		// anything deeper that fails to contain it properly overlaps it.
		// An empty span at a left border stays outside that element
		// (milestones at element edges are siblings, not children) but
		// may nest in an element further up the chain.
		var parent *Element
		for i := len(stack) - 1; i >= 0; i-- {
			cand := stack[i]
			if strictlyContains(cand.span, span) {
				parent = cand
				break
			}
			if !span.IsEmpty() {
				return nil, &ConflictError{Hierarchy: h.name, Tag: tag, Span: span, With: cand}
			}
		}
		el.parent = parent
		if parent == nil {
			h.top = append(h.top, el)
		} else {
			parent.children = append(parent.children, el)
		}
		stack = append(stack, el)
	}
	st.stack = stack
	h.n++
	d.bump()
	return el, nil
}

// Record is one element awaiting a bulk load: its hierarchy (a position
// in Document.Hierarchies), tag, attributes, byte span and source order.
// Seq matters only among records of one hierarchy with equal spans,
// where the lower Seq is the inner element (in nested XML, the one
// whose end tag comes first).
type Record struct {
	Hier  int
	Tag   string
	Attrs []Attr
	Span  document.Span
	Seq   int
}

// LoadRecords builds recs, given in any order, into d, whose hierarchies
// must be registered and still empty. It is the one place that decides
// the order of element records: a stable sort by sacx.Build's merge key
// (start, widest end first, hierarchy position, then Seq), one
// Partition.CutAll of every border, and a Precut BulkBuilder pass. It
// sorts recs in place. On error d is left partially built.
func (d *Document) LoadRecords(recs []Record) error {
	hiers := d.Hierarchies()
	cuts := make([]int, 0, 2*len(recs))
	nattrs := 0
	for i := range recs {
		r := &recs[i]
		if r.Hier < 0 || r.Hier >= len(hiers) {
			return fmt.Errorf("goddag: record hierarchy %d out of range [0,%d)", r.Hier, len(hiers))
		}
		cuts = append(cuts, r.Span.Start, r.Span.End)
		nattrs += len(r.Attrs)
	}
	slices.SortStableFunc(recs, func(a, b Record) int {
		if c := document.CompareSpans(a.Span, b.Span); c != 0 {
			return c
		}
		if a.Hier != b.Hier {
			return cmp.Compare(a.Hier, b.Hier)
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
	d.Partition().CutAll(cuts)
	bulk := d.BulkLoad()
	bulk.Grow(len(recs), nattrs)
	bulk.Precut()
	for i := range recs {
		r := &recs[i]
		if _, err := bulk.Append(hiers[r.Hier], r.Tag, r.Attrs, r.Span); err != nil {
			return err
		}
	}
	return nil
}
