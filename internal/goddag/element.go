package goddag

import (
	"fmt"
	"sort"

	"repro/internal/document"
)

// Hierarchy is one concurrent markup hierarchy: the tree formed over the
// shared leaves by the elements of one DTD/schema. Elements of the same
// hierarchy must nest properly; elements of different hierarchies may
// overlap freely.
type Hierarchy struct {
	doc  *Document
	name string
	top  []*Element // top-level elements, in document order
	n    int        // total element count
	pre  []*Element // pre-order (== document-order) element array, part of the index snapshot
}

// Name returns the hierarchy name (by convention, the DTD name).
func (h *Hierarchy) Name() string { return h.name }

// Document returns the owning document.
func (h *Hierarchy) Document() *Document { return h.doc }

// Len returns the number of elements in the hierarchy.
func (h *Hierarchy) Len() int {
	h.doc.ensure()
	return h.n
}

// TopElements returns the hierarchy's top-level elements (children of the
// shared root) in document order.
func (h *Hierarchy) TopElements() []*Element {
	h.doc.ensure()
	out := make([]*Element, len(h.top))
	copy(out, h.top)
	return out
}

// Elements returns all elements of the hierarchy in document order: a
// copy of the hierarchy's pre-order array from the index snapshot
// (within one hierarchy, pre-order is document order).
func (h *Hierarchy) Elements() []*Element {
	h.doc.mu.Lock()
	defer h.doc.mu.Unlock()
	h.doc.indexesLocked()
	return append([]*Element(nil), h.pre...)
}

// ElementAt returns the i-th element of the hierarchy in document
// order (the same numbering as Elements) in O(1) from the index
// snapshot. ok is false for out-of-range indices.
func (h *Hierarchy) ElementAt(i int) (el *Element, ok bool) {
	h.doc.mu.Lock()
	defer h.doc.mu.Unlock()
	h.doc.indexesLocked()
	if i < 0 || i >= len(h.pre) {
		return nil, false
	}
	return h.pre[i], true
}

// ElementsNamed returns the hierarchy's elements with the given tag in
// document order, filtering the document's name index.
func (h *Hierarchy) ElementsNamed(tag string) []*Element {
	var out []*Element
	for _, e := range h.doc.ElementsNamed(tag) {
		if e.hier == h {
			out = append(out, e)
		}
	}
	return out
}

// Element is an element node belonging to exactly one hierarchy.
type Element struct {
	doc      *Document
	hier     *Hierarchy
	name     string
	attrs    []Attr
	span     document.Span
	parent   *Element // nil means the parent is the shared root
	children []*Element
	seq      int

	// Query-index fields, assigned with the index snapshot and valid only
	// while it is live (doc.idxVer == doc.version): the
	// node's dense document-order ordinal and its half-open pre-order
	// interval [preIdx, preEnd) within hier.pre. Read them through an
	// *Ordinals obtained from Document.Ordinals().
	ord    int32
	preIdx int32
	preEnd int32
}

// Kind returns KindElement.
func (e *Element) Kind() NodeKind { return KindElement }

// Name returns the element tag.
func (e *Element) Name() string { return e.name }

// Hierarchy returns the hierarchy the element belongs to.
func (e *Element) Hierarchy() *Hierarchy { return e.hier }

// Span returns the content interval the element dominates.
func (e *Element) Span() document.Span { return e.span }

// Text returns the content dominated by the element.
func (e *Element) Text() string { return e.doc.content.Slice(e.span) }

// Document returns the owning document.
func (e *Element) Document() *Document { return e.doc }

func (e *Element) isNode() {}

// IsEmpty reports whether the element dominates no content (a milestone).
func (e *Element) IsEmpty() bool { return e.span.IsEmpty() }

// Attrs returns the element's attributes in document order.
func (e *Element) Attrs() []Attr {
	out := make([]Attr, len(e.attrs))
	copy(out, e.attrs)
	return out
}

// Attr returns the value of the named attribute and whether it exists.
func (e *Element) Attr(name string) (string, bool) {
	for _, a := range e.attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// SetAttr sets (or adds) an attribute.
func (e *Element) SetAttr(name, value string) {
	for i := range e.attrs {
		if e.attrs[i].Name == name {
			e.attrs[i].Value = value
			return
		}
	}
	e.attrs = append(e.attrs, Attr{Name: name, Value: value})
}

// RemoveAttr deletes an attribute, reporting whether it was present.
func (e *Element) RemoveAttr(name string) bool {
	for i := range e.attrs {
		if e.attrs[i].Name == name {
			e.attrs = append(e.attrs[:i], e.attrs[i+1:]...)
			return true
		}
	}
	return false
}

// Parent returns the element's parent node within its hierarchy: another
// element, or the shared root.
func (e *Element) Parent() Node {
	if e.parent != nil {
		return e.parent
	}
	return e.doc.root
}

// ParentElement returns the parent element, or nil when the parent is the
// root.
func (e *Element) ParentElement() *Element { return e.parent }

// ChildElements returns the element's child elements (same hierarchy) in
// document order.
func (e *Element) ChildElements() []*Element {
	out := make([]*Element, len(e.children))
	copy(out, e.children)
	return out
}

// NumChildElements returns the number of same-hierarchy child elements.
func (e *Element) NumChildElements() int { return len(e.children) }

// ChildElementAt returns the i-th child element (document order) without
// copying the child list.
func (e *Element) ChildElementAt(i int) *Element { return e.children[i] }

// Children returns the element's children in DOM order: child elements of
// the same hierarchy interleaved with the leaves of the element's span not
// covered by any child element.
func (e *Element) Children() []Node {
	return childNodes(e.doc, e.span, e.children)
}

// FirstLeaf and LastLeaf return the leaf interval [FirstLeaf, LastLeaf]
// the element dominates. ok is false for empty elements.
func (e *Element) FirstLeaf() (Leaf, bool) {
	if e.span.IsEmpty() {
		return Leaf{}, false
	}
	return e.doc.LeafAt(e.span.Start), true
}

// LastLeaf returns the last leaf the element dominates.
func (e *Element) LastLeaf() (Leaf, bool) {
	if e.span.IsEmpty() {
		return Leaf{}, false
	}
	return e.doc.LeafAt(e.span.End - 1), true
}

// LeafRange returns the half-open leaf index interval the element
// dominates; empty elements return first == last at their position.
func (e *Element) LeafRange() (first, last int) {
	if e.span.IsEmpty() {
		i, ok := e.doc.part.LeafStartingAt(e.span.Start)
		if !ok {
			// An empty element can sit at a non-boundary only if content
			// was edited around it; fall back to the containing leaf.
			i = e.doc.part.LeafAt(e.span.Start)
		}
		return i, i
	}
	first, last, ok := e.doc.part.LeafRange(e.span)
	if !ok {
		// Element borders are always cut into the partition on insert,
		// but be defensive: locate by content offsets.
		first = e.doc.part.LeafAt(e.span.Start)
		last = e.doc.part.LeafAt(e.span.End-1) + 1
	}
	return first, last
}

// Leaves returns the leaves the element dominates, in content order.
func (e *Element) Leaves() []Leaf {
	first, last := e.LeafRange()
	out := make([]Leaf, 0, last-first)
	for i := first; i < last; i++ {
		out = append(out, Leaf{doc: e.doc, idx: i})
	}
	return out
}

// String formats the element as hierarchy:name[span].
func (e *Element) String() string {
	return fmt.Sprintf("%s:%s%v", e.hier.name, e.name, e.span)
}

// childNodes interleaves the child elements of one span with the
// uncovered leaves inside it, in document order.
func childNodes(d *Document, span document.Span, children []*Element) []Node {
	var out []Node
	pos := span.Start
	emit := func(to int) {
		// Leaves covering [pos, to).
		for pos < to {
			leaf := d.LeafAt(pos)
			out = append(out, leaf)
			pos = leaf.Span().End
		}
	}
	for _, c := range children {
		emit(c.span.Start)
		out = append(out, c)
		if c.span.End > pos {
			pos = c.span.End
		}
	}
	emit(span.End)
	return out
}

// SerialOrder reorders nodes, a Children list, in place into the order
// XML writes them. Document order puts an empty element after a wider
// sibling with the same start, but XML must write it before that
// sibling's start tag to keep its position.
func SerialOrder(nodes []Node) []Node {
	for i := 1; i < len(nodes); i++ {
		e, ok := nodes[i].(*Element)
		if !ok || !e.span.IsEmpty() {
			continue
		}
		// The wider sibling moves right one empty element at a time.
		if w, ok := nodes[i-1].(*Element); ok && !w.span.IsEmpty() && w.span.Start == e.span.Start {
			nodes[i-1], nodes[i] = e, w
		}
	}
	return nodes
}

// ErrConflict is returned (wrapped) when an insertion would make two
// elements of the *same* hierarchy overlap, which would break the
// hierarchy's tree structure. Overlap across hierarchies is the normal
// case and always allowed.
type ConflictError struct {
	Hierarchy string
	Tag       string
	Span      document.Span
	With      *Element
}

// Error implements the error interface.
func (e *ConflictError) Error() string {
	return fmt.Sprintf("goddag: <%s>%v overlaps <%s>%v within hierarchy %q",
		e.Tag, e.Span, e.With.name, e.With.span, e.Hierarchy)
}

// ProbeInsert reports, without mutating the document, how inserting an
// element over span into hierarchy h would restructure h's tree: the
// element that would become the parent (nil when the parent is the shared
// root) and the existing elements that would be adopted as children. It
// returns a *ConflictError when the span properly overlaps an element of
// h. tag is used only for error reporting.
func (d *Document) ProbeInsert(h *Hierarchy, tag string, span document.Span) (parent *Element, adopted []*Element, err error) {
	d.ensure()
	if h == nil || h.doc != d {
		return nil, nil, fmt.Errorf("goddag: hierarchy does not belong to this document")
	}
	if !span.Valid() || span.End > d.content.Len() {
		return nil, nil, fmt.Errorf("goddag: span %v out of content range [0,%d]", span, d.content.Len())
	}
	if !d.content.IsRuneBoundary(span.Start) || !d.content.IsRuneBoundary(span.End) {
		return nil, nil, fmt.Errorf("goddag: span %v does not lie on rune boundaries", span)
	}
	parent, siblings := h.locate(span)
	// Siblings are sorted by start and mutually non-overlapping, so the
	// elements inside span form a contiguous run; only the sibling
	// reaching across span.Start (at most one non-empty) and the run's
	// members need testing.
	lo := sort.Search(len(siblings), func(i int) bool { return siblings[i].span.Start >= span.Start })
	// Walk back over empty elements at span.Start to the last sibling
	// that could cross into span from the left.
	for j := lo - 1; j >= 0; j-- {
		s := siblings[j]
		if s.span.IsEmpty() {
			continue
		}
		if s.span.Overlaps(span) {
			return nil, nil, &ConflictError{Hierarchy: h.name, Tag: tag, Span: span, With: s}
		}
		break
	}
	for j := lo; j < len(siblings); j++ {
		s := siblings[j]
		if s.span.Start > span.End {
			break
		}
		switch {
		case span.ContainsSpan(s.span):
			// Includes the equal-span case: the new element wraps the
			// existing one.
			adopted = append(adopted, s)
		case s.span.Overlaps(span):
			return nil, nil, &ConflictError{Hierarchy: h.name, Tag: tag, Span: span, With: s}
		default:
			// Empty sibling at the border, or a container locate chose
			// not to descend into.
		}
	}
	return parent, adopted, nil
}

// InsertElement adds an element with the given tag and attributes over
// span to hierarchy h. The span's borders become leaf boundaries. The
// element is placed at the innermost position of h's tree that contains
// the span; existing elements of h that lie inside the span become its
// children. Inserting a span that properly overlaps an element of the
// same hierarchy returns a *ConflictError.
func (d *Document) InsertElement(h *Hierarchy, tag string, attrs []Attr, span document.Span) (*Element, error) {
	if tag == "" {
		return nil, fmt.Errorf("goddag: empty element tag")
	}
	d.prepareMutate()
	parent, adopted, err := d.ProbeInsert(h, tag, span)
	if err != nil {
		return nil, err
	}
	adoptedSet := make(map[*Element]bool, len(adopted))
	for _, a := range adopted {
		adoptedSet[a] = true
	}
	var siblings []*Element
	if parent == nil {
		siblings = h.top
	} else {
		siblings = parent.children
	}
	kept := make([]*Element, 0, len(siblings)-len(adopted))
	for _, s := range siblings {
		if !adoptedSet[s] {
			kept = append(kept, s)
		}
	}

	el := &Element{doc: d, hier: h, name: tag, attrs: append([]Attr(nil), attrs...), span: span, seq: d.seq}
	d.seq++

	// Establish leaf boundaries at the span borders, remembering — for the
	// incremental index repair — the first leaf a cut changed and the
	// first leaf sorting after the new element, both in pre-cut numbering.
	leafAfter := d.leafAfterSpan(span)
	firstLeaf := d.cutSpanBorders(span)

	// Adopt children.
	for _, c := range adopted {
		c.parent = el
	}
	sortElements(adopted)
	el.children = adopted

	// Splice into parent's child list. Bulk loaders (sacx.Build) insert
	// in document order, so appending at the end with no adoption is the
	// common case; it avoids the per-insert copy and sort.
	el.parent = parent
	if len(adopted) == 0 {
		list := h.top
		if parent != nil {
			list = parent.children
		}
		if len(list) == 0 || elementLess(list[len(list)-1], el) {
			list = append(list, el)
			if parent == nil {
				h.top = list
			} else {
				parent.children = list
			}
			h.n++
			d.finishInsert(el, adopted, firstLeaf, leafAfter)
			return el, nil
		}
	}
	merged := make([]*Element, 0, len(kept)+1)
	merged = append(merged, kept...)
	merged = append(merged, el)
	sortElements(merged)
	if parent == nil {
		h.top = merged
	} else {
		parent.children = merged
	}
	h.n++
	d.finishInsert(el, adopted, firstLeaf, leafAfter)
	return el, nil
}

// elementLess is the document-order comparison used by sortElements.
func elementLess(a, b *Element) bool {
	c := document.CompareSpans(a.span, b.span)
	if c != 0 {
		return c < 0
	}
	return a.seq < b.seq
}

// locate finds the insertion point for span in hierarchy h: the innermost
// element strictly containing span (nil for the root) and the candidate
// sibling list at that level.
//
// At each level the container, if any, is found by binary search: the
// siblings are sorted by start and non-empty siblings are disjoint, so
// the only non-empty candidate is the last sibling starting at or before
// span.Start (skipping empty milestones parked at the same start).
func (h *Hierarchy) locate(span document.Span) (parent *Element, siblings []*Element) {
	siblings = h.top
	for {
		var next *Element
		i := sort.Search(len(siblings), func(i int) bool { return siblings[i].span.Start > span.Start })
		for j := i - 1; j >= 0; j-- {
			c := siblings[j]
			if strictlyContains(c.span, span) {
				next = c
				break
			}
			if !c.span.IsEmpty() {
				// A non-empty non-container here means nothing earlier
				// can contain span either (disjointness).
				break
			}
		}
		if next == nil {
			return parent, siblings
		}
		parent = next
		siblings = next.children
	}
}

// strictlyContains reports whether outer should absorb a new element with
// span inner as a descendant: outer contains inner and is not identical.
// For empty inner spans, a position strictly inside outer counts, as does
// the border of a *non-empty* outer only when inner is empty and outer
// is not (milestone at the edge of an element stays outside: we require
// strict interior for empties to keep placement unambiguous).
func strictlyContains(outer, inner document.Span) bool {
	if inner.IsEmpty() {
		return outer.Start < inner.Start && inner.Start < outer.End
	}
	return outer.ContainsSpan(inner) && outer != inner
}

// RemoveElement deletes el from its hierarchy; its children are adopted by
// its parent. Leaf boundaries are left in place (other hierarchies may
// depend on them); call Compact to merge unused boundaries.
func (d *Document) RemoveElement(el *Element) error {
	if el == nil || el.doc != d {
		return fmt.Errorf("goddag: element does not belong to this document")
	}
	d.prepareMutate()
	h := el.hier
	var list []*Element
	if el.parent == nil {
		list = h.top
	} else {
		list = el.parent.children
	}
	idx := -1
	for i, e := range list {
		if e == el {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("goddag: element %v not found in its parent's children", el)
	}
	merged := make([]*Element, 0, len(list)-1+len(el.children))
	merged = append(merged, list[:idx]...)
	merged = append(merged, el.children...)
	merged = append(merged, list[idx+1:]...)
	// When hoisting el's children in place keeps the sibling list in
	// document order (the overwhelmingly common case), the hierarchy's
	// pre-order is exactly the old one minus el and the index repair can
	// splice. A milestone sibling at el's border can interleave with the
	// hoisted children; then the list is re-sorted and repair falls back
	// to a rebuild.
	ordered := true
	for i := 1; i < len(merged); i++ {
		if elementLess(merged[i], merged[i-1]) {
			ordered = false
			break
		}
	}
	for _, c := range el.children {
		c.parent = el.parent
	}
	if !ordered {
		sortElements(merged)
	}
	if el.parent == nil {
		h.top = merged
	} else {
		el.parent.children = merged
	}
	h.n--
	// Repair (or invalidate) the derived indexes while el's parent link is
	// still intact — the pre-order repair walks the ancestor chain.
	d.finishRemove(el, ordered)
	el.parent = nil
	el.children = nil
	return nil
}

// Compact merges leaf boundaries that no element of any hierarchy uses as
// a border, restoring the minimal partition ("borders are given by markup
// positions", paper §3). It returns the number of boundaries removed.
func (d *Document) Compact() int {
	d.prepareMutate()
	used := map[int]bool{0: true, d.content.Len(): true}
	for _, h := range d.hiers {
		for _, e := range h.Elements() {
			used[e.span.Start] = true
			used[e.span.End] = true
		}
	}
	removed := 0
	for _, b := range d.part.Boundaries() {
		if !used[b] && d.part.MergeAt(b) {
			removed++
		}
	}
	d.bump()
	return removed
}

// innermostCovering returns the innermost element of h whose span contains
// the given (non-empty) span, or nil.
func (h *Hierarchy) innermostCovering(span document.Span) *Element {
	h.doc.ensure()
	var found *Element
	list := h.top
	for {
		var next *Element
		for _, c := range list {
			if c.span.ContainsSpan(span) && !c.span.IsEmpty() {
				next = c
				break
			}
		}
		if next == nil {
			return found
		}
		found = next
		list = next.children
	}
}

// CoveringElements returns, innermost-last, the chain of elements of h
// containing span.
func (h *Hierarchy) CoveringElements(span document.Span) []*Element {
	h.doc.ensure()
	var out []*Element
	list := h.top
	for {
		var next *Element
		for _, c := range list {
			if c.span.ContainsSpan(span) && !c.span.IsEmpty() {
				next = c
				break
			}
		}
		if next == nil {
			return out
		}
		out = append(out, next)
		list = next.children
	}
}

// ElementsIntersecting returns all elements of the document whose spans
// intersect the given span, in document order, served by the interval
// index in O(log n + answers).
func (d *Document) ElementsIntersecting(span document.Span) []*Element {
	var out []*Element
	d.index().visitIntersecting(span, func(e *Element) bool {
		if e.span.Intersects(span) {
			out = append(out, e)
		}
		return true
	})
	return out
}

// ElementsOverlapping returns all elements whose spans *properly* overlap
// the given span (intersect without containment either way), in document
// order. This powers the Extended XPath overlapping axis; candidates come
// from the interval index in O(log n + candidates).
func (d *Document) ElementsOverlapping(span document.Span) []*Element {
	var out []*Element
	d.index().visitIntersecting(span, func(e *Element) bool {
		if e.span.Overlaps(span) {
			out = append(out, e)
		}
		return true
	})
	return out
}

// resort re-sorts every level of hierarchy h; used after span updates by
// the text-editing operations.
func (h *Hierarchy) resort() {
	sortElements(h.top)
	var walk func(es []*Element)
	walk = func(es []*Element) {
		for _, e := range es {
			sortElements(e.children)
			walk(e.children)
		}
	}
	walk(h.top)
}

// InsertText inserts text at byte offset pos, shifting leaf boundaries and
// element spans. The insertion binds left, matching
// document.Partition.InsertText: elements whose span strictly contains pos
// grow, an element ending exactly at pos absorbs the text (grows), and an
// element starting exactly at pos moves right. Exception at pos == 0:
// the text binds right, so elements starting at 0 absorb it.
func (d *Document) InsertText(pos int, text string) error {
	d.prepareMutate()
	if pos < 0 || pos > d.content.Len() {
		return fmt.Errorf("goddag: insert offset %d out of range [0,%d]", pos, d.content.Len())
	}
	if !d.content.IsRuneBoundary(pos) {
		return fmt.Errorf("goddag: insert offset %d is not a rune boundary", pos)
	}
	n := len(text)
	if n == 0 {
		return nil
	}
	d.content.Insert(pos, text)
	d.part.InsertText(pos, n)
	for _, h := range d.hiers {
		var walk func(es []*Element)
		walk = func(es []*Element) {
			for _, e := range es {
				e.span = adjustForInsert(e.span, pos, n)
				walk(e.children)
			}
		}
		walk(h.top)
		h.resort()
	}
	d.bump()
	return nil
}

// adjustForInsert shifts a span for an insertion of n bytes at pos.
// Rules (mirroring Partition.InsertText): an offset strictly greater than
// pos shifts; an offset equal to pos shifts unless it is 0. The element
// ending at pos therefore grows over the new text, and the element
// starting at pos moves past it.
func adjustForInsert(s document.Span, pos, n int) document.Span {
	if s.Start > pos || (s.Start == pos && pos != 0) {
		s.Start += n
	}
	if s.End > pos || (s.End == pos && pos != 0) {
		s.End += n
	}
	return s
}

// DeleteText removes the content covered by span, shrinking or emptying
// element spans that intersect it. Elements reduced to empty spans remain
// as milestones.
func (d *Document) DeleteText(span document.Span) error {
	d.prepareMutate()
	if !span.Valid() || span.End > d.content.Len() {
		return fmt.Errorf("goddag: delete span %v out of range [0,%d]", span, d.content.Len())
	}
	if !d.content.IsRuneBoundary(span.Start) || !d.content.IsRuneBoundary(span.End) {
		return fmt.Errorf("goddag: delete span %v does not lie on rune boundaries", span)
	}
	n := span.Len()
	if n == 0 {
		return nil
	}
	d.content.Delete(span)
	d.part.DeleteRange(span)
	for _, h := range d.hiers {
		var walk func(es []*Element)
		walk = func(es []*Element) {
			for _, e := range es {
				e.span = adjustForDelete(e.span, span)
				walk(e.children)
			}
		}
		walk(h.top)
		h.resort()
	}
	d.bump()
	return nil
}

// adjustForDelete shrinks a span for the deletion of del.
func adjustForDelete(s document.Span, del document.Span) document.Span {
	n := del.Len()
	adj := func(x int) int {
		switch {
		case x <= del.Start:
			return x
		case x >= del.End:
			return x - n
		default:
			return del.Start
		}
	}
	return document.Span{Start: adj(s.Start), End: adj(s.End)}
}

// Check verifies all GODDAG invariants and returns the first violation:
//
//   - leaf partition is a tiling of the content (document.Partition.Check),
//   - element borders are leaf boundaries,
//   - within each hierarchy, children nest strictly inside parents, are
//     sorted in document order, and siblings do not properly overlap,
//   - element counts are consistent.
func (d *Document) Check() error {
	d.ensure()
	if err := d.part.Check(); err != nil {
		return err
	}
	if d.part.Len() != d.content.Len() {
		return fmt.Errorf("goddag: partition length %d != content length %d", d.part.Len(), d.content.Len())
	}
	boundary := make(map[int]bool, d.part.NumLeaves()+1)
	for _, b := range d.part.Boundaries() {
		boundary[b] = true
	}
	boundary[d.content.Len()] = true
	boundary[0] = true
	for _, h := range d.Hierarchies() {
		count := 0
		var walk func(parent *Element, es []*Element, bound document.Span) error
		walk = func(parent *Element, es []*Element, bound document.Span) error {
			for i, e := range es {
				count++
				if e.hier != h {
					return fmt.Errorf("goddag: %v filed under hierarchy %q", e, h.name)
				}
				if e.parent != parent {
					return fmt.Errorf("goddag: %v has wrong parent", e)
				}
				if !e.span.Valid() || e.span.End > d.content.Len() {
					return fmt.Errorf("goddag: %v span out of range", e)
				}
				if !bound.ContainsSpan(e.span) {
					return fmt.Errorf("goddag: %v escapes parent span %v", e, bound)
				}
				if !e.span.IsEmpty() && (!boundary[e.span.Start] || !boundary[e.span.End]) {
					return fmt.Errorf("goddag: %v borders are not leaf boundaries", e)
				}
				if i > 0 {
					prev := es[i-1]
					if document.CompareSpans(prev.span, e.span) > 0 {
						return fmt.Errorf("goddag: children out of order: %v before %v", prev, e)
					}
					if prev.span.Overlaps(e.span) {
						return fmt.Errorf("goddag: siblings overlap: %v and %v", prev, e)
					}
				}
				if err := walk(e, e.children, e.span); err != nil {
					return err
				}
			}
			return nil
		}
		if err := walk(nil, h.top, document.NewSpan(0, d.content.Len())); err != nil {
			return err
		}
		if count != h.n {
			return fmt.Errorf("goddag: hierarchy %q count %d != recorded %d", h.name, count, h.n)
		}
	}
	return nil
}

// Stats summarizes a document for display and benchmarking.
type Stats struct {
	ContentLen  int
	Leaves      int
	Hierarchies int
	Elements    int
	MaxDepth    int
}

// Stats computes summary statistics.
func (d *Document) Stats() Stats {
	d.ensure()
	s := Stats{
		ContentLen:  d.content.Len(),
		Leaves:      d.part.NumLeaves(),
		Hierarchies: len(d.hiers),
	}
	for _, h := range d.hiers {
		s.Elements += h.n
		var depth func(es []*Element, dep int)
		depth = func(es []*Element, dep int) {
			for _, e := range es {
				if dep > s.MaxDepth {
					s.MaxDepth = dep
				}
				depth(e.children, dep+1)
			}
		}
		depth(h.top, 1)
	}
	return s
}
