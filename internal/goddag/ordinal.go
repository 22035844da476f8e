package goddag

import "repro/internal/document"

// Ordinals is the dense document-order numbering of a document's nodes:
// the root is ordinal 0, and every element and leaf receives the ordinal
// of its position in the total order defined by CompareNodes. Node
// identity, equality, and document-order comparison thereby become plain
// integer operations — the numbering scheme that overlap-aware query
// processing needs (cf. the "indexing" direction the paper lists as
// ongoing work). The Extended XPath evaluator keys all of its node-set
// algebra (dedup bitsets, k-way merges, union) on these ordinals.
//
// Alongside the numbering, the same rebuild records for every element its
// half-open pre-order interval [preIdx, preEnd) within its hierarchy, so
// subtree enumeration (the descendant axis) is an O(1) slice of the
// hierarchy's pre-order array and ancestor/descendant tests are O(1)
// interval containment.
//
// An Ordinals is part of the document's index snapshot (see
// indexesLocked): it is rebuilt with the rest of the snapshot after a
// structural mutation and stays internally consistent for as long as the
// document is not mutated. See the package comment in goddag.go for the
// concurrency contract.
type Ordinals struct {
	doc     *Document
	els     []*Element // the document's element cache, document order
	leafOrd []int32    // leaf index -> ordinal
	// byOrd decodes an ordinal back to its node: entry 0 is the root; a
	// positive value v is element els[v-1]; a negative value v is leaf
	// index -v-1.
	byOrd []int32
	empty []*Element // empty elements (milestones), document order
}

// Ordinals returns the document's ordinal numbering from the index
// snapshot.
func (d *Document) Ordinals() *Ordinals {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.indexesLocked()
	return d.ordIdx
}

// buildOrdinals numbers the document-ordered elements els and the leaves
// in one merge; ties follow CompareNodes, which puts the element first.
func (d *Document) buildOrdinals(els []*Element) *Ordinals {
	nl := d.part.NumLeaves()
	o := &Ordinals{
		doc:     d,
		els:     els,
		leafOrd: make([]int32, nl),
		byOrd:   make([]int32, 1+len(els)+nl),
	}
	ord := int32(1)
	i, j := 0, 0
	for i < len(els) || j < nl {
		takeElem := j >= nl ||
			(i < len(els) && document.CompareSpans(els[i].span, d.part.LeafSpan(j)) <= 0)
		if takeElem {
			els[i].ord = ord
			o.byOrd[ord] = int32(i + 1)
			if els[i].span.IsEmpty() {
				o.empty = append(o.empty, els[i])
			}
			i++
		} else {
			o.leafOrd[j] = ord
			o.byOrd[ord] = int32(-(j + 1))
			j++
		}
		ord++
	}
	return o
}

// buildPreorder numbers h's pre-order subtree ranges. Within one
// hierarchy every level is kept sorted in document order, so the
// pre-order walk *is* document order and each subtree occupies one
// contiguous interval of it.
func buildPreorder(h *Hierarchy) {
	pre := h.pre[:0]
	if cap(pre) < h.n {
		pre = make([]*Element, 0, h.n)
	}
	var walk func(es []*Element)
	walk = func(es []*Element) {
		for _, e := range es {
			e.preIdx = int32(len(pre))
			pre = append(pre, e)
			walk(e.children)
			e.preEnd = int32(len(pre))
		}
	}
	walk(h.top)
	h.pre = pre
}

// Len returns the number of ordinals: one per node (root, elements,
// leaves). Valid ordinals are 0..Len()-1.
func (o *Ordinals) Len() int { return len(o.byOrd) }

// Of returns the node's ordinal.
func (o *Ordinals) Of(n Node) int {
	switch v := n.(type) {
	case *Element:
		return int(v.ord)
	case Leaf:
		return int(o.leafOrd[v.idx])
	default:
		return 0 // root
	}
}

// OfElement returns an element's ordinal without the interface dispatch.
func (o *Ordinals) OfElement(e *Element) int { return int(e.ord) }

// OfLeaf returns the ordinal of the i-th leaf.
func (o *Ordinals) OfLeaf(i int) int { return int(o.leafOrd[i]) }

// Node decodes an ordinal back into its node.
func (o *Ordinals) Node(ord int) Node {
	v := o.byOrd[ord]
	switch {
	case v > 0:
		return o.els[v-1]
	case v < 0:
		return Leaf{doc: o.doc, idx: int(-v - 1)}
	default:
		return o.doc.root
	}
}

// Subtree returns e's same-hierarchy proper descendants in document
// order, as a slice of the hierarchy's precomputed pre-order array.
// Callers must not modify the result.
func (o *Ordinals) Subtree(e *Element) []*Element {
	return e.hier.pre[e.preIdx+1 : e.preEnd]
}

// InSubtree reports in O(1) whether c is a proper descendant of e within
// e's hierarchy.
func (o *Ordinals) InSubtree(c, e *Element) bool {
	return c.hier == e.hier && e.preIdx < c.preIdx && c.preIdx < e.preEnd
}

// EmptyElements returns the document's empty elements (milestones) in
// document order. Callers must not modify the result. The span interval
// index never reports empty spans, so axes whose definitions include
// milestones (covered) merge this list with the index's candidates.
func (o *Ordinals) EmptyElements() []*Element { return o.empty }
