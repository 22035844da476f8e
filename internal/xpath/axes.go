package xpath

import (
	"sort"

	"repro/internal/document"
	"repro/internal/goddag"
)

// axisNodes materializes one axis from one context node, following the
// GODDAG re-definition of XPath axes (paper §4):
//
//   - child/descendant follow the context element's *own* hierarchy tree,
//     with shared leaves as text children; from the root they fan out
//     into every hierarchy.
//   - parent of a leaf is multi-valued: one parent per hierarchy. This is
//     how a query hops from one hierarchy to another ("navigation from
//     one structure to another is done through root node or leaf nodes",
//     paper §3).
//   - following/preceding are defined by content extent: nodes whose span
//     lies entirely after (before) the context span, across hierarchies.
//   - the overlapping/covering/covered axes compare content spans across
//     hierarchies.
//
// Enumeration leans on the document's ordinal numbering: descendants are
// an O(1) pre-order slice merged with the dominated leaf range by integer
// ordinal, the leaf halves of following/preceding are located by binary
// search instead of full-leaf scans, and visited sets are ordinal bitsets
// instead of maps.
func (ev *evaluator) axisNodes(a Axis, n goddag.Node) []goddag.Node {
	doc := ev.doc
	switch a {
	case AxisSelf:
		return []goddag.Node{n}

	case AxisChild:
		return ev.childrenOf(n)

	case AxisDescendant, AxisDescendantOrSelf:
		// Descendants of a node are exactly its subtree elements plus
		// the leaves it dominates; both lists are available pre-sorted
		// (the subtree as a precomputed pre-order slice), so an ordinal
		// merge avoids the recursive walk (which would revisit shared
		// leaves once per hierarchy and need dedup).
		ord := ev.ordinals()
		var els []*goddag.Element
		var firstLeaf, lastLeaf int
		switch v := n.(type) {
		case *goddag.Root:
			els = doc.Elements()
			firstLeaf, lastLeaf = 0, doc.NumLeaves()
		case *goddag.Element:
			els = ord.Subtree(v)
			firstLeaf, lastLeaf = v.LeafRange()
		default:
			if a == AxisDescendantOrSelf {
				return []goddag.Node{n}
			}
			return nil
		}
		out := make([]goddag.Node, 0, len(els)+(lastLeaf-firstLeaf)+1)
		if a == AxisDescendantOrSelf {
			out = append(out, n)
		}
		i, j := 0, firstLeaf
		for i < len(els) && j < lastLeaf {
			if ord.OfElement(els[i]) < ord.OfLeaf(j) {
				out = append(out, els[i])
				i++
			} else {
				out = append(out, doc.Leaf(j))
				j++
			}
		}
		for ; i < len(els); i++ {
			out = append(out, els[i])
		}
		for ; j < lastLeaf; j++ {
			out = append(out, doc.Leaf(j))
		}
		return out

	case AxisParent:
		return parentsOf(doc, n)

	case AxisAncestor, AxisAncestorOrSelf:
		var out []goddag.Node
		if a == AxisAncestorOrSelf {
			out = append(out, n)
		}
		ord := ev.ordinals()
		seen := ev.acquireSeen()
		var up func(m goddag.Node)
		up = func(m goddag.Node) {
			for _, p := range parentsOf(doc, m) {
				if !seen.add(ord.Of(p)) {
					continue
				}
				out = append(out, p)
				up(p)
			}
		}
		up(n)
		seen.reset()
		return out

	case AxisFollowingSibling, AxisPrecedingSibling:
		el, ok := n.(*goddag.Element)
		if !ok {
			return nil // sibling axes are defined for elements only
		}
		var sibs []goddag.Node
		switch p := el.Parent().(type) {
		case *goddag.Element:
			sibs = p.Children()
		case *goddag.Root:
			sibs = p.Children(el.Hierarchy())
		}
		// The sibling list is in document order, so the context's slot is
		// found by ordinal binary search instead of a linear identity scan.
		ord := ev.ordinals()
		target := ord.OfElement(el)
		idx := sort.Search(len(sibs), func(i int) bool { return ord.Of(sibs[i]) >= target })
		if idx >= len(sibs) || ord.Of(sibs[idx]) != target {
			return nil
		}
		if a == AxisFollowingSibling {
			return sibs[idx+1:]
		}
		rev := make([]goddag.Node, 0, idx)
		for i := idx - 1; i >= 0; i-- {
			rev = append(rev, sibs[i])
		}
		return rev

	case AxisFollowing, AxisPreceding:
		sp := n.Span()
		var out []goddag.Node
		els := doc.Elements()
		if a == AxisFollowing {
			// Elements are sorted by start offset: everything following
			// begins at or after sp.End.
			i := sort.Search(len(els), func(i int) bool { return els[i].Span().Start >= sp.End })
			for _, e := range els[i:] {
				if !goddag.NodesEqual(e, n) && spanAfter(e.Span(), sp) {
					out = append(out, e)
				}
			}
			// Following leaves: the suffix starting at the first leaf not
			// preceding sp (leaves are non-empty, so spanAfter reduces to a
			// start-offset bound).
			bound := sp.End
			if sp.IsEmpty() {
				bound = sp.Start + 1 // strict: a leaf at sp's position does not follow it
			}
			nl := doc.NumLeaves()
			part := doc.Partition()
			j := sort.Search(nl, func(i int) bool { return part.LeafSpan(i).Start >= bound })
			for ; j < nl; j++ {
				out = append(out, doc.Leaf(j))
			}
		} else {
			for _, e := range els {
				if e.Span().Start >= sp.Start && !e.Span().IsEmpty() {
					break // can no longer end before sp begins
				}
				if !goddag.NodesEqual(e, n) && spanAfter(sp, e.Span()) {
					out = append(out, e)
				}
			}
			// Preceding leaves: the prefix ending before sp.Start.
			nl := doc.NumLeaves()
			part := doc.Partition()
			last := sort.Search(nl, func(i int) bool { return part.LeafSpan(i).End > sp.Start })
			for j := 0; j < last; j++ {
				out = append(out, doc.Leaf(j))
			}
		}
		return out

	case AxisOverlapping:
		return ev.overlapAxis(n, overlapAny)
	case AxisOverlappingLeft:
		return ev.overlapAxis(n, overlapLeft)
	case AxisOverlappingRight:
		return ev.overlapAxis(n, overlapRight)

	case AxisCovering:
		sp := n.Span()
		var out []goddag.Node
		if !sp.IsEmpty() {
			// Containment implies intersection, so the interval index
			// supplies the candidates in O(log n + candidates).
			for _, e := range doc.ElementsIntersecting(sp) {
				if !goddag.NodesEqual(e, n) && e.Span().ContainsSpan(sp) {
					out = append(out, e)
				}
			}
			return out
		}
		for _, e := range doc.Elements() {
			if e.Span().Start > sp.Start {
				break // a container must start at or before sp
			}
			if goddag.NodesEqual(e, n) {
				continue
			}
			if e.Span().ContainsSpan(sp) && !e.Span().IsEmpty() {
				out = append(out, e)
			}
		}
		return out

	case AxisCovered:
		sp := n.Span()
		ord := ev.ordinals()
		// Non-empty covered elements intersect sp, so the interval index
		// supplies those candidates; milestones (whose spans never
		// intersect anything) come from the document's empty-element list,
		// merged in by ordinal to preserve document order.
		empties := ord.EmptyElements()
		ei := sort.Search(len(empties), func(i int) bool { return empties[i].Span().Start >= sp.Start })
		var out []goddag.Node
		emitEmpties := func(upto int) { // empties whose ordinal precedes upto
			for ei < len(empties) && empties[ei].Span().Start <= sp.End &&
				(upto < 0 || ord.OfElement(empties[ei]) < upto) {
				e := empties[ei]
				if !goddag.NodesEqual(e, n) && sp.ContainsSpan(e.Span()) {
					out = append(out, e)
				}
				ei++
			}
		}
		for _, e := range doc.ElementsIntersecting(sp) {
			if !sp.ContainsSpan(e.Span()) {
				continue
			}
			emitEmpties(ord.OfElement(e))
			if !goddag.NodesEqual(e, n) {
				out = append(out, e)
			}
		}
		emitEmpties(-1)
		// Covered leaves: the contiguous run fully inside sp.
		nl := doc.NumLeaves()
		part := doc.Partition()
		first := sort.Search(nl, func(i int) bool { return part.LeafSpan(i).Start >= sp.Start })
		for j := first; j < nl; j++ {
			ls := part.LeafSpan(j)
			if ls.End > sp.End {
				break
			}
			out = append(out, doc.Leaf(j))
		}
		return out

	default:
		return nil
	}
}

// childrenOf returns a node's children in document order: per-hierarchy
// for elements, the union over hierarchies for the root (shared leaves
// deduplicated by the ordinal merge), nothing for leaves.
func (ev *evaluator) childrenOf(n goddag.Node) []goddag.Node {
	doc := ev.doc
	switch v := n.(type) {
	case *goddag.Element:
		return v.Children()
	case *goddag.Root:
		hiers := doc.Hierarchies()
		if len(hiers) == 0 {
			out := make([]goddag.Node, 0, doc.NumLeaves())
			for _, l := range doc.Leaves() {
				out = append(out, l)
			}
			return out
		}
		// Each hierarchy's child list is already in document order; the
		// cross-hierarchy union is a k-way merge (leaves shared between
		// hierarchies collapse on equal ordinals).
		lists := make([][]goddag.Node, 0, len(hiers))
		for _, h := range hiers {
			if c := v.Children(h); len(c) != 0 {
				lists = append(lists, c)
			}
		}
		return ev.mergeLists(lists)
	default:
		return nil
	}
}

// parentsOf returns a node's parents: the single tree parent for an
// element, one parent per hierarchy for a leaf, none for the root.
func parentsOf(doc *goddag.Document, n goddag.Node) []goddag.Node {
	switch v := n.(type) {
	case *goddag.Element:
		return []goddag.Node{v.Parent()}
	case goddag.Leaf:
		if len(doc.Hierarchies()) == 0 {
			return []goddag.Node{doc.Root()}
		}
		return v.Parents()
	default:
		return nil
	}
}

// spanAfter reports whether a lies entirely after b, with empty spans
// ordered by position.
func spanAfter(a, b document.Span) bool {
	if a.IsEmpty() || b.IsEmpty() {
		return a.Start >= b.End && a.Start >= b.Start && (a.Start > b.Start || a.Start > b.End)
	}
	return a.Start >= b.End
}

type overlapDir int

const (
	overlapAny overlapDir = iota
	overlapLeft
	overlapRight
)

// overlapAxis finds elements properly overlapping the context node's span.
// The production implementation compares spans (O(1) per candidate, D3);
// under Options.Reference it instead walks the GODDAG through shared
// leaves, which visits only connected markup but pays pointer-chasing
// costs — the reference algorithm and the A2 ablation baseline.
func (ev *evaluator) overlapAxis(n goddag.Node, dir overlapDir) []goddag.Node {
	sp := n.Span()
	match := func(es document.Span) bool {
		switch dir {
		case overlapLeft:
			return es.OverlapsLeft(sp)
		case overlapRight:
			return es.OverlapsRight(sp)
		default:
			return es.Overlaps(sp)
		}
	}
	if !ev.opts.Reference {
		// ElementsOverlapping serves candidates from the interval index
		// with early termination; directional variants are subsets of it.
		var out []goddag.Node
		for _, e := range ev.doc.ElementsOverlapping(sp) {
			if match(e.Span()) {
				out = append(out, e)
			}
		}
		return out
	}
	// Graph-walk variant: an element overlapping sp must dominate at
	// least one leaf inside sp, so walk sp's leaves, climb to each
	// parent chain, and test.
	if sp.IsEmpty() {
		return nil
	}
	ord := ev.ordinals()
	seen := ev.acquireSeen()
	var out []goddag.Node
	doc := ev.doc
	for pos := sp.Start; pos < sp.End; {
		leaf := doc.LeafAt(pos)
		for _, h := range doc.Hierarchies() {
			node := leaf.Parent(h)
			for {
				el, ok := node.(*goddag.Element)
				if !ok {
					break
				}
				if seen.add(ord.OfElement(el)) {
					if match(el.Span()) {
						out = append(out, el)
					}
				}
				node = el.Parent()
			}
		}
		pos = leaf.Span().End
	}
	seen.reset()
	return ev.dedupSort(out)
}
