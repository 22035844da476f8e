// Package baseline implements the comparison system for experiment E4:
// answering overlap queries *without* the GODDAG, the way a practitioner
// must when concurrent markup is stored in a single XML document using
// TEI fragmentation or milestones (paper §2: with those encodings "the
// underlying semantics of the markup and the DOM tree semantics of the
// XML document will differ. In particular, this makes querying such XML
// documents a complicated task").
//
// It provides a classic DOM, and on top of it the two query plans the
// encodings force:
//
//   - fragment join: recover each logical element's text extent by
//     walking the DOM to accumulate character offsets and gluing chx-id
//     fragment chains, then join the two extent lists for overlap;
//   - milestone pairing: locate milestone start/end pairs by document
//     walk, reconstruct extents, then join.
//
// Both plans re-derive, at query time and per query, exactly the offset
// information the GODDAG maintains structurally — which is the source of
// the performance and complexity gap experiment E4 measures.
package baseline

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/xmlscan"
)

// NodeKind discriminates DOM node types.
type NodeKind int

// DOM node kinds.
const (
	KindElement NodeKind = iota
	KindText
)

// Node is a classic DOM node (element or text).
type Node struct {
	Kind     NodeKind
	Name     string // element name
	Attrs    []xmlscan.Attr
	Text     string // text content for KindText
	Parent   *Node
	Children []*Node
}

// Attr returns the value of the named attribute and whether it exists.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// ParseDOM parses an XML document into a DOM tree and returns its root
// element.
func ParseDOM(data []byte) (*Node, error) {
	sc := xmlscan.New(data, xmlscan.Options{CoalesceCDATA: true})
	var root *Node
	var stack []*Node
	var tok xmlscan.Token
	for {
		if err := sc.NextInto(&tok); err != nil {
			if err == io.EOF {
				break
			}
			return nil, err
		}
		switch tok.Kind {
		case xmlscan.KindStartElement:
			n := &Node{Kind: KindElement, Name: tok.Name, Attrs: tok.Attrs}
			if len(stack) > 0 {
				p := stack[len(stack)-1]
				n.Parent = p
				p.Children = append(p.Children, n)
			} else if root == nil {
				root = n
			}
			if !tok.SelfClosing {
				stack = append(stack, n)
			}
		case xmlscan.KindEndElement:
			stack = stack[:len(stack)-1]
		case xmlscan.KindText, xmlscan.KindCDATA:
			if tok.Text == "" || len(stack) == 0 {
				continue
			}
			p := stack[len(stack)-1]
			p.Children = append(p.Children, &Node{Kind: KindText, Text: tok.Text, Parent: p})
		}
	}
	if root == nil {
		return nil, fmt.Errorf("baseline: no root element")
	}
	return root, nil
}

// Walk visits every node in document order.
func Walk(n *Node, visit func(*Node)) {
	visit(n)
	for _, c := range n.Children {
		Walk(c, visit)
	}
}

// ElementsNamed returns all descendant elements with the given tag, in
// document order (the classic //tag query).
func ElementsNamed(root *Node, tag string) []*Node {
	var out []*Node
	Walk(root, func(n *Node) {
		if n.Kind == KindElement && n.Name == tag {
			out = append(out, n)
		}
	})
	return out
}

// TextContent concatenates the text beneath a node.
func TextContent(n *Node) string {
	var b strings.Builder
	Walk(n, func(m *Node) {
		if m.Kind == KindText {
			b.WriteString(m.Text)
		}
	})
	return b.String()
}

// Extent is a logical element's reconstructed content interval. Offsets
// are byte offsets into the decoded character content — the same
// coordinates as the GODDAG's spans, so extents compare directly against
// goddag element spans without any rune counting.
type Extent struct {
	Name  string
	Start int // content byte offset
	End   int
	Node  *Node // representative node (first fragment / start milestone)
}

// Pair is one overlap join result.
type Pair struct {
	A, B Extent
}

// properOverlap mirrors the GODDAG overlapping axis: intersect, neither
// contains the other.
func properOverlap(a, b Extent) bool {
	if a.Start >= b.End || b.Start >= a.End {
		return false
	}
	aInB := b.Start <= a.Start && a.End <= b.End
	bInA := a.Start <= b.Start && b.End <= a.End
	return !aInB && !bInA
}

// extents computes, via a full DOM walk with running character offset,
// the extent of every element named tag, gluing chx-id fragment chains.
// This is the expensive part of the fragment-join plan: the offsets exist
// nowhere in the DOM and must be recomputed per query.
func extents(root *Node, tag string) []Extent {
	type building struct {
		ext   Extent
		index int
	}
	chains := map[string]*building{} // chx-id -> accumulating extent
	var order []*building
	pos := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Kind == KindText {
			pos += len(n.Text)
			return
		}
		var start int
		match := n.Name == tag
		if match {
			start = pos
		}
		for _, c := range n.Children {
			walk(c)
		}
		if match {
			id, fragmented := n.Attr("chx-id")
			if !fragmented {
				b := &building{ext: Extent{Name: tag, Start: start, End: pos, Node: n}}
				order = append(order, b)
				return
			}
			if b, ok := chains[id]; ok {
				// Extend the chain.
				if pos > b.ext.End {
					b.ext.End = pos
				}
				if start < b.ext.Start {
					b.ext.Start = start
				}
			} else {
				b := &building{ext: Extent{Name: tag, Start: start, End: pos, Node: n}}
				chains[id] = b
				order = append(order, b)
			}
		}
	}
	walk(root)
	out := make([]Extent, len(order))
	for i, b := range order {
		out[i] = b.ext
	}
	return out
}

// OverlappingFragmentJoin answers "which tagA elements properly overlap
// which tagB elements" over a fragmentation-encoded document: reconstruct
// both extent lists (gluing fragments), then join.
func OverlappingFragmentJoin(root *Node, tagA, tagB string) []Pair {
	as := extents(root, tagA)
	bs := extents(root, tagB)
	return joinOverlaps(as, bs)
}

// milestoneExtents reconstructs extents of logical tag elements encoded
// as chx-s/chx-e milestone pairs, by document walk with running offset.
func milestoneExtents(root *Node, tag string) []Extent {
	open := map[string]*Extent{}
	var order []*Extent
	pos := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Kind == KindText {
			pos += len(n.Text)
			return
		}
		if n.Name == tag {
			if id, ok := n.Attr("chx-s"); ok {
				e := &Extent{Name: tag, Start: pos, End: -1, Node: n}
				open[id] = e
				order = append(order, e)
			} else if id, ok := n.Attr("chx-e"); ok {
				if e := open[id]; e != nil {
					e.End = pos
					delete(open, id)
				}
			} else {
				// Structural (dominant-hierarchy) element.
				start := pos
				for _, c := range n.Children {
					walk(c)
				}
				order = append(order, &Extent{Name: tag, Start: start, End: pos, Node: n})
				return
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	var out []Extent
	for _, e := range order {
		if e.End >= e.Start {
			out = append(out, *e)
		}
	}
	return out
}

// OverlappingMilestonePair answers the overlap query over a
// milestone-encoded document: pair up chx-s/chx-e milestones by document
// walk, then join extents.
func OverlappingMilestonePair(root *Node, tagA, tagB string) []Pair {
	as := milestoneExtents(root, tagA)
	bs := milestoneExtents(root, tagB)
	return joinOverlaps(as, bs)
}

// joinOverlaps is the pairwise overlap join; sorted-sweep over starts
// keeps it near-linear when overlaps are sparse.
func joinOverlaps(as, bs []Extent) []Pair {
	var out []Pair
	j := 0
	for _, a := range as {
		// Advance past b's that end before a starts.
		for j < len(bs) && bs[j].End <= a.Start {
			j++
		}
		for k := j; k < len(bs) && bs[k].Start < a.End; k++ {
			if properOverlap(a, bs[k]) {
				out = append(out, Pair{A: a, B: bs[k]})
			}
		}
	}
	return out
}

// CountDescendants returns the number of descendant elements named tag
// beneath each element named under (a representative structural query for
// the baseline).
func CountDescendants(root *Node, under, tag string) map[*Node]int {
	out := map[*Node]int{}
	for _, u := range ElementsNamed(root, under) {
		out[u] = len(ElementsNamed(u, tag))
	}
	return out
}
