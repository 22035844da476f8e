package sacx

import (
	"fmt"

	"repro/internal/goddag"
	"repro/internal/xmlscan"
)

// Build parses a distributed document into a GODDAG with no intermediate
// record list and no global sort: tokenizing each source (prepareSources)
// already yields that source's elements as complete spans in document
// order, so Build batch-cuts every leaf boundary and then k-way merges
// the per-source element lists — ordered by (position, widest end first,
// source) — straight into the GODDAG's bulk loader, which appends each
// element in O(1) amortized time.
//
// The document's element names and attribute values alias the sources'
// bytes; do not mutate any Source.Data while the document is in use.
func Build(sources []Source) (*goddag.Document, error) {
	return BuildWithOptions(sources, Options{})
}

// BuildWithOptions is Build with explicit stream options.
func BuildWithOptions(sources []Source, opts Options) (*goddag.Document, error) {
	rootTag, content, cursors, err := prepareSources(sources, opts, true)
	if err != nil {
		return nil, err
	}
	doc := goddag.New(rootTag, content)
	hiers := make([]*goddag.Hierarchy, len(cursors))
	elems, nattrs := 0, 0
	for i, c := range cursors {
		hiers[i] = doc.AddHierarchy(c.hier)
		elems += len(c.elems)
		nattrs += len(c.attrs)
	}

	// Batch-cut every markup border up front so the bulk loader can skip
	// its per-span cuts. Each source recorded its borders in token order
	// — already ascending — so the k lists merge into the partition in
	// O(B·k) comparisons with no sort at all.
	doc.Partition().CutAllSorted(mergeCuts(cursors))

	bulk := doc.BulkLoad()
	bulk.Grow(elems, nattrs)
	bulk.Precut()

	append1 := func(c *cursor) error {
		e := &c.elems[c.ei]
		c.ei++
		ev := &c.events[e.ev]
		var attrs []goddag.Attr
		if ev.attrHi > ev.attrLo {
			attrs = c.attrs[ev.attrLo:ev.attrHi:ev.attrHi]
		}
		if _, err := bulk.Append(hiers[c.idx], ev.name, attrs, e.span); err != nil {
			return fmt.Errorf("sacx: hierarchy %q: %w", c.hier, err)
		}
		return nil
	}

	switch {
	case len(cursors) == 1:
		// Single hierarchy: the per-source list is already the merge.
		c := cursors[0]
		for c.ei < len(c.elems) {
			if err := append1(c); err != nil {
				return nil, err
			}
		}
	case opts.Strategy == MergeRescan:
		// Ablation baseline: scan all heads per element.
		for {
			var best *cursor
			for _, c := range cursors {
				if c.ei >= len(c.elems) {
					continue
				}
				if best == nil || c.elemLess(best) {
					best = c
				}
			}
			if best == nil {
				break
			}
			if err := append1(best); err != nil {
				return nil, err
			}
		}
	default:
		h := newElemHeap(cursors)
		for {
			c := h.min()
			if c == nil {
				break
			}
			if err := append1(c); err != nil {
				return nil, err
			}
			h.step(c)
		}
	}
	return doc, nil
}

// mergeCuts merges the cursors' pre-sorted border position lists into
// one ascending slice (duplicates included; the partition dedups as it
// merges).
func mergeCuts(cursors []*cursor) []int {
	total := 0
	for _, c := range cursors {
		total += len(c.cuts)
	}
	out := make([]int, 0, total)
	if len(cursors) == 1 {
		for _, v := range cursors[0].cuts {
			out = append(out, int(v))
		}
		return out
	}
	pos := make([]int, len(cursors))
	for {
		best := -1
		var bv int32
		for i, c := range cursors {
			if pos[i] < len(c.cuts) && (best < 0 || c.cuts[pos[i]] < bv) {
				best, bv = i, c.cuts[pos[i]]
			}
		}
		if best < 0 {
			return out
		}
		pos[best]++
		out = append(out, int(bv))
	}
}

// elemLess orders cursors by their pending element records: document
// order (CompareSpans — position, then widest end first), then source
// order. This is the global insertion order the bulk loader consumes.
func (c *cursor) elemLess(o *cursor) bool {
	a, b := &c.elems[c.ei], &o.elems[o.ei]
	if a.span != b.span {
		return elemLess(a, b)
	}
	return c.idx < o.idx
}

// elemHeap is the k-way merge heap over per-source element lists. It is
// a hand-rolled binary heap (no interface boxing) keyed by elemLess;
// cursors store their slot in heapIdx.
type elemHeap struct {
	items []*cursor
}

func newElemHeap(cursors []*cursor) *elemHeap {
	h := &elemHeap{items: make([]*cursor, 0, len(cursors))}
	for _, c := range cursors {
		if c.ei < len(c.elems) {
			h.items = append(h.items, c)
		}
	}
	for i := range h.items {
		h.items[i].heapIdx = i
	}
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return h
}

// min returns the cursor with the least pending element, or nil.
func (h *elemHeap) min() *cursor {
	if len(h.items) == 0 {
		return nil
	}
	return h.items[0]
}

// step advances c past its delivered element and restores heap order,
// removing the cursor when its list is exhausted. c must be the heap
// minimum (the cursor min() just returned): both paths only sift down,
// which is sufficient only from the root slot. The vacated slot must
// be captured before the swap: swap rewrites c.heapIdx to the last
// index, and it is the cursor moved *into* c's old slot that needs the
// sift-down.
func (h *elemHeap) step(c *cursor) {
	if c.ei >= len(c.elems) {
		i := c.heapIdx
		last := len(h.items) - 1
		h.swap(i, last)
		h.items = h.items[:last]
		if i < last {
			h.down(i)
		}
		return
	}
	h.down(c.heapIdx)
}

func (h *elemHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].heapIdx = i
	h.items[j].heapIdx = j
}

func (h *elemHeap) down(i int) {
	n := len(h.items)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		least := l
		if r := l + 1; r < n && h.items[r].elemLess(h.items[l]) {
			least = r
		}
		if !h.items[least].elemLess(h.items[i]) {
			return
		}
		h.swap(i, least)
		i = least
	}
}

// Split serializes one hierarchy of a GODDAG back to a standalone XML
// document — the inverse of Build for a single hierarchy. It renders the
// shared root, the hierarchy's elements, and the full character content.
func Split(d *goddag.Document, hierarchy string) ([]byte, error) {
	h := d.Hierarchy(hierarchy)
	if h == nil {
		return nil, fmt.Errorf("sacx: unknown hierarchy %q", hierarchy)
	}
	var b []byte
	b = append(b, '<')
	b = append(b, d.RootTag()...)
	b = append(b, '>')
	b = appendNodes(b, d.Root().Children(h))
	b = append(b, '<', '/')
	b = append(b, d.RootTag()...)
	b = append(b, '>')
	return b, nil
}

func appendNodes(b []byte, nodes []goddag.Node) []byte {
	for _, n := range goddag.SerialOrder(nodes) {
		switch v := n.(type) {
		case *goddag.Element:
			b = append(b, '<')
			b = append(b, v.Name()...)
			for _, a := range v.Attrs() {
				b = append(b, ' ')
				b = append(b, a.Name...)
				b = append(b, '=', '"')
				b = append(b, xmlscan.EscapeAttr(a.Value)...)
				b = append(b, '"')
			}
			if v.IsEmpty() && len(v.ChildElements()) == 0 {
				b = append(b, '/', '>')
				continue
			}
			b = append(b, '>')
			b = appendNodes(b, v.Children())
			b = append(b, '<', '/')
			b = append(b, v.Name()...)
			b = append(b, '>')
		case goddag.Leaf:
			b = append(b, xmlscan.EscapeText(v.Text())...)
		}
	}
	return b
}
