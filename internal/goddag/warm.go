package goddag

import "unsafe"

// Warm eagerly builds the document's index snapshot: the cross-hierarchy
// element list, the span interval index, the ordinal numbering with its
// per-hierarchy pre-order arrays, and the name buckets. A freshly parsed
// (or decoded) document otherwise pays the rebuild on the first query
// that needs it — and, because the rebuild serializes on the document
// mutex, the first wave of concurrent queries against a cold document
// contends on it. Serving layers (internal/catalog) call Warm once at
// load time, off the query path, so documents enter service with all
// indexes resident.
//
// Warm is idempotent and cheap on an already-warm document (one stamp
// check). Like all reads it must not run concurrently with mutations.
func (d *Document) Warm() {
	d.mu.Lock()
	d.indexesLocked()
	d.mu.Unlock()
}

// Footprint estimates the document's resident heap bytes: content (plus
// its byte↔rune checkpoint index), partition cuts, element structs with
// attributes, and the derived query indexes Warm builds. It is an
// estimate — interned string sharing and allocator slack are invisible —
// but it tracks the true footprint closely enough to drive a
// byte-budgeted cache (internal/catalog), and it is cheap: O(elements).
func (d *Document) Footprint() int64 {
	d.ensure()
	const (
		ptrSize     = int64(unsafe.Sizeof(uintptr(0)))
		elemSize    = int64(unsafe.Sizeof(Element{}))
		attrSize    = int64(unsafe.Sizeof(Attr{}))
		spanIdxNode = 8 // one int per segment-tree slot, 4 slots per element
	)
	// Content is held once; the rune checkpoint index adds at most one
	// checkpoint pair per 64 bytes (see internal/document), bounded here
	// by content/4 to stay safely conservative.
	content := int64(d.content.Len())
	f := content + content/4
	nl := int64(d.part.NumLeaves())
	f += (nl + 1) * 8 // partition cut offsets

	var nel, nattr, names int64
	for _, h := range d.hiers {
		nel += int64(h.n)
		f += int64(len(h.name))
	}
	for _, name := range d.order {
		h := d.hiers[name]
		var walk func(es []*Element)
		walk = func(es []*Element) {
			for _, e := range es {
				nattr += int64(len(e.attrs))
				names += int64(len(e.name))
				for _, a := range e.attrs {
					names += int64(len(a.Name) + len(a.Value))
				}
				f += int64(cap(e.children)) * ptrSize
				walk(e.children)
			}
		}
		walk(h.top)
	}
	f += nel*elemSize + nattr*attrSize + names

	// Derived indexes (built by Warm): element cache + per-hierarchy
	// pre-order arrays (one pointer each), span index segment tree,
	// ordinal decode tables, name index buckets.
	f += nel * ptrSize * 2     // elemCache + hierarchy pre arrays
	f += nel * 4 * spanIdxNode // span index maxEnd tree
	f += (1+nel+nl)*4 + nl*4   // ordinals byOrd + leafOrd
	f += nel * (ptrSize + 2)   // name index buckets + map overhead share
	return f
}
