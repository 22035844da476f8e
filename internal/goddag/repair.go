package goddag

import (
	"sort"

	"repro/internal/document"
)

// Incremental index repair.
//
// The index snapshot (element list, span interval index, ordinal
// numbering with per-hierarchy pre-order arrays, name buckets) used to be
// invalidated wholesale by every structural mutation and rebuilt from
// scratch on the next read — acceptable while documents were parse-once
// query-forever, but ruinous for an editing workload where every
// InsertElement/RemoveElement is followed by a query or a prevalidation
// pass over the repaired structure.
//
// This file patches the live snapshot in place instead:
//
//   - the element list and the name bucket of the affected tag are
//     spliced (one binary search + one memmove each),
//   - the mutated hierarchy's pre-order array is spliced and the
//     [preIdx, preEnd) subtree intervals shifted locally (the ancestors'
//     intervals grow or shrink by one; everything after the splice point
//     slides by one),
//   - the ordinal numbering is renumbered locally: ordinals strictly
//     before the first affected node keep their values, and one merge
//     pass reassigns the suffix — O(affected suffix) integer writes with
//     no sorting and no map churn,
//   - the span index segment tree is rebuilt over the patched element
//     list (pure integer writes, no comparisons).
//
// Repair is all or nothing: a snapshot that is live at the time of the
// mutation has all four parts repaired and is stamped at the new
// version; a stale or unbuilt one stays stale and the next read rebuilds
// all four together. Text edits (InsertText, DeleteText), Compact, and
// bulk loading leave the snapshot stale: they move content coordinates
// under every element at once, so a full rebuild is the honest cost.
// Attribute edits never touch the indexes at all.
//
// SetIncrementalRepair(false) restores bump-and-rebuild for every
// mutation; the differential tests use it as their oracle, holding the
// repaired indexes against from-scratch rebuilds.

// SetIncrementalRepair toggles in-place index repair after structural
// mutations (default enabled). With repair off, every mutation leaves
// the index snapshot stale and the next read rebuilds it from scratch —
// the pre-repair behaviour, kept for differential testing and
// benchmarking.
func (d *Document) SetIncrementalRepair(on bool) { d.noRepair = !on }

// IncrementalRepair reports whether in-place index repair is on.
func (d *Document) IncrementalRepair() bool { return !d.noRepair }

// cutSpanBorders establishes leaf boundaries at the span borders. It
// returns the index — in the pre-cut leaf numbering — of the first leaf
// whose span changed, or -1 when both borders were already boundaries.
func (d *Document) cutSpanBorders(span document.Span) (firstLeaf int) {
	firstLeaf = -1
	i1, split1 := d.part.Cut(span.Start)
	if split1 {
		firstLeaf = i1 - 1
	}
	i2, split2 := d.part.Cut(span.End)
	if split2 && firstLeaf < 0 {
		// The first cut did not split, so the second cut's index needs
		// no adjustment to be in pre-cut numbering.
		firstLeaf = i2 - 1
	}
	return firstLeaf
}

// leafAfterSpan returns the index of the first leaf sorting at or after
// span in document order (NumLeaves() when none). Leaves are disjoint
// and ascending, so the predicate is monotone. Must be called before the
// span's borders are cut.
func (d *Document) leafAfterSpan(span document.Span) int {
	nl := d.part.NumLeaves()
	return sort.Search(nl, func(k int) bool {
		return document.CompareSpans(span, d.part.LeafSpan(k)) <= 0
	})
}

// finishInsert completes InsertElement: it either repairs the live index
// snapshot around the freshly inserted element or, when repair is off or
// the snapshot is already stale, leaves all of it stale for the next
// rebuild. firstLeaf comes from cutSpanBorders and leafAfter from
// leafAfterSpan, both in the pre-cut leaf numbering.
func (d *Document) finishInsert(el *Element, adopted []*Element, firstLeaf, leafAfter int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	live := d.indexLiveLocked()
	d.version++
	// The pre-order splice assumes the adopted children occupied one
	// contiguous run of the hierarchy's pre-order array. The one shape
	// where they do not — a milestone adopted from beyond a touching,
	// non-adopted sibling — falls back to the full rebuild.
	if d.noRepair || !live || !adoptionContiguous(adopted) {
		return
	}
	i0 := d.spliceElementIn(el)
	d.nameSpliceIn(el)
	preorderSpliceIn(el, adopted)
	d.ordIdx.renumberInsert(i0, firstLeaf, leafAfter)
	if el.span.IsEmpty() {
		d.ordIdx.emptySpliceIn(el)
	}
	d.spanIdx = rebuildSpanIndex(d.elemCache, d.spanIdx)
	d.idxVer = d.version
}

// finishRemove completes RemoveElement. It must run while el's parent
// link is still intact (the pre-order repair walks the ancestor chain).
// orderPreserved reports whether hoisting el's children kept the sibling
// list in document order; when it did not, the hierarchy's pre-order is
// no longer the old one minus el and the snapshot is left to rebuild.
func (d *Document) finishRemove(el *Element, orderPreserved bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	live := d.indexLiveLocked()
	d.version++
	if d.noRepair || !live || !orderPreserved {
		return
	}
	if el.span.IsEmpty() {
		d.ordIdx.emptySpliceOut(el)
	}
	preorderSpliceOut(el)
	i0 := d.spliceElementOut(el)
	if i0 < 0 {
		// Not found — should be impossible; leave it to the rebuild.
		return
	}
	d.nameSpliceOut(el)
	d.ordIdx.renumberRemove(el, i0)
	d.spanIdx = rebuildSpanIndex(d.elemCache, d.spanIdx)
	d.idxVer = d.version
}

// retainCaches advances the version while keeping a live index snapshot
// live — for mutations that change no indexed state (adding or removing
// an element-free hierarchy).
func (d *Document) retainCaches() {
	d.mu.Lock()
	defer d.mu.Unlock()
	live := d.indexLiveLocked()
	d.version++
	if live && !d.noRepair {
		d.idxVer = d.version
	}
}

// spliceElementIn inserts el at its document-order position in the
// element cache and returns that index. elementLess is a total order
// (seq breaks all ties), so the position is unique.
func (d *Document) spliceElementIn(el *Element) int {
	cache := d.elemCache
	i := sort.Search(len(cache), func(k int) bool { return elementLess(el, cache[k]) })
	cache = append(cache, nil)
	copy(cache[i+1:], cache[i:])
	cache[i] = el
	d.elemCache = cache
	return i
}

// spliceElementOut removes el from the element cache, returning the index
// it occupied (-1 when absent).
func (d *Document) spliceElementOut(el *Element) int {
	cache := d.elemCache
	i := sort.Search(len(cache), func(k int) bool { return !elementLess(cache[k], el) })
	if i >= len(cache) || cache[i] != el {
		return -1
	}
	copy(cache[i:], cache[i+1:])
	cache[len(cache)-1] = nil
	d.elemCache = cache[:len(cache)-1]
	return i
}

// nameSpliceIn inserts el into its tag's name-index bucket in document
// order.
func (d *Document) nameSpliceIn(el *Element) {
	bucket := d.nameIdx[el.name]
	i := sort.Search(len(bucket), func(k int) bool { return elementLess(el, bucket[k]) })
	bucket = append(bucket, nil)
	copy(bucket[i+1:], bucket[i:])
	bucket[i] = el
	d.nameIdx[el.name] = bucket
}

// nameSpliceOut removes el from its tag's name-index bucket.
func (d *Document) nameSpliceOut(el *Element) {
	bucket := d.nameIdx[el.name]
	i := sort.Search(len(bucket), func(k int) bool { return !elementLess(bucket[k], el) })
	if i >= len(bucket) || bucket[i] != el {
		return
	}
	copy(bucket[i:], bucket[i+1:])
	bucket[len(bucket)-1] = nil
	d.nameIdx[el.name] = bucket[:len(bucket)-1]
}

// adoptionContiguous reports whether the adopted children (document
// order) occupy one contiguous run of their hierarchy's pre-order array.
// Valid only while the ordinal index is live.
func adoptionContiguous(adopted []*Element) bool {
	if len(adopted) == 0 {
		return true
	}
	var size int32
	for _, a := range adopted {
		size += a.preEnd - a.preIdx
	}
	return size == adopted[len(adopted)-1].preEnd-adopted[0].preIdx
}

// preorderSpliceIn inserts el into its hierarchy's pre-order array:
// immediately before its first adopted child, or after its preceding
// sibling's subtree when childless. Subtree intervals after the splice
// point slide right by one; ancestor intervals grow by one.
func preorderSpliceIn(el *Element, adopted []*Element) {
	h := el.hier
	var p, size int32
	if len(adopted) > 0 {
		first, last := adopted[0], adopted[len(adopted)-1]
		p = first.preIdx
		size = last.preEnd - first.preIdx
	} else {
		p = preorderLeafPos(el)
	}
	pre := append(h.pre, nil)
	copy(pre[p+1:], pre[p:])
	pre[p] = el
	for _, e := range pre[p+1:] {
		e.preIdx++
		e.preEnd++
	}
	h.pre = pre
	el.preIdx = p
	el.preEnd = p + 1 + size
	for a := el.parent; a != nil; a = a.parent {
		a.preEnd++
	}
}

// preorderLeafPos locates the pre-order position of a freshly inserted
// childless element, which is already linked into its sibling list.
func preorderLeafPos(el *Element) int32 {
	sibs := el.hier.top
	if el.parent != nil {
		sibs = el.parent.children
	}
	c := sort.Search(len(sibs), func(k int) bool { return !elementLess(sibs[k], el) })
	for c < len(sibs) && sibs[c] != el {
		c++
	}
	if c > 0 {
		return sibs[c-1].preEnd
	}
	if el.parent != nil {
		return el.parent.preIdx + 1
	}
	return 0
}

// preorderSpliceOut removes el from its hierarchy's pre-order array. Its
// children (already adopted by el's parent, in place) stay where they
// are; intervals after the splice point slide left, ancestors shrink by
// one. Must run while el.parent is still set.
func preorderSpliceOut(el *Element) {
	h := el.hier
	p := int(el.preIdx)
	pre := h.pre
	copy(pre[p:], pre[p+1:])
	pre[len(pre)-1] = nil
	pre = pre[:len(pre)-1]
	for _, e := range pre[p:] {
		e.preIdx--
		e.preEnd--
	}
	h.pre = pre
	for a := el.parent; a != nil; a = a.parent {
		a.preEnd--
	}
}

// renumberInsert reassigns ordinals after a splice of the element cache
// at index i0. firstLeaf is the first leaf (pre-cut numbering) whose
// span a border cut changed (-1 for none); leafAfter is the first leaf
// (pre-cut numbering) sorting at or after the new element. Ordinals
// strictly before the first affected node keep their values; one merge
// pass over the suffix reassigns the rest.
func (o *Ordinals) renumberInsert(i0, firstLeaf, leafAfter int) {
	d := o.doc
	o.els = d.elemCache
	els := o.els
	// The smallest ordinal whose assignment may change: that of the
	// element the splice displaced, of the first leaf a border cut
	// changed (its shrink can reorder it against same-start elements), or
	// of the first leaf the new element's own ordinal displaces.
	fromOrd := len(o.byOrd) // pure append: next fresh ordinal
	if i0+1 < len(els) {
		fromOrd = int(els[i0+1].ord)
	}
	if firstLeaf >= 0 && firstLeaf < len(o.leafOrd) && int(o.leafOrd[firstLeaf]) < fromOrd {
		fromOrd = int(o.leafOrd[firstLeaf])
	}
	if leafAfter >= 0 && leafAfter < len(o.leafOrd) && int(o.leafOrd[leafAfter]) < fromOrd {
		fromOrd = int(o.leafOrd[leafAfter])
	}
	// Merge cursors: the first element (excluding el, whose ordinal is not
	// yet assigned) and first leaf at or past fromOrd. Both prefixes keep
	// their old, ascending ordinals, so binary search applies.
	i := sort.Search(i0, func(k int) bool { return int(els[k].ord) >= fromOrd })
	j := sort.Search(len(o.leafOrd), func(k int) bool { return int(o.leafOrd[k]) >= fromOrd })
	nl := d.part.NumLeaves()
	o.leafOrd = resizeInt32(o.leafOrd, j, nl)
	o.byOrd = resizeInt32(o.byOrd, fromOrd, 1+len(els)+nl)
	o.mergeFrom(i, j, fromOrd)
}

// renumberRemove reassigns ordinals after el was spliced out of the
// element cache at index i0. The leaf partition is untouched by element
// removal, so only ordinals at or past el's old ordinal shift.
func (o *Ordinals) renumberRemove(el *Element, i0 int) {
	d := o.doc
	o.els = d.elemCache
	fromOrd := int(el.ord)
	j := sort.Search(len(o.leafOrd), func(k int) bool { return int(o.leafOrd[k]) >= fromOrd })
	o.byOrd[len(o.byOrd)-1] = 0
	o.byOrd = o.byOrd[:len(o.byOrd)-1]
	o.mergeFrom(i0, j, fromOrd)
}

// mergeFrom runs the element/leaf document-order merge from element
// cursor i, leaf cursor j, and ordinal ord — the tail of the same merge
// the full Ordinals rebuild performs, with the CompareSpans-against-
// LeafSpan comparison inlined over the partition's raw start offsets
// (this loop dominates the cost of an edit on a large document).
func (o *Ordinals) mergeFrom(i, j, ord int) {
	d := o.doc
	els := o.els
	starts := d.part.StartsView()
	nl := len(starts)
	length := d.part.Len()
	for i < len(els) || j < nl {
		var takeElem bool
		switch {
		case j >= nl:
			takeElem = true
		case i >= len(els):
			takeElem = false
		default:
			// Element first when CompareSpans(elem, leaf) <= 0: earlier
			// start, or same start and at-least-as-wide (wider first,
			// ties take the element).
			ls := starts[j]
			le := length
			if j+1 < nl {
				le = starts[j+1]
			}
			es := els[i].span
			takeElem = es.Start < ls || (es.Start == ls && es.End >= le)
		}
		if takeElem {
			els[i].ord = int32(ord)
			o.byOrd[ord] = int32(i + 1)
			i++
		} else {
			o.leafOrd[j] = int32(ord)
			o.byOrd[ord] = int32(-(j + 1))
			j++
		}
		ord++
	}
}

// emptySpliceIn inserts el into the milestone list. Must run after the
// renumber pass (positions are found by ordinal).
func (o *Ordinals) emptySpliceIn(el *Element) {
	k := sort.Search(len(o.empty), func(i int) bool { return o.empty[i].ord > el.ord })
	o.empty = append(o.empty, nil)
	copy(o.empty[k+1:], o.empty[k:])
	o.empty[k] = el
}

// emptySpliceOut removes el from the milestone list. Must run before the
// renumber pass (el's old ordinal is still consistent with the list).
func (o *Ordinals) emptySpliceOut(el *Element) {
	k := sort.Search(len(o.empty), func(i int) bool { return o.empty[i].ord >= el.ord })
	if k < len(o.empty) && o.empty[k] == el {
		copy(o.empty[k:], o.empty[k+1:])
		o.empty[len(o.empty)-1] = nil
		o.empty = o.empty[:len(o.empty)-1]
	}
}

// resizeInt32 resizes s to n entries, preserving at least s[:keep].
func resizeInt32(s []int32, keep, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([]int32, n)
	copy(out, s[:keep])
	return out
}
