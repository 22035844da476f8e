package goddag

import "repro/internal/document"

// spanIndex is a static interval index over the document's elements: the
// elements sorted by start offset, augmented with a segment tree of
// maximum span ends. Intersection-style queries prune whole subtrees
// whose spans end before the query starts and stop at the first start
// past the query end, giving O(log n + answers) lookups instead of a
// linear scan — the "indexing" direction the paper lists as ongoing
// work, applied to the in-memory GODDAG.
//
// The index is part of the document's index snapshot: it is rebuilt and
// repaired together with the element list, ordinals and name buckets.
type spanIndex struct {
	els    []*Element
	maxEnd []int // segment tree, node i covers a range of els
}

// buildSpanIndex builds the tree. els must be sorted by span start,
// which document order guarantees.
func buildSpanIndex(els []*Element) *spanIndex {
	return rebuildSpanIndex(els, nil)
}

// rebuildSpanIndex builds the tree, reusing old's segment-tree array
// when it is large enough — the edit path rebuilds the index on every
// element insertion/removal, and reallocating 4n ints per edit would
// dominate the repair cost (see repair.go). old (when non-nil) is
// mutated and returned; per the mutation contract no reader runs
// concurrently.
func rebuildSpanIndex(els []*Element, old *spanIndex) *spanIndex {
	ix := old
	if ix == nil {
		ix = &spanIndex{}
	}
	ix.els = els
	if len(els) == 0 {
		ix.maxEnd = ix.maxEnd[:0]
		return ix
	}
	if n := 4 * len(els); cap(ix.maxEnd) >= n {
		ix.maxEnd = ix.maxEnd[:n]
		clear(ix.maxEnd) // build skips unused slots; stale ones would reach the v3 image
	} else {
		// Headroom beyond 4n so a run of insertions reallocates rarely.
		ix.maxEnd = make([]int, n, n+n/2)
	}
	ix.build(1, 0, len(els))
	return ix
}

func (ix *spanIndex) build(node, lo, hi int) int {
	if hi-lo == 1 {
		ix.maxEnd[node] = ix.els[lo].span.End
		return ix.maxEnd[node]
	}
	mid := (lo + hi) / 2
	l := ix.build(2*node, lo, mid)
	r := ix.build(2*node+1, mid, hi)
	if l > r {
		ix.maxEnd[node] = l
	} else {
		ix.maxEnd[node] = r
	}
	return ix.maxEnd[node]
}

// visitIntersecting calls emit, in document order, for every element
// whose span satisfies Start < sp.End && End > sp.Start — the candidate
// superset for intersection, containment, and proper-overlap tests.
// emit returning false stops the traversal, so existence-style probes
// pay only for the first witness.
func (ix *spanIndex) visitIntersecting(sp document.Span, emit func(*Element) bool) {
	if len(ix.els) == 0 || sp.End <= sp.Start {
		return
	}
	ix.visit(1, 0, len(ix.els), sp, emit)
}

func (ix *spanIndex) visit(node, lo, hi int, sp document.Span, emit func(*Element) bool) bool {
	// Prune: every span in this subtree ends at or before sp.Start.
	if ix.maxEnd[node] <= sp.Start {
		return true
	}
	// Prune: every span in this subtree starts at or after sp.End
	// (elements are sorted by start).
	if ix.els[lo].span.Start >= sp.End {
		return true
	}
	if hi-lo == 1 {
		e := ix.els[lo]
		if e.span.Start < sp.End && e.span.End > sp.Start {
			return emit(e)
		}
		return true
	}
	mid := (lo + hi) / 2
	if !ix.visit(2*node, lo, mid, sp, emit) {
		return false
	}
	return ix.visit(2*node+1, mid, hi, sp, emit)
}

// VisitIntersecting calls visit, in document order, for every element
// whose span intersects sp, stopping early when visit returns false.
// It is the non-materializing form of ElementsIntersecting: the xpath
// planner's reversed overlap semi-join probes it per candidate, and an
// early-exiting probe costs O(log n) when a witness exists.
func (d *Document) VisitIntersecting(sp document.Span, visit func(*Element) bool) {
	d.index().visitIntersecting(sp, visit)
}

// index returns the document's span index from the index snapshot.
func (d *Document) index() *spanIndex {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.indexesLocked()
	return d.spanIdx
}
