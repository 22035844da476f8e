package goddag

import (
	"fmt"
	"sort"
	"unsafe"

	"repro/internal/document"
)

// This file is the lazy-materialization mode backing the v3 store's
// open-without-decode path. A view-backed document is created with
// FromView over a columnar image (Columns) that the store has already
// validated in full and that typically aliases a read-only file mapping:
// opening costs the validation and the hierarchy shells, and the first
// structural access materializes every element and the index snapshot
// in one bulk pass straight off the columns — no parsing, no sorting, no
// ordinal merge, because the columns *are* the serialized indexes.
// Materialization cannot fail. Mutations promote the document to pure
// heap form first (promote), since the in-place index repair (repair.go)
// writes into the ordinal arrays, which may alias the read-only mapping.
//
// ExportColumns is the inverse: it flattens a live document into the
// same columnar image, which the store serializes as the v3 sections.

// Columns is the flat columnar image of a document's structure, shared
// between the v3 encoder (ExportColumns) and the mapped
// lazy-materialization path (FromView). Element records are stored
// hierarchy-major in pre-order — within one hierarchy, pre-order IS
// document order — so an element's hierarchy-local pre-order index is
// implicit in its position. "Arena index" below means an element's
// global position in that layout.
type Columns struct {
	Strings []string      // string table: tags, attribute names/values, root and hierarchy names
	Hiers   []HierColumns // per hierarchy: name and element count, creation order

	// Per element, arena order:
	Tag    []uint32 // string-table id of the tag
	Start  []uint32 // span start, byte offset
	End    []uint32 // span end, byte offset
	Parent []int32  // arena index of the parent, -1 for a top-level element
	PreEnd []uint32 // hierarchy-local pre-order subtree end (exclusive)
	Ord    []uint32 // dense document-order ordinal (root is 0)

	AttrOff  []uint32 // len nelems+1: prefix offsets into AttrName/AttrVal
	AttrName []uint32 // per attribute: string-table id of the name
	AttrVal  []uint32 // per attribute: string-table id of the value

	Cuts    []uint32 // partition leaf start offsets, ascending from 0
	LeafOrd []int32  // per leaf: ordinal
	ByOrd   []int32  // ordinal -> node (0 root, +v element v-1 in document order, -v leaf v-1)
	Order   []uint32 // document-order position -> arena index
	SpanMax []int32  // span-index segment tree (4·nelems max-end slots)
	Buckets []Bucket // name index, sorted by tag string

	// Aliased marks ByOrd/LeafOrd as views of a read-only backing; the
	// first mutation copies them to heap (promote) before the in-place
	// ordinal repair writes into them.
	Aliased bool
}

// HierColumns is one hierarchy's slot in the columnar image.
type HierColumns struct {
	Name string
	N    int
}

// Bucket is one tag's slot in the serialized name index.
type Bucket struct {
	Tag uint32   // string-table id
	Pos []uint32 // document-order positions (indices into Order), ascending
}

// DocView describes a document whose structure lives in an external
// columnar image (a mapped .gdag v3 file).
type DocView struct {
	RootTag   string
	Content   string
	HierNames []string
	// Columns is the validated columnar image. The first structural
	// access materializes the document from it and sets it to nil, so
	// only the document's own arrays stay reachable afterwards.
	Columns *Columns
	// Keep pins the image's backing store (the file mapping) for as long
	// as the document is reachable: a materialized document's ordinal
	// tables alias it until a mutation promotes them. Nothing else the
	// document hands out may alias a file mapping (Content and the
	// strings are heap bytes), so once the document is unreachable the
	// backing store can go too.
	Keep any
	// TextBytes is the size of the heap copy that Content and the string
	// table slice, when the image made one; the resident footprint
	// charges it from the open on.
	TextBytes int64
}

// FromView creates a view-backed document: content and hierarchy shells
// are live immediately, element structure materializes on first touch.
func FromView(v *DocView) *Document {
	d := New(v.RootTag, v.Content)
	for _, name := range v.HierNames {
		d.AddHierarchy(name)
	}
	d.view = v
	d.residentBytes.Store(512 + int64(len(v.RootTag)) + v.TextBytes)
	d.viewPending.Store(true)
	return d
}

// ResidentFootprint reports the heap bytes a still-mapped view-backed
// document pins (the copied content and strings, then the materialized
// arenas and indexes; the column arrays stay in the mapping) — the
// amount a byte-budgeted cache should charge. ok is false for heap
// documents and for promoted ones, whose full Footprint applies.
func (d *Document) ResidentFootprint() (int64, bool) {
	if d.view == nil || d.viewPromoted.Load() {
		return 0, false
	}
	return d.residentBytes.Load(), true
}

// ensure materializes a view-backed document's structure on first
// touch. The fast path for heap documents and already-materialized
// views is one atomic load.
func (d *Document) ensure() {
	if !d.viewPending.Load() {
		return
	}
	d.mu.Lock()
	d.ensureLocked()
	d.mu.Unlock()
}

// ensureLocked is ensure with d.mu held (for the lazy index rebuilds,
// which call it at their top).
func (d *Document) ensureLocked() {
	if !d.viewPending.Load() {
		return
	}
	d.materializeLocked()
	d.viewPending.Store(false)
}

// prepareMutate readies a view-backed document for a structural or text
// mutation: materialize, then promote to heap form. Heap documents pay
// one predictable branch.
func (d *Document) prepareMutate() {
	if d.view == nil {
		return
	}
	d.ensure()
	d.promote()
}

// promote copies any index arrays still aliasing the read-only backing
// to heap. The in-place ordinal repair resizes and writes into
// byOrd/leafOrd (repair.go); on a PROT_READ mapping that is a fault,
// so the first mutation pays the copy once.
func (d *Document) promote() {
	d.mu.Lock()
	if d.viewAliased {
		if o := d.ordIdx; o != nil {
			o.byOrd = append(make([]int32, 0, len(o.byOrd)+len(o.byOrd)/2), o.byOrd...)
			o.leafOrd = append(make([]int32, 0, len(o.leafOrd)+len(o.leafOrd)/2), o.leafOrd...)
		}
		d.viewAliased = false
	}
	d.viewPromoted.Store(true)
	d.mu.Unlock()
}

// materializeLocked builds the full element layer and the index
// snapshot from the validated columnar image in one pass, stamping the
// snapshot at the current version, and drops the image.
func (d *Document) materializeLocked() {
	cols := d.view.Columns
	d.view.Columns = nil
	n := len(cols.Tag)
	nattr := len(cols.AttrName)
	nl := len(cols.Cuts)
	strs := cols.Strings

	if nl > 0 {
		starts := make([]int, nl)
		for i, c := range cols.Cuts {
			starts[i] = int(c)
		}
		d.part = document.PartitionFromStarts(d.content.Len(), starts)
	}

	// Element and attribute arenas. Like the bulk builder, each element
	// owns its [lo:hi:hi] attribute sub-slice exclusively, so SetAttr
	// growth reallocates away from the arena.
	arena := make([]Element, n)
	preArena := make([]*Element, n)
	attrArena := make([]Attr, nattr)
	for j := range attrArena {
		attrArena[j] = Attr{Name: strs[cols.AttrName[j]], Value: strs[cols.AttrVal[j]]}
	}

	childCount := make([]int32, n)
	topCount := make([]int32, len(cols.Hiers))
	base := 0
	for hi, hc := range cols.Hiers {
		for i := 0; i < hc.N; i++ {
			if p := cols.Parent[base+i]; p >= 0 {
				childCount[p]++
			} else {
				topCount[hi]++
			}
		}
		base += hc.N
	}
	childOff := make([]int32, n+1)
	for g := 0; g < n; g++ {
		childOff[g+1] = childOff[g] + childCount[g]
	}
	childArena := make([]*Element, childOff[n])
	totalTop := 0
	for _, c := range topCount {
		totalTop += int(c)
	}
	topArena := make([]*Element, 0, totalTop)

	base = 0
	for _, hc := range cols.Hiers {
		h := d.hiers[hc.Name]
		if h == nil {
			h = d.AddHierarchy(hc.Name)
		}
		h.n = hc.N
		h.pre = preArena[base : base+hc.N : base+hc.N]
		for i := 0; i < hc.N; i++ {
			g := base + i
			e := &arena[g]
			preArena[g] = e
			e.doc = d
			e.hier = h
			e.name = strs[cols.Tag[g]]
			e.span = document.Span{Start: int(cols.Start[g]), End: int(cols.End[g])}
			if lo, hi2 := cols.AttrOff[g], cols.AttrOff[g+1]; hi2 > lo {
				e.attrs = attrArena[lo:hi2:hi2]
			}
			e.preIdx = int32(i)
			e.preEnd = int32(cols.PreEnd[g])
			e.ord = int32(cols.Ord[g])
			if p := cols.Parent[g]; p >= 0 {
				e.parent = &arena[p]
			}
		}
		base += hc.N
	}

	// Children and top-level lists: a second pass in arena order keeps
	// each sibling list in document order (pre-order visits parents
	// before children, children in order).
	cur := make([]int32, n)
	base = 0
	topOff := 0
	for hi, hc := range cols.Hiers {
		for i := 0; i < hc.N; i++ {
			g := base + i
			e := &arena[g]
			if p := cols.Parent[g]; p >= 0 {
				childArena[childOff[p]+cur[p]] = e
				cur[p]++
			} else {
				topArena = append(topArena, e)
			}
		}
		h := d.hiers[hc.Name]
		cnt := int(topCount[hi])
		h.top = topArena[topOff : topOff+cnt : topOff+cnt]
		topOff += cnt
		base += hc.N
	}
	for g := 0; g < n; g++ {
		if c := childCount[g]; c > 0 {
			lo := childOff[g]
			arena[g].children = childArena[lo : lo+c : lo+c]
		}
	}

	// Insertion sequence: the serialized document order is the total
	// order (span, seq), so re-deriving seq from the order position
	// reproduces it exactly and keeps future inserts (seq >= n) last
	// among equal spans, matching the v2 decode semantics.
	cache := make([]*Element, n)
	for k, g := range cols.Order {
		e := &arena[g]
		e.seq = k
		cache[k] = e
	}
	d.seq = n
	d.elemCache = cache

	var empty []*Element
	for _, e := range cache {
		if e.span.IsEmpty() {
			empty = append(empty, e)
		}
	}
	d.ordIdx = &Ordinals{doc: d, els: cache, leafOrd: cols.LeafOrd, byOrd: cols.ByOrd, empty: empty}
	d.viewAliased = cols.Aliased

	ix := &spanIndex{els: cache}
	if n > 0 {
		ix.maxEnd = make([]int, 4*n)
		for i, v := range cols.SpanMax {
			ix.maxEnd[i] = int(v)
		}
	}
	d.spanIdx = ix

	bucketArena := make([]*Element, n)
	idx := make(map[string][]*Element, len(cols.Buckets))
	off := 0
	for _, b := range cols.Buckets {
		lo := off
		for _, p := range b.Pos {
			bucketArena[off] = cache[p]
			off++
		}
		idx[strs[b.Tag]] = bucketArena[lo:off:off]
	}
	d.nameIdx = idx
	d.idxVer = d.version

	const ptrSize = int64(unsafe.Sizeof(uintptr(0)))
	est := d.residentBytes.Load()
	est += int64(n) * int64(unsafe.Sizeof(Element{}))
	est += int64(nattr) * int64(unsafe.Sizeof(Attr{}))
	est += int64(n) * ptrSize * 4 // preArena, childArena, cache, bucketArena
	est += int64(totalTop) * ptrSize
	est += int64(nl) * 8         // partition starts
	est += int64(4*n) * 8        // span tree
	est += int64(len(strs)) * 16 // string headers (their bytes are TextBytes)
	if !cols.Aliased {
		est += int64(len(cols.ByOrd))*4 + int64(len(cols.LeafOrd))*4
	}
	est += int64(len(cols.Buckets)) * 48 // name-index map overhead
	d.residentBytes.Store(est)
}

// ExportColumns flattens the document into its columnar v3 image from
// the index snapshot, so the columns are exactly the serialized form of
// the live query structures. Coordinates must fit int32; the store's
// encoder enforces the content-length bound.
func (d *Document) ExportColumns() *Columns {
	d.mu.Lock()
	d.indexesLocked()
	els, ords, ix, nameIdx := d.elemCache, d.ordIdx, d.spanIdx, d.nameIdx
	d.mu.Unlock()

	n := len(els)
	nattr := 0
	for _, e := range els {
		nattr += len(e.attrs)
	}
	nstr := 1 + len(d.order) + len(nameIdx) + nattr // attribute values are mostly distinct
	cols := &Columns{
		Tag:      make([]uint32, n),
		Start:    make([]uint32, n),
		End:      make([]uint32, n),
		Parent:   make([]int32, n),
		PreEnd:   make([]uint32, n),
		Ord:      make([]uint32, n),
		AttrOff:  make([]uint32, n+1),
		Order:    make([]uint32, n),
		Strings:  make([]string, 0, nstr),
		AttrName: make([]uint32, 0, nattr),
		AttrVal:  make([]uint32, 0, nattr),
	}

	strIDs := make(map[string]uint32, nstr)
	intern := func(s string) uint32 {
		if id, ok := strIDs[s]; ok {
			return id
		}
		id := uint32(len(cols.Strings))
		strIDs[s] = id
		cols.Strings = append(cols.Strings, s)
		return id
	}
	intern(d.rootTag)
	hierBase := make(map[*Hierarchy]int, len(d.order))
	base := 0
	for _, name := range d.order {
		intern(name)
		h := d.hiers[name]
		cols.Hiers = append(cols.Hiers, HierColumns{Name: name, N: h.n})
		hierBase[h] = base
		base += h.n
	}
	if base != n {
		panic(fmt.Sprintf("goddag: export: hierarchy counts sum %d != %d elements", base, n))
	}

	base = 0
	for _, name := range d.order {
		h := d.hiers[name]
		for i, e := range h.pre {
			g := base + i
			cols.Tag[g] = intern(e.name)
			cols.Start[g] = uint32(e.span.Start)
			cols.End[g] = uint32(e.span.End)
			cols.Parent[g] = -1
			if e.parent != nil {
				cols.Parent[g] = int32(base + int(e.parent.preIdx))
			}
			cols.PreEnd[g] = uint32(e.preEnd)
			cols.Ord[g] = uint32(e.ord)
		}
		base += h.n
	}
	base = 0
	for _, name := range d.order {
		h := d.hiers[name]
		for i, e := range h.pre {
			cols.AttrOff[base+i] = uint32(len(cols.AttrName))
			for _, a := range e.attrs {
				cols.AttrName = append(cols.AttrName, intern(a.Name))
				cols.AttrVal = append(cols.AttrVal, intern(a.Value))
			}
		}
		base += h.n
	}
	cols.AttrOff[n] = uint32(len(cols.AttrName))

	starts := d.part.StartsView()
	cols.Cuts = make([]uint32, len(starts))
	for i, s := range starts {
		cols.Cuts[i] = uint32(s)
	}
	cols.LeafOrd = append([]int32(nil), ords.leafOrd...)
	cols.ByOrd = append([]int32(nil), ords.byOrd...)
	pos := make([]uint32, n) // element-cache position by export index
	for k, e := range els {
		g := hierBase[e.hier] + int(e.preIdx)
		cols.Order[k] = uint32(g)
		pos[g] = uint32(k)
	}
	if n > 0 {
		cols.SpanMax = make([]int32, 4*n)
		for i, v := range ix.maxEnd[:4*n] {
			cols.SpanMax[i] = int32(v)
		}
	}

	tags := make([]string, 0, len(nameIdx))
	for t, es := range nameIdx {
		if len(es) > 0 { // repair can leave a bucket empty; a rebuild drops it
			tags = append(tags, t)
		}
	}
	sort.Strings(tags)
	for _, t := range tags {
		b := Bucket{Tag: intern(t), Pos: make([]uint32, 0, len(nameIdx[t]))}
		for _, e := range nameIdx[t] {
			b.Pos = append(b.Pos, pos[hierBase[e.hier]+int(e.preIdx)])
		}
		cols.Buckets = append(cols.Buckets, b)
	}
	return cols
}
