// Package goddag implements the GODDAG (Generalized Ordered-Descendant
// Directed Acyclic Graph) of Sperberg-McQueen and Huitfeldt, the data model
// the paper uses for multihierarchical document-centric XML.
//
// A GODDAG document has:
//
//   - one character Content shared by all hierarchies,
//   - one sequence of Leaves: the finest division of the content induced
//     by markup boundaries from *all* hierarchies,
//   - one Root shared by all hierarchies, and
//   - one element tree per concurrent hierarchy, whose text nodes are the
//     shared leaves.
//
// Because leaves are shared, a leaf has several parents — one per
// hierarchy — and navigation can switch hierarchies through the root or
// through leaves, exactly as described in §3 of the paper.
//
// This implementation is a *restricted* GODDAG: every element dominates a
// contiguous interval of leaves, which is true of any structure derived
// from in-line or standoff markup ranges.
//
// # Concurrency and mutation
//
// A Document may be read — navigated, queried, exported — from any
// number of goroutines at once: the lazily built index snapshot
// (element list, span index, ordinal numbering, name buckets)
// serializes its rebuild on an internal mutex. Mutating operations
// (InsertElement, RemoveElement, InsertText, DeleteText, Compact,
// BulkBuilder.Append, ...) require exclusive access: they must not run
// concurrently with each other or with readers. Serving layers
// (internal/catalog) enforce this with a per-document RW lock.
//
// Documents are editable after load. InsertElement and RemoveElement
// repair the live index snapshot in place (splice + local renumber, see
// repair.go), so an edit costs O(affected suffix) integer writes instead
// of a from-scratch rebuild, and queries issued right after an edit see
// warm indexes. Attribute edits never touch the indexes. Text edits
// (InsertText, DeleteText) and Compact move content coordinates under
// every element at once and leave the whole snapshot to rebuild.
// Results handed out by the index accessors (Elements, ElementsNamed,
// Ordinals, ...) are snapshots that remain internally consistent only
// until the next mutation; re-fetch them after editing.
package goddag

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/document"
)

// NodeKind discriminates the three node types of a GODDAG.
type NodeKind int

// The node kinds.
const (
	KindRoot NodeKind = iota
	KindElement
	KindLeaf
)

// String returns the kind name.
func (k NodeKind) String() string {
	switch k {
	case KindRoot:
		return "root"
	case KindElement:
		return "element"
	case KindLeaf:
		return "leaf"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is a GODDAG node: the root, an element, or a text leaf.
type Node interface {
	// Kind reports the node type.
	Kind() NodeKind
	// Span is the content interval the node dominates. The root spans
	// the whole content; a leaf spans its fragment.
	Span() document.Span
	// Text returns the content dominated by the node.
	Text() string
	// Document returns the owning document.
	Document() *Document

	isNode()
}

// Attr is a name/value attribute on an element.
type Attr struct {
	Name  string
	Value string
}

// Document is a GODDAG document: shared content and leaves plus one
// element tree per hierarchy, all united at a single root.
type Document struct {
	content *document.Content
	part    *document.Partition
	root    *Root
	rootTag string
	hiers   map[string]*Hierarchy
	order   []string // hierarchy insertion order
	seq     int      // element insertion counter, for stable ordering
	serial  uint64   // process-unique identity, see Serial

	// The index snapshot: the document-order element list, the span
	// interval index, the ordinal numbering with its per-hierarchy
	// pre-order arrays, and the name buckets. They are one unit, stamped
	// together with idxVer: the snapshot is live while idxVer equals the
	// version, which every structural mutation advances. Element
	// insertions and removals repair all four in place (repair.go); text
	// edits, Compact and bulk loads leave all four stale, and the next
	// read rebuilds them together (indexesLocked).
	//
	// mu serializes the lazy rebuild, making *read-only* use of a
	// document — including concurrent query evaluation — safe from
	// multiple goroutines. Structural and text mutations are NOT
	// goroutine-safe and must not run concurrently with readers.
	mu        sync.Mutex
	version   uint64
	noRepair  bool // disable in-place index repair (SetIncrementalRepair)
	idxVer    uint64
	elemCache []*Element
	spanIdx   *spanIndex
	ordIdx    *Ordinals
	nameIdx   map[string][]*Element

	// Lazy-materialization state (view.go). A document opened from a
	// mapped v3 store file carries a DocView whose columns the store has
	// already validated; the element layer and the index snapshot build
	// from them on first touch (viewPending flips false), and the first
	// mutation promotes the ordinal arrays off the read-only backing
	// (viewAliased/viewPromoted). The view, held for the document's
	// lifetime, pins the backing mapping through its Keep.
	view          *DocView
	viewPending   atomic.Bool
	viewAliased   bool
	viewPromoted  atomic.Bool
	residentBytes atomic.Int64
}

// bump leaves the index snapshot stale after a structural mutation that
// moves content coordinates wholesale (text edits, Compact, bulk loads);
// the next read rebuilds it. Element-level mutations go through
// finishInsert/finishRemove instead, which repair a live snapshot in
// place.
func (d *Document) bump() { d.version++ }

// Version reports the document's mutation counter. Derived snapshots
// keyed on a (Serial, version) pair — the xpath planner's cached plans,
// for instance — stay valid exactly while the version is unchanged.
func (d *Document) Version() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.version
}

// serials numbers documents in creation order; see Serial.
var serials atomic.Uint64

// Serial reports a number no other document of this process shares.
// Caches keyed on (serial, version) name a document state without
// holding the document, so they never keep an evicted one alive.
func (d *Document) Serial() uint64 { return d.serial }

// New creates a document over the given character content with the given
// root element tag (all hierarchies of a concurrent document share the
// same root; paper §3).
func New(rootTag, content string) *Document {
	d := &Document{
		content: document.NewContent(content),
		rootTag: rootTag,
		hiers:   make(map[string]*Hierarchy),
		serial:  serials.Add(1),
	}
	d.part = document.NewPartition(d.content.Len())
	d.root = &Root{doc: d}
	return d
}

// RootTag returns the shared root element tag.
func (d *Document) RootTag() string { return d.rootTag }

// Root returns the shared root node.
func (d *Document) Root() *Root { return d.root }

// Content returns the document's character content.
func (d *Document) Content() *document.Content { return d.content }

// Partition exposes the leaf partition (read-mostly; mutate only through
// document operations).
func (d *Document) Partition() *document.Partition {
	d.ensure()
	return d.part
}

// AddHierarchy registers a new concurrent hierarchy (one per DTD in the
// concurrent markup hierarchy; paper §3) and returns it. Adding an
// existing name returns the existing hierarchy.
func (d *Document) AddHierarchy(name string) *Hierarchy {
	if h, ok := d.hiers[name]; ok {
		return h
	}
	h := &Hierarchy{doc: d, name: name}
	d.hiers[name] = h
	d.order = append(d.order, name)
	// An element-free hierarchy contributes nothing to the index
	// snapshot; keep a live one live.
	d.retainCaches()
	return h
}

// Hierarchy returns the named hierarchy, or nil.
func (d *Document) Hierarchy(name string) *Hierarchy { return d.hiers[name] }

// RemoveHierarchy deletes an *empty* hierarchy, reporting whether it was
// removed. Hierarchies that still hold elements are not removed.
func (d *Document) RemoveHierarchy(name string) bool {
	d.ensure() // h.n is 0 until the view materializes
	h, ok := d.hiers[name]
	if !ok || h.n != 0 {
		return false
	}
	delete(d.hiers, name)
	for i, n := range d.order {
		if n == name {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
	// Only empty hierarchies are removable, so the indexes are untouched.
	d.retainCaches()
	return true
}

// Hierarchies returns all hierarchies in creation order.
func (d *Document) Hierarchies() []*Hierarchy {
	out := make([]*Hierarchy, 0, len(d.order))
	for _, n := range d.order {
		out = append(out, d.hiers[n])
	}
	return out
}

// HierarchyNames returns hierarchy names in creation order.
func (d *Document) HierarchyNames() []string {
	out := make([]string, len(d.order))
	copy(out, d.order)
	return out
}

// NumLeaves returns the current number of text leaves.
func (d *Document) NumLeaves() int {
	d.ensure()
	return d.part.NumLeaves()
}

// Leaf returns the i-th leaf handle.
func (d *Document) Leaf(i int) Leaf {
	d.ensure()
	if i < 0 || i >= d.part.NumLeaves() {
		panic(fmt.Sprintf("goddag: leaf index %d out of range [0,%d)", i, d.part.NumLeaves()))
	}
	return Leaf{doc: d, idx: i}
}

// Leaves returns all leaf handles in content order.
func (d *Document) Leaves() []Leaf {
	d.ensure()
	out := make([]Leaf, d.part.NumLeaves())
	for i := range out {
		out[i] = Leaf{doc: d, idx: i}
	}
	return out
}

// LeafAt returns the leaf containing byte offset pos.
func (d *Document) LeafAt(pos int) Leaf {
	d.ensure()
	return Leaf{doc: d, idx: d.part.LeafAt(pos)}
}

// Elements returns every element of every hierarchy in document order,
// from the index snapshot. Callers must not modify the result.
func (d *Document) Elements() []*Element {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.indexesLocked()
	return d.elemCache
}

// ElementsNamed returns every element with the given tag across all
// hierarchies, in document order, from the snapshot's name buckets.
// Callers must not modify the result.
func (d *Document) ElementsNamed(tag string) []*Element {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.indexesLocked()
	return d.nameIdx[tag]
}

// indexLiveLocked reports whether the index snapshot is built and
// current. d.mu must be held.
func (d *Document) indexLiveLocked() bool {
	return d.ordIdx != nil && d.idxVer == d.version
}

// indexesLocked brings the index snapshot up to date, rebuilding all of
// it when a mutation left it stale: the per-hierarchy pre-order arrays
// (which number every element's subtree interval), the document-order
// element list, the ordinals, the span index and the name buckets.
// d.mu must be held.
func (d *Document) indexesLocked() {
	d.ensureLocked()
	if d.indexLiveLocked() {
		return
	}
	n := 0
	for _, name := range d.order {
		h := d.hiers[name]
		buildPreorder(h)
		n += len(h.pre)
	}
	els := make([]*Element, 0, n)
	for _, name := range d.order {
		els = append(els, d.hiers[name].pre...)
	}
	sortElements(els)
	names := make(map[string][]*Element)
	for _, e := range els {
		names[e.name] = append(names[e.name], e)
	}
	d.elemCache = els
	d.ordIdx = d.buildOrdinals(els)
	d.spanIdx = buildSpanIndex(els)
	d.nameIdx = names
	d.idxVer = d.version
}

// sortElements orders elements in document order: by start offset, wider
// spans first, then by insertion sequence (stable for empty elements and
// equal spans, and deterministic across hierarchies).
func sortElements(es []*Element) {
	sort.SliceStable(es, func(i, j int) bool {
		c := document.CompareSpans(es[i].span, es[j].span)
		if c != 0 {
			return c < 0
		}
		return es[i].seq < es[j].seq
	})
}

// Root is the single root node shared by all hierarchy trees.
type Root struct {
	doc *Document
}

// Kind returns KindRoot.
func (r *Root) Kind() NodeKind { return KindRoot }

// Span covers the entire content.
func (r *Root) Span() document.Span {
	return document.NewSpan(0, r.doc.content.Len())
}

// Text returns the entire document content.
func (r *Root) Text() string { return r.doc.content.String() }

// Document returns the owning document.
func (r *Root) Document() *Document { return r.doc }

func (r *Root) isNode() {}

// Name returns the root element tag.
func (r *Root) Name() string { return r.doc.rootTag }

// Children returns the root's children in hierarchy h: the top-level
// elements of h interleaved with the leaves not covered by any of them.
func (r *Root) Children(h *Hierarchy) []Node {
	r.doc.ensure()
	return childNodes(r.doc, r.Span(), h.top)
}

// Leaf is a handle on the i-th text leaf. Leaves are shared by all
// hierarchies; they are identified by index, so handles stay cheap and
// remain valid as long as the document is not structurally mutated.
type Leaf struct {
	doc *Document
	idx int
}

// Kind returns KindLeaf.
func (l Leaf) Kind() NodeKind { return KindLeaf }

// Index returns the leaf's position in the leaf sequence.
func (l Leaf) Index() int { return l.idx }

// Span returns the content interval of the leaf.
func (l Leaf) Span() document.Span { return l.doc.part.LeafSpan(l.idx) }

// Text returns the leaf's content fragment.
func (l Leaf) Text() string { return l.doc.content.Slice(l.Span()) }

// Document returns the owning document.
func (l Leaf) Document() *Document { return l.doc }

func (l Leaf) isNode() {}

// Parent returns the leaf's parent in hierarchy h: the innermost element
// of h dominating the leaf, or the root if no element of h covers it.
func (l Leaf) Parent(h *Hierarchy) Node {
	if e := h.innermostCovering(l.Span()); e != nil {
		return e
	}
	return l.doc.root
}

// Parents returns the leaf's parents across all hierarchies, one node per
// hierarchy in hierarchy creation order. This is the multi-parent edge set
// that makes the GODDAG a DAG rather than a tree.
func (l Leaf) Parents() []Node {
	out := make([]Node, 0, len(l.doc.order))
	for _, name := range l.doc.order {
		out = append(out, l.Parent(l.doc.hiers[name]))
	}
	return out
}

// Next returns the following leaf and ok=false at the last leaf.
func (l Leaf) Next() (Leaf, bool) {
	if l.idx+1 >= l.doc.part.NumLeaves() {
		return Leaf{}, false
	}
	return Leaf{doc: l.doc, idx: l.idx + 1}, true
}

// Prev returns the preceding leaf and ok=false at the first leaf.
func (l Leaf) Prev() (Leaf, bool) {
	if l.idx == 0 {
		return Leaf{}, false
	}
	return Leaf{doc: l.doc, idx: l.idx - 1}, true
}
