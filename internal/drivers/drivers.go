// Package drivers converts between the GODDAG and the proposed on-disk
// representations of concurrent XML markup (paper §4, "Document
// manipulation"; reference [2]):
//
//   - Distributed: one XML document per hierarchy, all with the same
//     content and root (the native input of the SACX parser).
//   - Milestones: a single XML document; one dominant hierarchy keeps its
//     tree structure, every other element becomes a pair of empty
//     milestone tags (TEI's second suggested workaround).
//   - Fragmentation: a single XML document; overlapping elements are
//     split into fragments that nest properly, chained together with
//     part/next attributes (TEI's first suggested workaround).
//   - Standoff: the bare text plus a table of (hierarchy, tag, start,
//     end, attrs) annotations addressed by rune offsets.
//
// Every driver decodes to a *goddag.Document and encodes from one, so any
// representation converts to any other through the GODDAG, and a subset
// of hierarchies can be selected on export (the demo's filtering feature).
//
// Decoding is one record stream. The distributed form goes through
// sacx.Build; each single-file decoder makes one scanner pass that
// collects the content and one goddag.Record per element, and Filter
// reads its records off the source document. goddag's
// Document.LoadRecords orders them and streams them through the
// BulkBuilder. A decoder's only say in the order is Seq, which ranks
// equal spans of one hierarchy, innermost first.
package drivers

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode"

	"repro/internal/document"
	"repro/internal/goddag"
	"repro/internal/xmlscan"
)

// Format identifies a concurrent-markup representation.
type Format int

// The supported representations.
const (
	FormatDistributed Format = iota
	FormatMilestones
	FormatFragmentation
	FormatStandoff
)

// String returns the format name.
func (f Format) String() string {
	switch f {
	case FormatDistributed:
		return "distributed"
	case FormatMilestones:
		return "milestones"
	case FormatFragmentation:
		return "fragmentation"
	case FormatStandoff:
		return "standoff"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ParseFormat resolves a format name.
func ParseFormat(name string) (Format, error) {
	switch name {
	case "distributed":
		return FormatDistributed, nil
	case "milestones":
		return FormatMilestones, nil
	case "fragmentation":
		return FormatFragmentation, nil
	case "standoff":
		return FormatStandoff, nil
	default:
		return 0, fmt.Errorf("drivers: unknown format %q", name)
	}
}

// EncodeOptions control single-document encoders.
type EncodeOptions struct {
	// Dominant names the hierarchy that keeps its tree structure in the
	// milestone and fragmentation representations. Empty means the first
	// hierarchy of the document.
	Dominant string
	// Hierarchies selects the hierarchies to include (the filtering
	// feature). Nil means all.
	Hierarchies []string
}

// selectHierarchies resolves opts.Hierarchies against doc, preserving
// document hierarchy order.
func selectHierarchies(doc *goddag.Document, opts EncodeOptions) ([]*goddag.Hierarchy, error) {
	if opts.Hierarchies == nil {
		return doc.Hierarchies(), nil
	}
	want := map[string]bool{}
	for _, n := range opts.Hierarchies {
		if doc.Hierarchy(n) == nil {
			return nil, fmt.Errorf("drivers: unknown hierarchy %q", n)
		}
		want[n] = true
	}
	var out []*goddag.Hierarchy
	for _, h := range doc.Hierarchies() {
		if want[h.Name()] {
			out = append(out, h)
		}
	}
	return out, nil
}

// dominantOf resolves the dominant hierarchy among hs.
func dominantOf(hs []*goddag.Hierarchy, opts EncodeOptions) (*goddag.Hierarchy, error) {
	if len(hs) == 0 {
		return nil, fmt.Errorf("drivers: document has no hierarchies")
	}
	if opts.Dominant == "" {
		return hs[0], nil
	}
	for _, h := range hs {
		if h.Name() == opts.Dominant {
			return h, nil
		}
	}
	return nil, fmt.Errorf("drivers: dominant hierarchy %q not selected", opts.Dominant)
}

// Filter returns a new GODDAG containing only the selected hierarchies of
// doc — the demo's "partially viewing and/or exporting a subset of
// document encodings". The content and root tag are preserved; leaf
// boundaries are recomputed from the surviving markup. The copy owns its
// strings, so it outlives doc and whatever doc's strings alias (a mapped
// store image, a decoder's input).
func Filter(doc *goddag.Document, hierarchies ...string) (*goddag.Document, error) {
	want := map[string]bool{}
	for _, n := range hierarchies {
		if doc.Hierarchy(n) == nil {
			return nil, fmt.Errorf("drivers: unknown hierarchy %q", n)
		}
		want[n] = true
	}
	names := map[string]string{}
	intern := func(s string) string {
		if _, ok := names[s]; !ok {
			names[s] = strings.Clone(s)
		}
		return names[s]
	}
	var set recordSet
	for _, h := range doc.Hierarchies() {
		if !want[h.Name()] {
			continue
		}
		hier := set.hier(intern(h.Name()))
		// Elements come in pre-order, outer before inner on equal
		// spans: number them in reverse.
		for _, e := range h.Elements() {
			lo := len(set.arena)
			for _, a := range e.Attrs() {
				set.arena = append(set.arena, goddag.Attr{Name: intern(a.Name), Value: strings.Clone(a.Value)})
			}
			set.add(hier, intern(e.Name()), set.attrsFrom(lo), e.Span(), -len(set.recs))
		}
	}
	return set.load("filter", strings.Clone(doc.RootTag()), strings.Clone(doc.Content().String()), nil)
}

// checkHierName rejects a hierarchy name that a chx-hierarchies list
// cannot hold: the list is separated by white space.
func checkHierName(name string) error {
	if name == "" || strings.IndexFunc(name, unicode.IsSpace) >= 0 {
		return fmt.Errorf("bad hierarchy name %q", name)
	}
	return nil
}

// scan makes a single-file decoder's one pass over data, handing every
// token to visit. CDATA arrives as text; a start tag's attributes are
// valid only until visit returns.
func scan(data []byte, visit func(tok *xmlscan.Token) error) error {
	sc := xmlscan.New(data, xmlscan.Options{CoalesceCDATA: true, ReuseAttrs: true})
	var tok xmlscan.Token
	for {
		if err := sc.NextInto(&tok); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if err := visit(&tok); err != nil {
			return err
		}
	}
}

// recordSet gathers a decoder's element records for
// goddag.Document.LoadRecords: hierarchy positions by name, in order of
// first use, and attribute copies in one arena.
type recordSet struct {
	hiers []string
	pos   map[string]int
	recs  []goddag.Record
	arena []goddag.Attr
}

// rootHiers registers the hierarchies a root start tag lists in
// chx-hierarchies ("main" when it lists none) and returns their names.
func (s *recordSet) rootHiers(root *xmlscan.Token) []string {
	names := []string{"main"}
	if hl, ok := root.Attr(attrHierarchies); ok {
		names = strings.Fields(hl)
	}
	for _, n := range names {
		s.hier(n)
	}
	return names
}

// grow pre-sizes the record and attribute lists from upper bounds: an
// element has one start tag ('<' but not "</"), an attribute one '='.
func (s *recordSet) grow(data []byte) {
	starts := bytes.Count(data, []byte{'<'}) - bytes.Count(data, []byte("</"))
	s.recs = make([]goddag.Record, 0, max(starts, 0))
	s.arena = make([]goddag.Attr, 0, bytes.Count(data, []byte{'='}))
}

// hier returns the position of the named hierarchy, registering it on
// first use.
func (s *recordSet) hier(name string) int {
	if i, ok := s.pos[name]; ok {
		return i
	}
	if s.pos == nil {
		s.pos = make(map[string]int)
	}
	s.pos[name] = len(s.hiers)
	s.hiers = append(s.hiers, name)
	return len(s.hiers) - 1
}

// attrsFrom returns the arena's attributes from lo on, nil when there
// are none. The capped slice keeps later arena appends off it.
func (s *recordSet) attrsFrom(lo int) []goddag.Attr {
	if len(s.arena) == lo {
		return nil
	}
	return s.arena[lo:len(s.arena):len(s.arena)]
}

// plainAttrs copies scanner attributes into the arena, dropping the
// reserved chx-* names.
func (s *recordSet) plainAttrs(attrs []xmlscan.Attr) []goddag.Attr {
	lo := len(s.arena)
	for _, a := range attrs {
		if !strings.HasPrefix(a.Name, "chx-") {
			s.arena = append(s.arena, goddag.Attr{Name: a.Name, Value: a.Value})
		}
	}
	return s.attrsFrom(lo)
}

func (s *recordSet) add(hier int, tag string, attrs []goddag.Attr, span document.Span, seq int) {
	s.recs = append(s.recs, goddag.Record{Hier: hier, Tag: tag, Attrs: attrs, Span: span, Seq: seq})
}

// load builds the records into a new document, unless err, the error of
// the pass that collected them, is set. Errors carry the format's name.
func (s *recordSet) load(format, rootTag, content string, err error) (*goddag.Document, error) {
	if err == nil {
		doc := goddag.New(rootTag, content)
		for _, n := range s.hiers {
			doc.AddHierarchy(n)
		}
		if err = doc.LoadRecords(s.recs); err == nil {
			return doc, nil
		}
	}
	return nil, fmt.Errorf("drivers: %s: %w", format, err)
}

// orderForNesting is a helper ordering elements for single-document
// serialization: by start, wider first, stable by hierarchy priority.
func orderForNesting(es []*goddag.Element, priority map[string]int) {
	sort.SliceStable(es, func(i, j int) bool {
		a, b := es[i].Span(), es[j].Span()
		if c := document.CompareSpans(a, b); c != 0 {
			return c < 0
		}
		return priority[es[i].Hierarchy().Name()] < priority[es[j].Hierarchy().Name()]
	})
}
