package cliutil

import (
	"repro/internal/goddag"
	"repro/internal/xpath"
)

// This file is the reference renderer: the wire types clients decode
// into and the materializing encoders that build them. cxquery and
// cxserve render through stream.go; encoding/json over EncodeValue is
// the oracle those append encoders are held to byte for byte.

// SpanJSON is a half-open offset interval in a JSON result.
type SpanJSON struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// NodeJSON is the wire form of one result node: its place in the GODDAG
// (kind, hierarchy, tag or leaf index) and its extent as both byte and
// rune offsets into the shared content. Text is the full dominated text.
type NodeJSON struct {
	Kind      string   `json:"kind"` // "root", "element", or "leaf"
	Hierarchy string   `json:"hierarchy,omitempty"`
	Tag       string   `json:"tag,omitempty"`
	Leaf      int      `json:"leaf,omitempty"`
	ByteSpan  SpanJSON `json:"byteSpan"`
	RuneSpan  SpanJSON `json:"runeSpan"`
	Text      string   `json:"text"`
}

// AttrJSON is the wire form of one attribute-axis result.
type AttrJSON struct {
	Owner string `json:"owner"` // owning element tag
	Name  string `json:"name"`
	Value string `json:"value"`
}

// ValueJSON is the wire form of one Extended XPath result value.
type ValueJSON struct {
	Type  string     `json:"type"` // "node-set", "attribute-set", "string", "number", "boolean"
	Count int        `json:"count"`
	Nodes []NodeJSON `json:"nodes,omitempty"`
	Attrs []AttrJSON `json:"attrs,omitempty"`
	Value string     `json:"value,omitempty"` // scalar results, XPath string form
	// Truncated is set when limit cut the node/attr list short; Count
	// still reports the full result size.
	Truncated bool `json:"truncated,omitempty"`
}

// EncodeNode converts a result node to its wire form. It converts
// spans through the content's rune index, not a NodeEncoder's cursors,
// so the append encoders are checked against an independent path.
func EncodeNode(n goddag.Node) NodeJSON {
	sp := n.Span()
	rs := n.Document().Content().RuneSpan(sp)
	out := NodeJSON{
		ByteSpan: SpanJSON{Start: sp.Start, End: sp.End},
		RuneSpan: SpanJSON{Start: rs.Start, End: rs.End},
		Text:     n.Text(),
	}
	switch v := n.(type) {
	case *goddag.Element:
		out.Kind = "element"
		out.Hierarchy = v.Hierarchy().Name()
		out.Tag = v.Name()
	case goddag.Leaf:
		out.Kind = "leaf"
		out.Leaf = v.Index()
	default:
		out.Kind = "root"
		out.Tag = n.Document().RootTag()
	}
	return out
}

// EncodeValue converts a query result to its wire form. A limit > 0 caps
// the number of encoded nodes/attributes (Count keeps the true size and
// Truncated is set); limit <= 0 encodes everything.
func EncodeValue(v xpath.Value, limit int) ValueJSON {
	if !v.IsNodeSet() {
		return ValueJSON{Type: v.Kind(), Count: 1, Value: v.String()}
	}
	attrs, nodes := v.Attrs(), v.Nodes() // one of them is empty
	out := ValueJSON{Type: v.Kind(), Count: len(attrs) + len(nodes)}
	if limit > 0 && out.Count > limit {
		attrs, nodes, out.Truncated = attrs[:min(limit, len(attrs))], nodes[:min(limit, len(nodes))], true
	}
	for _, a := range attrs {
		out.Attrs = append(out.Attrs, AttrJSON{Owner: a.Owner.Name(), Name: a.Name, Value: a.Value})
	}
	for _, n := range nodes {
		out.Nodes = append(out.Nodes, EncodeNode(n))
	}
	return out
}

// FormatNode renders one result node as the cxquery line format:
//
//	hierarchy:tag[lo,hi) "text"    (elements)
//	leaf#i[lo,hi) "text"           (leaves)
//	root:tag "text"                (the root)
//
// Printed spans are character (rune) positions — the paper's coordinates
// — converted from the internal byte spans at this output edge. Text is
// clipped to 60 runes.
func FormatNode(n goddag.Node) string {
	return string(AppendNodeText(nil, n))
}
