// Package core assembles the paper's framework (Figure 3): parsing
// concurrent XML into a GODDAG, DOM-style access, Extended XPath
// querying, prevalidated editing, validation, and import/export across
// the representations of concurrent markup.
//
// A core.Document couples a GODDAG with a concurrent markup schema (one
// DTD per hierarchy) and exposes the whole pipeline behind one type.
// The root package repro re-exports this API.
package core

import (
	"fmt"
	"io"

	"repro/internal/drivers"
	"repro/internal/dtd"
	"repro/internal/editor"
	"repro/internal/goddag"
	"repro/internal/sacx"
	"repro/internal/store"
	"repro/internal/validate"
	"repro/internal/xpath"
	"repro/internal/xquery"
)

// Document is a multihierarchical document-centric XML document: shared
// content, concurrent hierarchies over it, and their DTDs.
type Document struct {
	schema  *validate.Schema
	session *editor.Session // lazily created; owns the live GODDAG
}

// New creates an empty document with the given shared root tag and
// character content.
func New(rootTag, content string) *Document {
	return wrap(goddag.New(rootTag, content))
}

func wrap(g *goddag.Document) *Document {
	schema := validate.NewSchema()
	return &Document{
		schema:  schema,
		session: editor.NewSession(g, schema, editor.Options{}),
	}
}

// FromGODDAG wraps an existing GODDAG — the store's mapped open path
// builds the goddag document first (lazily materializing off the file
// mapping) and needs the same editor session shell Load provides.
func FromGODDAG(g *goddag.Document) *Document { return wrap(g) }

// Parse builds a document from a distributed concurrent XML document
// (one XML document per hierarchy) using the SACX parser, through the
// drivers' distributed import path.
func Parse(sources []sacx.Source) (*Document, error) {
	g, err := drivers.DecodeDistributedOrdered(sources)
	if err != nil {
		return nil, err
	}
	return wrap(g), nil
}

// Import decodes a single-file representation (milestones,
// fragmentation, or standoff).
func Import(format drivers.Format, data []byte) (*Document, error) {
	var g *goddag.Document
	var err error
	switch format {
	case drivers.FormatMilestones:
		g, err = drivers.DecodeMilestones(data)
	case drivers.FormatFragmentation:
		g, err = drivers.DecodeFragmentation(data)
	case drivers.FormatStandoff:
		g, err = drivers.DecodeStandoff(data)
	case drivers.FormatDistributed:
		return nil, fmt.Errorf("core: use Parse for the distributed representation")
	default:
		return nil, fmt.Errorf("core: unknown format %v", format)
	}
	if err != nil {
		return nil, err
	}
	return wrap(g), nil
}

// GODDAG returns the live GODDAG for direct navigation.
func (d *Document) GODDAG() *goddag.Document { return d.session.Document() }

// Schema returns the document's concurrent markup schema.
func (d *Document) Schema() *validate.Schema { return d.schema }

// SetDTD attaches a DTD (source text) to a hierarchy.
func (d *Document) SetDTD(hierarchy string, src []byte) error {
	parsed, err := dtd.Parse(hierarchy, src)
	if err != nil {
		return err
	}
	d.schema.Add(hierarchy, parsed)
	return nil
}

// Query evaluates an Extended XPath query and returns its node-set.
func (d *Document) Query(query string) ([]goddag.Node, error) {
	return xpath.Select(d.GODDAG(), query)
}

// QueryValue evaluates an Extended XPath query that may return any value
// type (number, string, boolean, or node-set).
func (d *Document) QueryValue(query string) (xpath.Value, error) {
	q, err := xpath.Compile(query)
	if err != nil {
		return xpath.Value{}, err
	}
	return q.Eval(d.GODDAG())
}

// QueryFLWOR runs a for/let/where/order by/return query (package xquery,
// the paper's XQuery extension) and returns one value per result tuple.
func (d *Document) QueryFLWOR(src string) ([]xpath.Value, error) {
	q, err := xquery.Compile(src)
	if err != nil {
		return nil, err
	}
	return q.Eval(d.GODDAG())
}

// Edit returns the document's editing session (created on first use with
// prevalidation enabled when the schema has DTDs).
func (d *Document) Edit() *editor.Session { return d.session }

// EnablePrevalidation turns the prevalidation veto on for subsequent
// insertions. The session is toggled in place: history, change
// listeners, and any open transaction stay intact.
func (d *Document) EnablePrevalidation() { d.session.SetPrevalidate(true) }

// SetPrevalidation sets the prevalidation veto in place (see
// EnablePrevalidation).
func (d *Document) SetPrevalidation(on bool) { d.session.SetPrevalidate(on) }

// Validate checks every hierarchy with a DTD.
func (d *Document) Validate(mode validate.Mode) []validate.Violation {
	return validate.Document(d.GODDAG(), d.schema, mode)
}

// Export encodes the document in the given representation. The
// distributed representation returns one entry per hierarchy; the
// single-file representations return one entry keyed "document".
func (d *Document) Export(format drivers.Format, opts drivers.EncodeOptions) (map[string][]byte, error) {
	g := d.GODDAG()
	switch format {
	case drivers.FormatDistributed:
		return drivers.EncodeDistributed(g, opts)
	case drivers.FormatMilestones:
		data, err := drivers.EncodeMilestones(g, opts)
		if err != nil {
			return nil, err
		}
		return map[string][]byte{"document": data}, nil
	case drivers.FormatFragmentation:
		data, err := drivers.EncodeFragmentation(g, opts)
		if err != nil {
			return nil, err
		}
		return map[string][]byte{"document": data}, nil
	case drivers.FormatStandoff:
		data, err := drivers.EncodeStandoff(g, opts)
		if err != nil {
			return nil, err
		}
		return map[string][]byte{"document": data}, nil
	default:
		return nil, fmt.Errorf("core: unknown format %v", format)
	}
}

// Filter returns a new document restricted to the given hierarchies (the
// demo's filtering feature). DTDs of surviving hierarchies carry over.
func (d *Document) Filter(hierarchies ...string) (*Document, error) {
	g, err := drivers.Filter(d.GODDAG(), hierarchies...)
	if err != nil {
		return nil, err
	}
	nd := wrap(g)
	for _, h := range hierarchies {
		if dt := d.schema.DTD(h); dt != nil {
			nd.schema.Add(h, dt)
		}
	}
	return nd, nil
}

// Stats summarizes the document.
func (d *Document) Stats() goddag.Stats { return d.GODDAG().Stats() }

// Save writes the document as a v3 .gdag image (package store's
// section-table format, the one the catalog and cxparse -save write) —
// the persistent-storage component the paper lists as ongoing work.
// DTDs are not stored; reattach them after Load.
func (d *Document) Save(w io.Writer) error {
	return store.EncodeV3(w, d.GODDAG())
}

// Load reads a document saved with Save, or a legacy v2 stream.
func Load(r io.Reader) (*Document, error) {
	g, err := store.Decode(r)
	if err != nil {
		return nil, err
	}
	return wrap(g), nil
}
