package drivers

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/goddag"
	"repro/internal/sacx"
)

// EncodeDistributed renders doc as a distributed document: one standalone
// XML document per selected hierarchy, keyed by hierarchy name.
func EncodeDistributed(doc *goddag.Document, opts EncodeOptions) (map[string][]byte, error) {
	hs, err := selectHierarchies(doc, opts)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(hs))
	for _, h := range hs {
		data, err := sacx.Split(doc, h.Name())
		if err != nil {
			return nil, err
		}
		out[h.Name()] = data
	}
	return out, nil
}

// DecodeDistributed parses a distributed document (one XML document per
// hierarchy) into a GODDAG. Hierarchies are added in sorted key order for
// determinism; use DecodeDistributedOrdered to control the order.
func DecodeDistributed(docs map[string][]byte) (*goddag.Document, error) {
	names := make([]string, 0, len(docs))
	for n := range docs {
		names = append(names, n)
	}
	sort.Strings(names)
	srcs := make([]sacx.Source, 0, len(names))
	for _, n := range names {
		srcs = append(srcs, sacx.Source{Hierarchy: n, Data: docs[n]})
	}
	return DecodeDistributedOrdered(srcs)
}

// DecodeDistributedOrdered parses hierarchy documents in the given order.
// It is the distributed import path (DecodeDistributed and core.Parse
// come here) and, like DecodeStandoff, rejects attribute names with the
// chx- prefix the milestone and fragmentation encoders reserve for their
// markers: a document carrying one would encode into a file its own
// decoder misreads. sacx.Build itself keeps accepting them, since it is
// also the plain XML reader of those encodings.
func DecodeDistributedOrdered(srcs []sacx.Source) (*goddag.Document, error) {
	if len(srcs) == 0 {
		return nil, fmt.Errorf("drivers: no sources")
	}
	doc, err := sacx.Build(srcs)
	if err != nil {
		return nil, err
	}
	if err := reservedAttrs(doc); err != nil {
		return nil, err
	}
	return doc, nil
}

// reservedAttrs reports the first chx- attribute name in doc.
func reservedAttrs(doc *goddag.Document) error {
	for _, e := range doc.Elements() {
		for _, a := range e.Attrs() {
			if strings.HasPrefix(a.Name, "chx-") {
				return fmt.Errorf("drivers: %s element <%s>: attribute name %q is reserved for the milestone and fragmentation formats", e.Hierarchy().Name(), e.Name(), a.Name)
			}
		}
	}
	return nil
}
