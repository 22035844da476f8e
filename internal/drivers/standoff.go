package drivers

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/document"
	"repro/internal/goddag"
	"repro/internal/xmlscan"
)

// The standoff representation stores the text once and all markup as
// offset-addressed annotation records:
//
//	<standoff root="r">
//	  <text>swa hw&#230;t ...</text>
//	  <hierarchy name="physical">
//	    <el tag="line" start="0" end="12">
//	      <at n="n" v="1"/>
//	    </el>
//	  </hierarchy>
//	  ...
//	</standoff>
//
// Offsets in the standoff file are *rune* offsets into the text — the
// paper's character positions, stable across tools regardless of how the
// text is encoded. The GODDAG carries byte spans internally, so the
// encoder and decoder convert at this boundary through the content's
// memoized byte↔rune index; the conversion is exact (markup borders
// always fall on rune boundaries), keeping encode/decode lossless for
// any GODDAG.

// EncodeStandoff renders doc in the standoff representation.
func EncodeStandoff(doc *goddag.Document, opts EncodeOptions) ([]byte, error) {
	hs, err := selectHierarchies(doc, opts)
	if err != nil {
		return nil, err
	}
	content := doc.Content()
	var b strings.Builder
	fmt.Fprintf(&b, "<standoff root=\"%s\">\n", xmlscan.EscapeAttr(doc.RootTag()))
	fmt.Fprintf(&b, "  <text>%s</text>\n", xmlscan.EscapeText(content.String()))
	for _, h := range hs {
		fmt.Fprintf(&b, "  <hierarchy name=\"%s\">\n", xmlscan.EscapeAttr(h.Name()))
		for _, e := range h.Elements() {
			sp := content.RuneSpan(e.Span())
			if len(e.Attrs()) == 0 {
				fmt.Fprintf(&b, "    <el tag=\"%s\" start=\"%d\" end=\"%d\"/>\n", xmlscan.EscapeAttr(e.Name()), sp.Start, sp.End)
				continue
			}
			fmt.Fprintf(&b, "    <el tag=\"%s\" start=\"%d\" end=\"%d\">\n", xmlscan.EscapeAttr(e.Name()), sp.Start, sp.End)
			for _, a := range e.Attrs() {
				fmt.Fprintf(&b, "      <at n=\"%s\" v=\"%s\"/>\n", xmlscan.EscapeAttr(a.Name), xmlscan.EscapeAttr(a.Value))
			}
			b.WriteString("    </el>\n")
		}
		b.WriteString("  </hierarchy>\n")
	}
	b.WriteString("</standoff>\n")
	return []byte(b.String()), nil
}

// DecodeStandoff parses the standoff representation into a GODDAG. The
// document's names and attribute values alias data. The root tag,
// element tags and attribute names arrive as attribute values, so they
// are checked to be XML names, and an element's attribute names to be
// distinct and outside the reserved chx- prefix: the other formats write
// them as names. Hierarchy names must fit a chx-hierarchies list. A hierarchy lists
// its elements in pre-order, outer before inner on equal spans, so among
// equal spans the element listed last is the inner one.
func DecodeStandoff(data []byte) (*goddag.Document, error) {
	var (
		set     recordSet
		text    strings.Builder
		rootTag string
		sawText bool
		inText  bool
		hier    = -1 // current <hierarchy>, -1 outside
		el      = -1 // record of the open <el>, -1 outside
		attrLo  int  // el's first attribute in the arena
	)
	set.grow(data)
	err := scan(data, func(tok *xmlscan.Token) error {
		switch tok.Kind {
		case xmlscan.KindStartElement:
			switch tok.Name {
			case "standoff":
				rootTag, _ = tok.Attr("root")
				if rootTag == "" {
					return fmt.Errorf("missing root attribute")
				}
				if !xmlscan.IsName(rootTag) {
					return fmt.Errorf("root tag %q is not an XML name", rootTag)
				}
			case "text":
				if tok.SelfClosing {
					sawText = true
					break
				}
				inText = true
			case "hierarchy":
				name, ok := tok.Attr("name")
				if !ok || name == "" {
					return fmt.Errorf("hierarchy without name")
				}
				if err := checkHierName(name); err != nil {
					return err
				}
				if hier >= 0 {
					return fmt.Errorf("<hierarchy> inside <hierarchy>")
				}
				hier = set.hier(name)
				if tok.SelfClosing {
					hier = -1
				}
			case "el":
				if hier < 0 {
					return fmt.Errorf("<el> outside <hierarchy>")
				}
				if el >= 0 {
					return fmt.Errorf("<el> inside <el>")
				}
				tag, _ := tok.Attr("tag")
				startS, _ := tok.Attr("start")
				endS, _ := tok.Attr("end")
				if tag == "" || startS == "" || endS == "" {
					return fmt.Errorf("el needs tag/start/end at offset %d", tok.Offset)
				}
				if !xmlscan.IsName(tag) {
					return fmt.Errorf("el tag %q is not an XML name", tag)
				}
				start, err1 := strconv.Atoi(startS)
				end, err2 := strconv.Atoi(endS)
				if err1 != nil || err2 != nil || start < 0 || end < start {
					return fmt.Errorf("bad offsets %q..%q", startS, endS)
				}
				// Rune offsets until the text is known.
				set.add(hier, tag, nil, document.NewSpan(start, end), -len(set.recs))
				if !tok.SelfClosing {
					el, attrLo = len(set.recs)-1, len(set.arena)
				}
			case "at":
				if el < 0 {
					return fmt.Errorf("<at> outside <el>")
				}
				n, _ := tok.Attr("n")
				v, _ := tok.Attr("v")
				if n == "" {
					return fmt.Errorf("<at> without n")
				}
				if !xmlscan.IsName(n) {
					return fmt.Errorf("attribute name %q is not an XML name", n)
				}
				if strings.HasPrefix(n, "chx-") {
					return fmt.Errorf("attribute name %q is reserved for the milestone and fragmentation formats", n)
				}
				for _, a := range set.arena[attrLo:] {
					if a.Name == n {
						return fmt.Errorf("duplicate attribute %q", n)
					}
				}
				set.arena = append(set.arena, goddag.Attr{Name: n, Value: v})
			default:
				return fmt.Errorf("unexpected element <%s>", tok.Name)
			}
		case xmlscan.KindEndElement:
			switch tok.Name {
			case "text":
				inText = false
				sawText = true
			case "el":
				if el >= 0 {
					set.recs[el].Attrs = set.attrsFrom(attrLo)
					el = -1
				}
			case "hierarchy":
				hier = -1
			}
		case xmlscan.KindText:
			if inText {
				text.WriteString(tok.Text)
			} else if strings.TrimSpace(tok.Text) != "" {
				return fmt.Errorf("stray text %q", tok.Text)
			}
		}
		return nil
	})
	switch {
	case err != nil:
	case rootTag == "":
		err = fmt.Errorf("no <standoff> element")
	case !sawText:
		err = fmt.Errorf("no <text> element")
	default:
		err = byteSpans(text.String(), set.recs, set.hiers)
	}
	return set.load("standoff", rootTag, text.String(), err)
}

// byteSpans converts the records' rune spans into byte spans of text
// through a table of every rune's byte offset, built in one pass. hiers
// names the records' hierarchies for errors.
func byteSpans(text string, recs []goddag.Record, hiers []string) error {
	at := make([]int, 0, len(text)+1)
	for i := range text {
		at = append(at, i)
	}
	at = append(at, len(text))
	for i := range recs {
		sp := recs[i].Span
		if sp.End >= len(at) {
			return fmt.Errorf("%s:%s %v exceeds text length %d", hiers[recs[i].Hier], recs[i].Tag, sp, len(at)-1)
		}
		recs[i].Span = document.NewSpan(at[sp.Start], at[sp.End])
	}
	return nil
}
