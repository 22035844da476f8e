package cliutil

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/document"
	"repro/internal/goddag"
	"repro/internal/xpath"
)

// This file is the one query-result renderer cxquery and cxserve call:
// append-style encoders that write one node, attribute or scalar at a
// time, so a result of any size renders with constant scratch memory.
// Its bytes are pinned to the reference renderer in results.go:
// AppendValueJSON produces exactly encoding/json (SetEscapeHTML false)
// of EncodeValue, and AppendNodeText exactly FormatNode; equivalence
// tests in this package compare them byte for byte.

// NodeSource is the pull contract the stream encoders consume: Next
// returns nodes in document order and (nil, nil) at the end; Size
// reports the exact remaining count or -1 when unknown. xpath.Stream
// satisfies it. A Next error aborts the encode and propagates to the
// caller unchanged — that is how evaluation cancellation (a context
// deadline or an exhausted xpath.Budget mid-stream) flows through the
// encoders, so a consumer can still classify the error by identity.
type NodeSource interface {
	Next() (goddag.Node, error)
	Size() int
}

const jsonHex = "0123456789abcdef"

// digitPairs holds all two-digit decimal strings back to back, so the
// integer appender emits two digits per division.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// AppendUint appends the decimal form of v, which must be non-negative
// — true of every quantity the encoders emit (offsets, counts, indexes,
// durations). It exists because strconv.AppendInt's generic formatter
// was a measurable share of large-response encoding time: this one
// extends dst by the exact width, then fills digit pairs in place, so
// there is no scratch buffer to copy out of.
func AppendUint(dst []byte, v int64) []byte {
	u := uint64(v)
	if u < 10 {
		return append(dst, byte('0'+u))
	}
	if u < 100 {
		j := u * 2
		return append(dst, digitPairs[j], digitPairs[j+1])
	}
	n := 3
	for p := uint64(1000); u >= p && n < 20; p *= 10 {
		n++
	}
	dst = append(dst, "00000000000000000000"[:n]...)
	i := len(dst)
	for u >= 100 {
		q := u / 100
		j := (u - q*100) * 2
		i -= 2
		dst[i] = digitPairs[j]
		dst[i+1] = digitPairs[j+1]
		u = q
	}
	if u >= 10 {
		j := u * 2
		dst[i-2] = digitPairs[j]
		dst[i-1] = digitPairs[j+1]
	} else {
		dst[i-1] = byte('0' + u)
	}
	return dst
}

// AppendJSONString appends s as a JSON string literal, byte-identical
// to encoding/json with HTML escaping disabled: quotes and backslashes
// escaped, control bytes as \b \f \n \r \t or \u00XX, invalid UTF-8 as
// �, and U+2028/U+2029 escaped for JSONP safety.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', jsonHex[b>>4], jsonHex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', jsonHex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	dst = append(dst, '"')
	return dst
}

func appendSpanJSON(dst []byte, start, end int) []byte {
	dst = append(dst, `{"start":`...)
	dst = AppendUint(dst, int64(start))
	dst = append(dst, `,"end":`...)
	dst = AppendUint(dst, int64(end))
	dst = append(dst, '}')
	return dst
}

// NodeEncoder carries the incremental state of one node-set rendering
// pass: a pair of rune cursors (one for span starts, one for ends) that
// make byte→rune conversion amortized O(1) when nodes arrive in
// document order, which streamed node-sets always do. The zero value is
// ready to use; a NodeEncoder must not be shared across goroutines or
// across document mutations.
type NodeEncoder struct {
	content *document.Content
	starts  document.RuneCursor
	ends    document.RuneCursor
}

// runeSpan converts sp through the cursors, re-anchoring them when the
// content changes (first node, or a new document mid-stream).
func (e *NodeEncoder) runeSpan(content *document.Content, sp document.Span) document.Span {
	if e.content != content {
		e.content = content
		e.starts = content.RuneCursor()
		e.ends = content.RuneCursor()
	}
	return document.Span{Start: e.starts.RuneOffset(sp.Start), End: e.ends.RuneOffset(sp.End)}
}

// AppendNodeJSON appends the NodeJSON wire form of n, byte-identical to
// marshalling EncodeNode(n) with encoding/json and SetEscapeHTML(false)
// — including the omitempty behaviour of the hierarchy, tag and leaf
// fields.
func AppendNodeJSON(dst []byte, n goddag.Node) []byte {
	var e NodeEncoder
	return e.AppendNodeJSON(dst, n)
}

// AppendNodeJSON is the cursor-carrying form of the package function.
func (e *NodeEncoder) AppendNodeJSON(dst []byte, n goddag.Node) []byte {
	content := n.Document().Content()
	sp := n.Span()
	dst = append(dst, `{"kind":`...)
	switch v := n.(type) {
	case *goddag.Element:
		dst = append(dst, `"element"`...)
		if h := v.Hierarchy().Name(); h != "" {
			dst = append(dst, `,"hierarchy":`...)
			dst = AppendJSONString(dst, h)
		}
		if tag := v.Name(); tag != "" {
			dst = append(dst, `,"tag":`...)
			dst = AppendJSONString(dst, tag)
		}
	case goddag.Leaf:
		dst = append(dst, `"leaf"`...)
		if idx := v.Index(); idx != 0 {
			dst = append(dst, `,"leaf":`...)
			dst = AppendUint(dst, int64(idx))
		}
	default:
		dst = append(dst, `"root"`...)
		if tag := n.Document().RootTag(); tag != "" {
			dst = append(dst, `,"tag":`...)
			dst = AppendJSONString(dst, tag)
		}
	}
	dst = append(dst, `,"byteSpan":`...)
	dst = appendSpanJSON(dst, sp.Start, sp.End)
	rs := e.runeSpan(content, sp)
	dst = append(dst, `,"runeSpan":`...)
	dst = appendSpanJSON(dst, rs.Start, rs.End)
	dst = append(dst, `,"text":`...)
	dst = AppendJSONString(dst, n.Text())
	dst = append(dst, '}')
	return dst
}

func (e *NodeEncoder) appendRuneSpan(dst []byte, content *document.Content, sp document.Span) []byte {
	rs := e.runeSpan(content, sp)
	dst = append(dst, '[')
	dst = AppendUint(dst, int64(rs.Start))
	dst = append(dst, ',')
	dst = AppendUint(dst, int64(rs.End))
	dst = append(dst, ')')
	return dst
}

// appendClippedQuote appends the Go-quoted form of s clipped to 60
// runes (57 runes + "..." when longer), byte-identical to
// strconv.Quote(clip(s)) but without materializing the clipped string.
func appendClippedQuote(dst []byte, s string) []byte {
	runes, cut := 0, -1
	for i := range s {
		if runes == 57 {
			cut = i
		}
		runes++
		if runes > 60 {
			dst = strconv.AppendQuote(dst, s[:cut])
			// Splice the ellipsis inside the closing quote; dots need
			// no escaping, so this equals Quote(s[:cut] + "...").
			dst = dst[:len(dst)-1]
			return append(dst, '.', '.', '.', '"')
		}
	}
	return strconv.AppendQuote(dst, s)
}

// AppendNodeText appends the cxquery line format of n, byte-identical
// to FormatNode.
func AppendNodeText(dst []byte, n goddag.Node) []byte {
	var e NodeEncoder
	return e.AppendNodeText(dst, n)
}

// AppendNodeText is the cursor-carrying form of the package function.
func (e *NodeEncoder) AppendNodeText(dst []byte, n goddag.Node) []byte {
	content := n.Document().Content()
	switch v := n.(type) {
	case *goddag.Element:
		dst = append(dst, v.Hierarchy().Name()...)
		dst = append(dst, ':')
		dst = append(dst, v.Name()...)
		dst = e.appendRuneSpan(dst, content, v.Span())
		dst = append(dst, ' ')
		return appendClippedQuote(dst, v.Text())
	case goddag.Leaf:
		dst = append(dst, "leaf#"...)
		dst = AppendUint(dst, int64(v.Index()))
		dst = e.appendRuneSpan(dst, content, v.Span())
		dst = append(dst, ' ')
		return appendClippedQuote(dst, v.Text())
	default:
		dst = append(dst, "root:"...)
		dst = append(dst, n.Document().RootTag()...)
		dst = append(dst, ' ')
		return appendClippedQuote(dst, n.Text())
	}
}

// scratchPool recycles the per-call line buffers of the streaming
// writers, so sustained serving performs no per-node allocations.
var scratchPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// nodeFeed is the input of the one node loop: a NodeSource, or a
// materialized node set read in place. Holding the slice directly,
// rather than behind a NodeSource adapter, keeps a per-value adapter
// from escaping to the heap once per FLWOR tuple.
type nodeFeed struct {
	src NodeSource
	ns  []goddag.Node
}

func (f *nodeFeed) next() (goddag.Node, error) {
	if f.src != nil {
		return f.src.Next()
	}
	if len(f.ns) == 0 {
		return nil, nil
	}
	n := f.ns[0]
	f.ns = f.ns[1:]
	return n, nil
}

func (f *nodeFeed) size() int {
	if f.src != nil {
		return f.src.Size()
	}
	return len(f.ns)
}

// AppendNodeSetJSON appends the wire form of the node set src yields,
// as AppendValueJSON does for the same nodes. Past a limit > 0 the rest
// of src is drained (counted, not encoded) so "count" reports the full
// size. A src error is returned unchanged.
func AppendNodeSetJSON(dst []byte, src NodeSource, limit int) ([]byte, error) {
	dst, _, _, err := appendNodesJSON(dst, &nodeFeed{src: src}, limit)
	return dst, err
}

// appendNodesJSON is the one node loop of the JSON renderer. "count"
// precedes "nodes" on the wire, so when the source cannot size itself
// the count is spliced in once the drain has found it.
func appendNodesJSON(dst []byte, f *nodeFeed, limit int) ([]byte, int, bool, error) {
	dst = openValueJSON(dst, "node-set")
	total := f.size() // exact for slices and scan plans, -1 otherwise
	if total >= 0 {
		dst = AppendUint(dst, int64(total))
	}
	countAt := len(dst)
	written := 0
	var ne NodeEncoder // rune cursors amortize span conversion
	for limit <= 0 || written < limit {
		n, err := f.next()
		if err != nil {
			return dst, written, false, err
		}
		if n == nil {
			break
		}
		if written == 0 {
			dst = append(dst, `,"nodes":[`...)
		} else {
			dst = append(dst, ',')
		}
		dst = ne.AppendNodeJSON(dst, n)
		written++
	}
	if written > 0 {
		dst = append(dst, ']')
	}
	truncated := written < total
	if total < 0 {
		count := written
		for {
			n, err := f.next()
			if err != nil {
				return dst, written, false, err
			}
			if n == nil {
				break
			}
			count++
		}
		truncated = count > written
		var digits [20]byte
		dst = slices.Insert(dst, countAt, AppendUint(digits[:0], int64(count))...)
	}
	if truncated {
		dst = append(dst, `,"truncated":true`...)
	}
	return append(dst, '}'), written, truncated, nil
}

// openValueJSON starts a value's wire form, up to its count. Kind
// names need no escaping.
func openValueJSON(dst []byte, kind string) []byte {
	dst = append(dst, `{"type":"`...)
	dst = append(dst, kind...)
	return append(dst, `","count":`...)
}

// AppendValueJSON appends the wire form of v, byte-identical to
// encoding/json (SetEscapeHTML false, no trailing newline) of
// EncodeValue(v, limit). With countOnly, sets render as type and count
// alone. It also returns the number of nodes, attributes or scalars
// encoded, and whether limit cut the list short.
func AppendValueJSON(dst []byte, v xpath.Value, countOnly bool, limit int) ([]byte, int, bool) {
	kind := v.Kind()
	if !v.IsNodeSet() {
		dst = append(openValueJSON(dst, kind), '1')
		if s := v.String(); s != "" {
			dst = append(dst, `,"value":`...)
			dst = AppendJSONString(dst, s)
		}
		return append(dst, '}'), 1, false
	}
	attrs := v.Attrs()
	if countOnly {
		n := len(attrs) + len(v.Nodes()) // one of them is empty
		dst = AppendUint(openValueJSON(dst, kind), int64(n))
		return append(dst, '}'), 0, false
	}
	if kind != "attribute-set" {
		dst, n, truncated, _ := appendNodesJSON(dst, &nodeFeed{ns: v.Nodes()}, limit)
		return dst, n, truncated
	}
	dst = AppendUint(openValueJSON(dst, kind), int64(len(attrs)))
	truncated := limit > 0 && len(attrs) > limit
	if truncated {
		attrs = attrs[:limit]
	}
	for i, a := range attrs {
		if i == 0 {
			dst = append(dst, `,"attrs":[`...)
		} else {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"owner":`...)
		dst = AppendJSONString(dst, a.Owner.Name())
		dst = append(dst, `,"name":`...)
		dst = AppendJSONString(dst, a.Name)
		dst = append(dst, `,"value":`...)
		dst = AppendJSONString(dst, a.Value)
		dst = append(dst, '}')
	}
	if len(attrs) > 0 {
		dst = append(dst, ']')
	}
	if truncated {
		dst = append(dst, `,"truncated":true`...)
	}
	return append(dst, '}'), len(attrs), truncated
}

// AppendValuesJSON appends FLWOR tuples as a JSON array. A limit > 0
// is one budget that the tuples' nodes, attributes and scalars spend,
// so a FLWOR cannot bypass a response cap with one node per tuple;
// truncated reports that it cut the array short.
func AppendValuesJSON(dst []byte, vals []xpath.Value, limit int) (out []byte, truncated bool) {
	dst = append(dst, '[')
	remaining := limit
	for i, v := range vals {
		if limit > 0 && remaining <= 0 {
			truncated = true
			break
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		var n int
		var cut bool
		dst, n, cut = AppendValueJSON(dst, v, false, remaining)
		truncated = truncated || cut
		remaining -= n
	}
	return append(dst, ']'), truncated
}

// WriteNodesText streams nodes from src as FormatNode lines. A limit
// > 0 stops after limit nodes without pulling further; limit <= 0
// writes everything. Returns the number of nodes written.
func WriteNodesText(w io.Writer, src NodeSource, limit int) (int, error) {
	return writeNodesText(w, &nodeFeed{src: src}, limit)
}

// writeNodesText is the one node loop of the text renderer.
func writeNodesText(w io.Writer, f *nodeFeed, limit int) (int, error) {
	bp := scratchPool.Get().(*[]byte)
	defer scratchPool.Put(bp)
	var e NodeEncoder
	written := 0
	for limit <= 0 || written < limit {
		n, err := f.next()
		if err != nil {
			return written, err
		}
		if n == nil {
			break
		}
		buf := (*bp)[:0]
		buf = e.AppendNodeText(buf, n)
		buf = append(buf, '\n')
		*bp = buf[:0] // keep any growth for the next node
		if _, err := w.Write(buf); err != nil {
			return written, err
		}
		written++
	}
	return written, nil
}

// writeValueText is the one line writer of the text renderer, in
// WriteValue's format. It returns the lines written, the unit of
// WriteFLWOR's shared cap.
func writeValueText(w io.Writer, v xpath.Value, limit int) (int, error) {
	if !v.IsNodeSet() {
		_, err := fmt.Fprintln(w, v.String())
		return 1, err
	}
	if attrs := v.Attrs(); len(attrs) > 0 {
		if limit > 0 && len(attrs) > limit {
			attrs = attrs[:limit]
		}
		for i, a := range attrs {
			if _, err := fmt.Fprintf(w, "%s/@%s = %q\n", a.Owner, a.Name, a.Value); err != nil {
				return i, err
			}
		}
		return len(attrs), nil
	}
	return writeNodesText(w, &nodeFeed{ns: v.Nodes()}, limit)
}

// WriteValue writes a query result in the cxquery text format: scalars
// as their string value, attribute sets as owner/@name = "value" lines,
// node-sets as one FormatNode line per node. With countOnly, node and
// attribute sets print only their (full) size. A limit > 0 caps the
// printed node/attribute lines, mirroring EncodeValue; limit <= 0
// prints everything.
func WriteValue(w io.Writer, v xpath.Value, countOnly bool, limit int) {
	if countOnly && v.IsNodeSet() {
		fmt.Fprintln(w, len(v.Attrs())+len(v.Nodes())) // one of them is empty
		return
	}
	writeValueText(w, v, limit)
}

// WriteFLWOR writes FLWOR results in the cxquery text format, each
// tuple as WriteValue writes it. With countOnly only the tuple count
// prints. A limit > 0 caps the total printed node/attribute lines
// across all tuples (a scalar tuple spends one); limit <= 0 prints
// everything.
func WriteFLWOR(w io.Writer, vals []xpath.Value, countOnly bool, limit int) {
	if countOnly {
		fmt.Fprintln(w, len(vals))
		return
	}
	remaining := limit
	for _, v := range vals {
		if limit > 0 && remaining <= 0 {
			return
		}
		n, err := writeValueText(w, v, remaining)
		if err != nil {
			return
		}
		remaining -= n
	}
}
