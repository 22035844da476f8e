package xmlscan

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// Options configure a Scanner.
type Options struct {
	// Entities maps additional entity names (without & and ;) to their
	// replacement text. The five predefined XML entities are always
	// available. Entities declared in the DOCTYPE internal subset are
	// added automatically.
	Entities map[string]string

	// KeepComments reports comments as tokens instead of skipping them.
	KeepComments bool

	// KeepProcInsts reports processing instructions as tokens instead of
	// skipping them.
	KeepProcInsts bool

	// CoalesceCDATA makes CDATA sections come back as KindText tokens,
	// merged with adjacent character data.
	CoalesceCDATA bool

	// ReuseAttrs makes the scanner reuse one internal buffer for the
	// Attrs of successive start tags instead of allocating a fresh slice
	// per tag. A token's Attrs are then only valid until the next call to
	// Next; consumers that retain tokens (or their Attrs) must copy them
	// first. Streaming consumers that fold attributes into their own
	// structures (package sacx) set this to eliminate one allocation per
	// element.
	ReuseAttrs bool
}

// predefinedEntities are the five entities every XML processor knows.
// They are shared by all scanners; per-scanner entities overlay them.
var predefinedEntities = map[string]string{
	"lt":   "<",
	"gt":   ">",
	"amp":  "&",
	"apos": "'",
	"quot": `"`,
}

// Scanner tokenizes a complete XML document held in memory.
//
// The scanner is zero-copy where the input allows it: names, attribute
// values and text runs that contain no entity or character references
// are returned as strings aliasing the input bytes (no copying, per
// token or whole-input). A string is built only when a reference
// actually needs decoding.
//
// Line/column information is not computed while scanning; it is derived
// on demand (Position) and when constructing a SyntaxError.
//
// The zero value is not usable; call New.
type Scanner struct {
	src []byte
	str string // src as a string; token substrings alias it
	pos int

	contentByte int // byte offset within decoded character content so far
	stack       []string
	opts        Options
	entities    map[string]string // overlay over predefinedEntities; may be nil

	attrBuf []Attr // reused across start tags when opts.ReuseAttrs

	sawRoot    bool // a root element has been seen
	rootClosed bool // ... and closed
	err        error
}

// New returns a Scanner over src. The scanner aliases src — the string
// view behind zero-copy tokens shares src's memory — so the caller must
// not mutate src while the scanner or any of its tokens are in use.
func New(src []byte, opts Options) *Scanner {
	s := &Scanner{src: src, str: unsafe.String(unsafe.SliceData(src), len(src)), opts: opts}
	for k, v := range opts.Entities {
		s.defineEntity(k, v)
	}
	return s
}

// defineEntity registers a custom entity, allocating the overlay map only
// when one is actually defined.
func (s *Scanner) defineEntity(name, value string) {
	if s.entities == nil {
		s.entities = make(map[string]string, 8)
	}
	s.entities[name] = value
}

// lookupEntity resolves an entity name against the overlay and the
// predefined set.
func (s *Scanner) lookupEntity(name string) (string, bool) {
	if v, ok := s.entities[name]; ok {
		return v, true
	}
	v, ok := predefinedEntities[name]
	return v, ok
}

// Depth returns the current element nesting depth.
func (s *Scanner) Depth() int { return len(s.stack) }

// ContentByte returns the byte offset within the decoded character
// content reached so far.
func (s *Scanner) ContentByte() int { return s.contentByte }

// Position returns the 1-based line and column of a byte offset in the
// input. It is computed on demand by scanning for newlines, so it costs
// O(offset); use it for diagnostics, not per token.
func (s *Scanner) Position(off int) (line, col int) { return s.lineColAt(off) }

func (s *Scanner) errorf(off int, format string, args ...any) error {
	line, col := s.lineColAt(off)
	e := &SyntaxError{Offset: off, Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
	s.err = e
	return e
}

// lineColAt computes the line/column of a byte offset by rescanning the
// input. Only error construction and explicit Position calls pay for it.
func (s *Scanner) lineColAt(off int) (line, col int) {
	if off > len(s.src) {
		off = len(s.src)
	}
	line, col = 1, 1
	for i := 0; i < off; i++ {
		if s.src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return line, col
}

// Next returns the next token. At end of input it returns io.EOF after
// verifying that all elements were closed and a root element was present.
// After any error, Next keeps returning the same error.
func (s *Scanner) Next() (Token, error) {
	var tok Token
	err := s.NextInto(&tok)
	return tok, err
}

// NextInto is Next writing the token into *t instead of returning it by
// value, sparing tight scan loops one struct copy per token. Every field
// of *t is overwritten on success; on error *t is left unspecified.
func (s *Scanner) NextInto(t *Token) error {
	if s.err != nil {
		return s.err
	}
	for {
		if err := s.next(t); err != nil {
			return err
		}
		switch t.Kind {
		case KindComment:
			if !s.opts.KeepComments {
				continue
			}
		case KindProcInst:
			if !s.opts.KeepProcInsts {
				continue
			}
		case KindCDATA:
			if s.opts.CoalesceCDATA {
				t.Kind = KindText
			}
		}
		return nil
	}
}

func (s *Scanner) next(t *Token) error {
	if s.pos >= len(s.src) {
		if len(s.stack) > 0 {
			return s.errorf(s.pos, "unexpected EOF: unclosed element <%s>", s.stack[len(s.stack)-1])
		}
		if !s.sawRoot {
			return s.errorf(s.pos, "document has no root element")
		}
		return io.EOF
	}
	start := s.pos
	if s.src[s.pos] != '<' {
		return s.scanText(start, t)
	}
	// Markup.
	if s.pos+1 >= len(s.src) {
		return s.errorf(s.pos, "unexpected EOF after '<'")
	}
	switch s.src[s.pos+1] {
	case '?':
		return s.scanPI(start, t)
	case '!':
		return s.scanBang(start, t)
	case '/':
		return s.scanEndTag(start, t)
	default:
		return s.scanStartTag(start, t)
	}
}

// scanText scans a run of character data up to the next '<'. When the run
// contains no references the token text aliases the input; otherwise the
// decoded text is built chunk-wise.
func (s *Scanner) scanText(start int, t *Token) error {
	end := len(s.src)
	if i := bytes.IndexByte(s.src[s.pos:], '<'); i >= 0 {
		end = s.pos + i
	}
	seg := s.src[s.pos:end]
	var text string
	if bytes.IndexByte(seg, '&') < 0 {
		// Zero-copy path: no references to decode.
		if i := bytes.Index(seg, []byte("]]>")); i >= 0 {
			return s.errorf(s.pos+i, "']]>' not allowed in character data")
		}
		text = s.str[s.pos:end]
		s.pos = end
	} else {
		var b strings.Builder
		b.Grow(len(seg))
		for s.pos < end {
			switch c := s.src[s.pos]; c {
			case '&':
				r, err := s.scanReference()
				if err != nil {
					return err
				}
				b.WriteString(r)
			case ']':
				// "]]>" must not appear in character data.
				if s.pos+2 < len(s.src) && s.src[s.pos+1] == ']' && s.src[s.pos+2] == '>' {
					return s.errorf(s.pos, "']]>' not allowed in character data")
				}
				b.WriteByte(c)
				s.pos++
			default:
				// Copy the whole plain chunk up to the next special byte.
				q := s.pos + 1
				for q < end && s.src[q] != '&' && s.src[q] != ']' {
					q++
				}
				b.WriteString(s.str[s.pos:q])
				s.pos = q
			}
		}
		text = b.String()
	}
	if len(s.stack) == 0 {
		// Text outside the root element must be whitespace only.
		if strings.TrimSpace(text) != "" {
			return s.errorf(start, "character data outside root element")
		}
		// Whitespace outside the root is not document content.
		*t = Token{
			Kind: KindText, Text: "", Offset: start, End: s.pos,
			ContentByte: s.contentByte, Depth: 0,
		}
		return nil
	}
	*t = Token{
		Kind: KindText, Text: text, Offset: start, End: s.pos,
		ContentByte: s.contentByte, Depth: len(s.stack),
	}
	s.contentByte += len(text)
	return nil
}

// scanReference scans &name; or &#NN; / &#xNN; starting at '&'.
func (s *Scanner) scanReference() (string, error) {
	start := s.pos
	s.pos++ // consume '&'
	semi := -1
	for i := s.pos; i < len(s.src) && i < s.pos+64; i++ {
		if s.src[i] == ';' {
			semi = i
			break
		}
	}
	if semi < 0 {
		return "", s.errorf(start, "unterminated entity reference")
	}
	name := s.str[s.pos:semi]
	s.pos = semi + 1
	if name == "" {
		return "", s.errorf(start, "empty entity reference")
	}
	if name[0] == '#' {
		r, err := decodeCharRef(name[1:])
		if err != nil {
			return "", s.errorf(start, "invalid character reference &%s;: %v", name, err)
		}
		return string(r), nil
	}
	if v, ok := s.lookupEntity(name); ok {
		return v, nil
	}
	return "", s.errorf(start, "undefined entity &%s;", name)
}

func decodeCharRef(body string) (rune, error) {
	if body == "" {
		return 0, fmt.Errorf("empty")
	}
	base := 10
	if body[0] == 'x' || body[0] == 'X' {
		base = 16
		body = body[1:]
		if body == "" {
			return 0, fmt.Errorf("empty hex")
		}
	}
	var n int64
	for _, c := range body {
		var d int64
		switch {
		case c >= '0' && c <= '9':
			d = int64(c - '0')
		case base == 16 && c >= 'a' && c <= 'f':
			d = int64(c-'a') + 10
		case base == 16 && c >= 'A' && c <= 'F':
			d = int64(c-'A') + 10
		default:
			return 0, fmt.Errorf("bad digit %q", c)
		}
		n = n*int64(base) + d
		if n > utf8.MaxRune {
			return 0, fmt.Errorf("out of range")
		}
	}
	r := rune(n)
	if !isXMLChar(r) {
		return 0, fmt.Errorf("not an XML character")
	}
	return r, nil
}

// isXMLChar reports whether r is a legal XML 1.0 character.
func isXMLChar(r rune) bool {
	return r == 0x9 || r == 0xA || r == 0xD ||
		(r >= 0x20 && r <= 0xD7FF) ||
		(r >= 0xE000 && r <= 0xFFFD) ||
		(r >= 0x10000 && r <= 0x10FFFF)
}

// isNameStart reports whether r may begin an XML name.
func isNameStart(r rune) bool {
	return r == '_' || r == ':' || unicode.IsLetter(r)
}

// isNameChar reports whether r may continue an XML name.
func isNameChar(r rune) bool {
	return isNameStart(r) || r == '-' || r == '.' || unicode.IsDigit(r) ||
		unicode.Is(unicode.Mn, r) || unicode.Is(unicode.Mc, r)
}

// IsName reports whether s is a syntactically valid XML name.
func IsName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		if i == 0 {
			if !isNameStart(r) {
				return false
			}
		} else if !isNameChar(r) {
			return false
		}
	}
	return true
}

// scanName scans an XML name at the current position. The result aliases
// the input.
func (s *Scanner) scanName() (string, error) {
	start := s.pos
	if s.pos >= len(s.src) {
		// Match utf8.DecodeRune's behaviour on an empty tail.
		return "", s.errorf(s.pos, "expected name, found %q", utf8.RuneError)
	}
	// ASCII fast path: names are overwhelmingly [A-Za-z0-9_:.-].
	c := s.src[s.pos]
	if isASCIINameStart(c) {
		s.pos++
		for s.pos < len(s.src) {
			c = s.src[s.pos]
			if isASCIINameChar(c) {
				s.pos++
				continue
			}
			if c < utf8.RuneSelf {
				return s.str[start:s.pos], nil
			}
			break
		}
		if s.pos >= len(s.src) {
			return s.str[start:s.pos], nil
		}
	} else if c < utf8.RuneSelf {
		r, _ := utf8.DecodeRune(s.src[s.pos:])
		return "", s.errorf(s.pos, "expected name, found %q", r)
	} else {
		r, size := utf8.DecodeRune(s.src[s.pos:])
		if !isNameStart(r) {
			return "", s.errorf(s.pos, "expected name, found %q", r)
		}
		s.pos += size
	}
	for s.pos < len(s.src) {
		r, size := utf8.DecodeRune(s.src[s.pos:])
		if !isNameChar(r) {
			break
		}
		s.pos += size
	}
	return s.str[start:s.pos], nil
}

func isASCIINameStart(c byte) bool {
	return c == '_' || c == ':' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isASCIINameChar(c byte) bool {
	return isASCIINameStart(c) || c == '-' || c == '.' || ('0' <= c && c <= '9')
}

func (s *Scanner) skipSpace() {
	for s.pos < len(s.src) {
		switch s.src[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// scanStartTag scans <name attr="v" ...> or <name .../>.
func (s *Scanner) scanStartTag(start int, t *Token) error {
	s.pos++ // consume '<'
	name, err := s.scanName()
	if err != nil {
		return err
	}
	var attrs []Attr
	if s.opts.ReuseAttrs {
		attrs = s.attrBuf[:0]
	}
	for {
		s.skipSpace()
		if s.pos >= len(s.src) {
			return s.errorf(start, "unexpected EOF in tag <%s>", name)
		}
		c := s.src[s.pos]
		if c == '>' || c == '/' {
			break
		}
		aname, err := s.scanName()
		if err != nil {
			return err
		}
		s.skipSpace()
		if s.pos >= len(s.src) || s.src[s.pos] != '=' {
			return s.errorf(s.pos, "expected '=' after attribute name %q", aname)
		}
		s.pos++
		s.skipSpace()
		val, err := s.scanAttrValue()
		if err != nil {
			return err
		}
		for _, a := range attrs {
			if a.Name == aname {
				return s.errorf(start, "duplicate attribute %q in element <%s>", aname, name)
			}
		}
		if attrs == nil {
			attrs = make([]Attr, 0, 4)
		}
		attrs = append(attrs, Attr{Name: aname, Value: val})
	}
	if s.opts.ReuseAttrs {
		s.attrBuf = attrs[:0]
		if len(attrs) == 0 {
			attrs = nil
		}
	}
	selfClosing := false
	if s.src[s.pos] == '/' {
		selfClosing = true
		s.pos++
		if s.pos >= len(s.src) || s.src[s.pos] != '>' {
			return s.errorf(s.pos, "expected '>' after '/' in tag <%s>", name)
		}
	}
	s.pos++ // consume '>'

	if s.rootClosed {
		return s.errorf(start, "element <%s> after root element closed", name)
	}
	if len(s.stack) == 0 && s.sawRoot {
		return s.errorf(start, "second root element <%s>", name)
	}
	depth := len(s.stack)
	s.sawRoot = true
	if !selfClosing {
		s.stack = append(s.stack, name)
	} else if depth == 0 {
		s.rootClosed = true
	}
	*t = Token{
		Kind: KindStartElement, Name: name, Attrs: attrs, SelfClosing: selfClosing,
		Offset: start, End: s.pos,
		ContentByte: s.contentByte, Depth: depth,
	}
	return nil
}

// scanAttrValue scans a quoted attribute value with references decoded.
// Values without references alias the input.
func (s *Scanner) scanAttrValue() (string, error) {
	if s.pos >= len(s.src) {
		return "", s.errorf(s.pos, "unexpected EOF in attribute value")
	}
	quote := s.src[s.pos]
	if quote != '"' && quote != '\'' {
		return "", s.errorf(s.pos, "attribute value must be quoted")
	}
	s.pos++
	// Zero-copy path: a clean run up to the closing quote.
	if rel := bytes.IndexByte(s.src[s.pos:], quote); rel >= 0 {
		seg := s.src[s.pos : s.pos+rel]
		if bytes.IndexByte(seg, '&') < 0 && bytes.IndexByte(seg, '<') < 0 {
			val := s.str[s.pos : s.pos+rel]
			s.pos += rel + 1
			return val, nil
		}
	}
	var b strings.Builder
	for {
		if s.pos >= len(s.src) {
			return "", s.errorf(s.pos, "unterminated attribute value")
		}
		c := s.src[s.pos]
		switch {
		case c == quote:
			s.pos++
			return b.String(), nil
		case c == '<':
			return "", s.errorf(s.pos, "'<' not allowed in attribute value")
		case c == '&':
			r, err := s.scanReference()
			if err != nil {
				return "", err
			}
			b.WriteString(r)
		default:
			b.WriteByte(c)
			s.pos++
		}
	}
}

// scanEndTag scans </name>.
func (s *Scanner) scanEndTag(start int, t *Token) error {
	s.pos += 2 // consume "</"
	name, err := s.scanName()
	if err != nil {
		return err
	}
	s.skipSpace()
	if s.pos >= len(s.src) || s.src[s.pos] != '>' {
		return s.errorf(s.pos, "expected '>' in end tag </%s>", name)
	}
	s.pos++
	if len(s.stack) == 0 {
		return s.errorf(start, "unexpected end tag </%s>", name)
	}
	top := s.stack[len(s.stack)-1]
	if top != name {
		return s.errorf(start, "end tag </%s> does not match open element <%s>", name, top)
	}
	s.stack = s.stack[:len(s.stack)-1]
	if len(s.stack) == 0 {
		s.rootClosed = true
	}
	*t = Token{
		Kind: KindEndElement, Name: name,
		Offset: start, End: s.pos,
		ContentByte: s.contentByte, Depth: len(s.stack),
	}
	return nil
}

// scanPI scans <?target data?> (and the XML declaration).
func (s *Scanner) scanPI(start int, t *Token) error {
	s.pos += 2 // consume "<?"
	name, err := s.scanName()
	if err != nil {
		return err
	}
	dataStart := s.pos
	end := indexFrom(s.src, s.pos, "?>")
	if end < 0 {
		return s.errorf(start, "unterminated processing instruction <?%s", name)
	}
	data := strings.TrimLeft(s.str[dataStart:end], " \t\r\n")
	s.pos = end + 2
	kind := KindProcInst
	if name == "xml" || name == "XML" {
		if start != 0 {
			return s.errorf(start, "XML declaration not at start of document")
		}
		kind = KindXMLDecl
	}
	*t = Token{
		Kind: kind, Name: name, Text: data,
		Offset: start, End: s.pos,
		ContentByte: s.contentByte, Depth: len(s.stack),
	}
	return nil
}

// scanBang dispatches <!-- , <![CDATA[ and <!DOCTYPE.
func (s *Scanner) scanBang(start int, t *Token) error {
	rest := s.src[s.pos:]
	switch {
	case hasPrefix(rest, "<!--"):
		return s.scanComment(start, t)
	case hasPrefix(rest, "<![CDATA["):
		return s.scanCDATA(start, t)
	case hasPrefix(rest, "<!DOCTYPE"):
		return s.scanDoctype(start, t)
	default:
		return s.errorf(start, "unrecognized markup declaration")
	}
}

func (s *Scanner) scanComment(start int, t *Token) error {
	s.pos += 4 // consume "<!--"
	end := indexFrom(s.src, s.pos, "-->")
	if end < 0 {
		return s.errorf(start, "unterminated comment")
	}
	body := s.str[s.pos:end]
	if strings.Contains(body, "--") {
		return s.errorf(start, "'--' not allowed inside comment")
	}
	s.pos = end + 3
	*t = Token{
		Kind: KindComment, Text: body,
		Offset: start, End: s.pos,
		ContentByte: s.contentByte, Depth: len(s.stack),
	}
	return nil
}

func (s *Scanner) scanCDATA(start int, t *Token) error {
	if len(s.stack) == 0 {
		return s.errorf(start, "CDATA section outside root element")
	}
	s.pos += 9 // consume "<![CDATA["
	end := indexFrom(s.src, s.pos, "]]>")
	if end < 0 {
		return s.errorf(start, "unterminated CDATA section")
	}
	body := s.str[s.pos:end]
	s.pos = end + 3
	*t = Token{
		Kind: KindCDATA, Text: body,
		Offset: start, End: s.pos,
		ContentByte: s.contentByte, Depth: len(s.stack),
	}
	s.contentByte += len(body)
	return nil
}

// scanDoctype scans <!DOCTYPE name ... [internal subset]> and harvests
// ENTITY declarations from the internal subset.
func (s *Scanner) scanDoctype(start int, t *Token) error {
	if s.sawRoot {
		return s.errorf(start, "DOCTYPE after root element")
	}
	s.pos += len("<!DOCTYPE")
	s.skipSpace()
	name, err := s.scanName()
	if err != nil {
		return err
	}
	bodyStart := s.pos
	depth := 0
	for {
		if s.pos >= len(s.src) {
			return s.errorf(start, "unterminated DOCTYPE")
		}
		switch s.src[s.pos] {
		case '[':
			depth++
			s.pos++
		case ']':
			depth--
			s.pos++
		case '"', '\'':
			q := s.src[s.pos]
			s.pos++
			for s.pos < len(s.src) && s.src[s.pos] != q {
				s.pos++
			}
			if s.pos >= len(s.src) {
				return s.errorf(start, "unterminated literal in DOCTYPE")
			}
			s.pos++
		case '>':
			if depth == 0 {
				body := s.str[bodyStart:s.pos]
				s.pos++
				s.harvestEntities(body)
				*t = Token{
					Kind: KindDoctype, Name: name, Text: strings.TrimSpace(body),
					Offset: start, End: s.pos,
					ContentByte: s.contentByte, Depth: 0,
				}
				return nil
			}
			s.pos++
		default:
			s.pos++
		}
	}
}

// harvestEntities extracts <!ENTITY name "value"> declarations from a
// DOCTYPE internal subset and registers them for reference expansion.
func (s *Scanner) harvestEntities(subset string) {
	for {
		i := strings.Index(subset, "<!ENTITY")
		if i < 0 {
			return
		}
		subset = subset[i+len("<!ENTITY"):]
		rest := strings.TrimLeft(subset, " \t\r\n")
		if rest == "" || rest[0] == '%' {
			continue // parameter entities not supported
		}
		j := strings.IndexAny(rest, " \t\r\n")
		if j < 0 {
			return
		}
		name := rest[:j]
		rest = strings.TrimLeft(rest[j:], " \t\r\n")
		if rest == "" || (rest[0] != '"' && rest[0] != '\'') {
			continue
		}
		q := rest[0]
		k := strings.IndexByte(rest[1:], q)
		if k < 0 {
			return
		}
		if IsName(name) {
			s.defineEntity(name, rest[1:1+k])
		}
		subset = rest[1+k:]
	}
}

func hasPrefix(b []byte, p string) bool {
	return len(b) >= len(p) && string(b[:len(p)]) == p
}

func indexFrom(b []byte, from int, sub string) int {
	i := bytes.Index(b[from:], []byte(sub))
	if i < 0 {
		return -1
	}
	return from + i
}

// EscapeText writes s with <, >, & escaped for use as character data.
// Strings that need no escaping are returned unchanged, without copying.
func EscapeText(s string) string {
	if !strings.ContainsAny(s, "<>&") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	last := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '&':
			esc = "&amp;"
		default:
			continue
		}
		b.WriteString(s[last:i])
		b.WriteString(esc)
		last = i + 1
	}
	b.WriteString(s[last:])
	return b.String()
}

// EscapeAttr writes s escaped for use inside a double-quoted attribute.
// Strings that need no escaping are returned unchanged, without copying.
func EscapeAttr(s string) string {
	if !strings.ContainsAny(s, "<&\"\n\t") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	last := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '<':
			esc = "&lt;"
		case '&':
			esc = "&amp;"
		case '"':
			esc = "&quot;"
		case '\n':
			esc = "&#10;"
		case '\t':
			esc = "&#9;"
		default:
			continue
		}
		b.WriteString(s[last:i])
		b.WriteString(esc)
		last = i + 1
	}
	b.WriteString(s[last:])
	return b.String()
}
