// Package xpath implements Extended XPath, the paper's query language for
// concurrent XML: XPath 1.0 semantics re-defined over the GODDAG (so a
// leaf has one parent *per hierarchy* and navigation crosses hierarchies
// through leaves and the root), extended with axes specific to
// overlapping markup (paper §4 and reference [7]):
//
//	overlapping::        elements properly overlapping the context span
//	overlapping-left::   overlapping and beginning before the context
//	overlapping-right::  overlapping and ending after the context
//	covering::           elements of any hierarchy whose span contains
//	                     the context node's span (the cross-hierarchy
//	                     analogue of ancestor)
//	covered::            nodes whose span lies inside the context span
//	                     (the cross-hierarchy analogue of descendant)
//
// plus the functions hierarchy(), overlaps(ns), span-start(), span-end().
//
// Deviations from full XPath 1.0, chosen for document-centric querying:
// no variables, no namespace axes, and binary minus must be surrounded by
// whitespace (names may contain '-').
//
// # Plans and streams
//
// Evaluation has two layers. Eval and friends are the reference path:
// they materialize a Value per step. Above them sits a small cost-based
// planner (plan.go): before a query runs, its shape is matched against
// a few plan kinds — name-bucket scans with statically-safe predicates
// pushed into the scan, reversed semi-joins for //a/overlapping::b
// driven from whichever side's bucket is smaller, span joins for
// //a/covered::b and //a/covering::b that merge the two start-sorted
// buckets in one pass (join.go; evalStep drains the same join for
// covered/covering steps from several origins), and O(1)
// count()/exists plans that read bucket cardinalities instead of
// building node sets. Selectivity comes from the document's name-index
// bucket sizes; the chosen plan is cached on the Query in an atomic
// slot keyed by (document, version), so a structural edit invalidates
// it and concurrent evaluations share one planning pass. Queries no
// plan matches fall back to the reference path — by construction the
// planner never changes results, a property the corpus-grid
// differential tests assert.
//
// StreamWithOptions exposes the lazy contract: a Stream pulls result
// nodes one at a time in document order (Next/Size/Count), so callers
// that encode, clamp, or count never hold the full node set; evaluator
// state (including the dedup bitset, sized to the document's ordinal
// range) is pooled and returned on Close. The serving layer encodes
// responses straight off this iterator.
package xpath

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF  tokenKind = iota
	tokName           // element names, axis names, function names
	tokNumber
	tokLiteral // quoted string
	tokSlash
	tokDoubleSlash
	tokLBracket
	tokRBracket
	tokLParen
	tokRParen
	tokAt
	tokDoubleColon
	tokComma
	tokStar
	tokPipe
	tokPlus
	tokMinus
	tokEq
	tokNeq
	tokLt
	tokLe
	tokGt
	tokGe
	tokDot
	tokDotDot
	tokVar // $name
)

func (k tokenKind) String() string {
	names := map[tokenKind]string{
		tokEOF: "EOF", tokName: "name", tokNumber: "number", tokLiteral: "literal",
		tokSlash: "/", tokDoubleSlash: "//", tokLBracket: "[", tokRBracket: "]",
		tokLParen: "(", tokRParen: ")", tokAt: "@", tokDoubleColon: "::",
		tokComma: ",", tokStar: "*", tokPipe: "|", tokPlus: "+", tokMinus: "-",
		tokEq: "=", tokNeq: "!=", tokLt: "<", tokLe: "<=", tokGt: ">", tokGe: ">=",
		tokDot: ".", tokDotDot: "..", tokVar: "$var",
	}
	if s, ok := names[k]; ok {
		return s
	}
	return fmt.Sprintf("token(%d)", int(k))
}

type token struct {
	kind tokenKind
	text string
	num  float64
	pos  int
}

// SyntaxError reports a query parse failure.
type SyntaxError struct {
	Query string
	Pos   int
	Msg   string
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xpath: %q at %d: %s", e.Query, e.Pos, e.Msg)
}

// lex tokenizes a query.
func lex(query string) ([]token, error) {
	var out []token
	i := 0
	n := len(query)
	errAt := func(pos int, format string, args ...any) error {
		return &SyntaxError{Query: query, Pos: pos, Msg: fmt.Sprintf(format, args...)}
	}
	for i < n {
		c := query[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '/':
			if i+1 < n && query[i+1] == '/' {
				out = append(out, token{kind: tokDoubleSlash, pos: i})
				i += 2
			} else {
				out = append(out, token{kind: tokSlash, pos: i})
				i++
			}
		case c == '[':
			out = append(out, token{kind: tokLBracket, pos: i})
			i++
		case c == ']':
			out = append(out, token{kind: tokRBracket, pos: i})
			i++
		case c == '(':
			out = append(out, token{kind: tokLParen, pos: i})
			i++
		case c == ')':
			out = append(out, token{kind: tokRParen, pos: i})
			i++
		case c == '@':
			out = append(out, token{kind: tokAt, pos: i})
			i++
		case c == ':':
			if i+1 < n && query[i+1] == ':' {
				out = append(out, token{kind: tokDoubleColon, pos: i})
				i += 2
			} else {
				return nil, errAt(i, "single ':' (namespaces are not supported)")
			}
		case c == ',':
			out = append(out, token{kind: tokComma, pos: i})
			i++
		case c == '*':
			out = append(out, token{kind: tokStar, pos: i})
			i++
		case c == '|':
			out = append(out, token{kind: tokPipe, pos: i})
			i++
		case c == '+':
			out = append(out, token{kind: tokPlus, pos: i})
			i++
		case c == '-':
			// Binary minus must be free-standing (names contain '-').
			out = append(out, token{kind: tokMinus, pos: i})
			i++
		case c == '=':
			out = append(out, token{kind: tokEq, pos: i})
			i++
		case c == '!':
			if i+1 < n && query[i+1] == '=' {
				out = append(out, token{kind: tokNeq, pos: i})
				i += 2
			} else {
				return nil, errAt(i, "'!' must be followed by '='")
			}
		case c == '<':
			if i+1 < n && query[i+1] == '=' {
				out = append(out, token{kind: tokLe, pos: i})
				i += 2
			} else {
				out = append(out, token{kind: tokLt, pos: i})
				i++
			}
		case c == '>':
			if i+1 < n && query[i+1] == '=' {
				out = append(out, token{kind: tokGe, pos: i})
				i += 2
			} else {
				out = append(out, token{kind: tokGt, pos: i})
				i++
			}
		case c == '$':
			i++
			start := i
			for i < n && isNameByte(query[i]) {
				i++
			}
			if i == start {
				return nil, errAt(start-1, "expected variable name after '$'")
			}
			out = append(out, token{kind: tokVar, text: query[start:i], pos: start - 1})
		case c == '.':
			if i+1 < n && query[i+1] == '.' {
				out = append(out, token{kind: tokDotDot, pos: i})
				i += 2
			} else if i+1 < n && query[i+1] >= '0' && query[i+1] <= '9' {
				start := i
				i++
				for i < n && query[i] >= '0' && query[i] <= '9' {
					i++
				}
				var f float64
				fmt.Sscanf(query[start:i], "%g", &f)
				out = append(out, token{kind: tokNumber, num: f, pos: start})
			} else {
				out = append(out, token{kind: tokDot, pos: i})
				i++
			}
		case c == '\'' || c == '"':
			q := c
			j := strings.IndexByte(query[i+1:], q)
			if j < 0 {
				return nil, errAt(i, "unterminated string literal")
			}
			out = append(out, token{kind: tokLiteral, text: query[i+1 : i+1+j], pos: i})
			i += j + 2
		case c >= '0' && c <= '9':
			start := i
			for i < n && (query[i] >= '0' && query[i] <= '9') {
				i++
			}
			if i < n && query[i] == '.' {
				i++
				for i < n && (query[i] >= '0' && query[i] <= '9') {
					i++
				}
			}
			var f float64
			fmt.Sscanf(query[start:i], "%g", &f)
			out = append(out, token{kind: tokNumber, num: f, pos: start})
		case isNameStartByte(c):
			start := i
			for i < n && isNameByte(query[i]) {
				i++
			}
			// A '-' inside a name: continue only if followed by a name
			// character (so "a - b" lexes as name, minus, name but
			// "following-sibling" stays one name).
			for i < n && query[i] == '-' && i+1 < n && isNameByte(query[i+1]) {
				i++
				for i < n && isNameByte(query[i]) {
					i++
				}
			}
			out = append(out, token{kind: tokName, text: query[start:i], pos: start})
		default:
			r := rune(c)
			if r >= 0x80 {
				// Multi-byte rune: treat as name if it is a letter.
				rs := []rune(query[i:])
				if unicode.IsLetter(rs[0]) {
					start := i
					for i < n {
						r2 := []rune(query[i:])[0]
						if !unicode.IsLetter(r2) && !unicode.IsDigit(r2) && r2 != '_' && r2 != '-' && r2 != '.' {
							break
						}
						i += len(string(r2))
					}
					out = append(out, token{kind: tokName, text: query[start:i], pos: start})
					continue
				}
			}
			return nil, errAt(i, "unexpected character %q", c)
		}
	}
	out = append(out, token{kind: tokEOF, pos: n})
	return out, nil
}

func isNameStartByte(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isNameByte(c byte) bool {
	return isNameStartByte(c) || (c >= '0' && c <= '9') || c == '.' || c == '_'
}
