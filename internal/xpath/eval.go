package xpath

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/goddag"
	"repro/internal/obs"
)

// Value is the result of evaluating an Extended XPath expression: a
// node-set, string, number, or boolean, following XPath 1.0's type system.
type Value struct {
	kind  valueKind
	nodes []goddag.Node
	s     string
	f     float64
	b     bool
	attrs []AttrNode
}

type valueKind int

const (
	valNodes valueKind = iota
	valString
	valNumber
	valBool
	valAttrs
)

// String names the kind for error messages.
func (k valueKind) String() string {
	switch k {
	case valNodes:
		return "node-set"
	case valString:
		return "string"
	case valNumber:
		return "number"
	case valBool:
		return "boolean"
	case valAttrs:
		return "attribute-set"
	default:
		return fmt.Sprintf("valueKind(%d)", int(k))
	}
}

// AttrNode is an attribute selected by the attribute axis, paired with
// its owning element.
type AttrNode struct {
	Owner *goddag.Element
	Name  string
	Value string
}

// Kind names the value's XPath type: "node-set", "attribute-set",
// "string", "number", or "boolean".
func (v Value) Kind() string { return v.kind.String() }

// Nodes returns the node-set (nil for non-node values).
func (v Value) Nodes() []goddag.Node { return v.nodes }

// Attrs returns selected attributes (attribute-axis results).
func (v Value) Attrs() []AttrNode { return v.attrs }

// IsNodeSet reports whether the value is a node-set (or attribute set).
func (v Value) IsNodeSet() bool { return v.kind == valNodes || v.kind == valAttrs }

// String converts the value to a string per XPath rules: a node-set
// converts to the string value of its first node.
func (v Value) String() string {
	switch v.kind {
	case valString:
		return v.s
	case valNumber:
		return formatNumber(v.f)
	case valBool:
		if v.b {
			return "true"
		}
		return "false"
	case valAttrs:
		if len(v.attrs) == 0 {
			return ""
		}
		return v.attrs[0].Value
	default:
		if len(v.nodes) == 0 {
			return ""
		}
		return v.nodes[0].Text()
	}
}

// Number converts the value to a number per XPath rules.
func (v Value) Number() float64 {
	switch v.kind {
	case valNumber:
		return v.f
	case valBool:
		if v.b {
			return 1
		}
		return 0
	default:
		return stringNumber(v.String())
	}
}

// stringNumber converts a string per XPath 1.0 §4.4: optional
// whitespace, an optional minus sign, a Number (digits with at most one
// decimal point), optional whitespace. Anything else — exponents, a
// plus sign, Inf, hex — is NaN.
func stringNumber(s string) float64 {
	s = strings.Trim(s, " \t\r\n")
	digits, dot := 0, false
	for _, c := range []byte(strings.TrimPrefix(s, "-")) {
		switch {
		case c >= '0' && c <= '9':
			digits++
		case c == '.' && !dot:
			dot = true
		default:
			return math.NaN()
		}
	}
	if digits == 0 {
		return math.NaN()
	}
	f, _ := strconv.ParseFloat(s, 64) // an out-of-range Number is ±Inf
	return f
}

// Bool converts the value to a boolean per XPath rules: node-sets are
// true when non-empty, strings when non-empty, numbers when non-zero.
func (v Value) Bool() bool {
	switch v.kind {
	case valBool:
		return v.b
	case valNumber:
		return v.f != 0 && !math.IsNaN(v.f)
	case valString:
		return v.s != ""
	case valAttrs:
		return len(v.attrs) > 0
	default:
		return len(v.nodes) > 0
	}
}

// formatNumber converts a number to a string per XPath 1.0 §4.2:
// NaN, Infinity and -Infinity by name, an integer without a decimal
// point, anything else in decimal notation, never with an exponent.
func formatNumber(f float64) string {
	switch {
	case math.IsInf(f, 1):
		return "Infinity"
	case math.IsInf(f, -1):
		return "-Infinity"
	case f == math.Trunc(f) && math.Abs(f) < 1e15:
		return strconv.FormatInt(int64(f), 10) // also turns -0 into "0"
	}
	return strconv.FormatFloat(f, 'f', -1, 64)
}

// Singleton returns a node-set value holding exactly one node; the FLWOR
// layer (package xquery) binds iteration variables with it.
func Singleton(n goddag.Node) Value { return nodesValue([]goddag.Node{n}) }

func nodesValue(ns []goddag.Node) Value { return Value{kind: valNodes, nodes: ns} }
func stringValue(s string) Value        { return Value{kind: valString, s: s} }
func numberValue(f float64) Value       { return Value{kind: valNumber, f: f} }
func boolValue(b bool) Value            { return Value{kind: valBool, b: b} }

// EvalError reports a runtime evaluation failure.
type EvalError struct {
	Query string
	Msg   string
}

// Error implements the error interface.
func (e *EvalError) Error() string { return fmt.Sprintf("xpath: %q: %s", e.Query, e.Msg) }

// Bindings maps variable names (without '$') to values for queries that
// reference $variables. Node-set values must hold nodes of the document
// the query is evaluated against: evaluation is keyed on that document's
// ordinal numbering, and nodes of a different document have no (or a
// colliding) ordinal there.
type Bindings map[string]Value

// evalCtx carries the evaluation state for one node.
type evalCtx struct {
	doc  *goddag.Document
	node goddag.Node
	pos  int // 1-based position in the current node list
	size int
	vars Bindings
}

// Options tune evaluation.
type Options struct {
	// Reference evaluates with the reference algorithms only: every
	// step materializes its axis and filters it by the node test, the
	// overlapping axes walk the GODDAG through shared leaves instead of
	// using span-interval arithmetic, and the planner is bypassed
	// (Stream and the count/boolean/not clamps run the materializing
	// evaluator). Results are identical either way. It is the
	// differential oracle of the tests and the ablation baseline of
	// experiment A2, and is never faster.
	Reference bool

	// Context, when cancellable, makes the evaluation cooperative: the
	// evaluator polls ctx.Err() at amortized checkpoints (every
	// checkInterval visited nodes) and unwinds with context.Canceled or
	// context.DeadlineExceeded. Nil behaves like context.Background().
	Context context.Context

	// Budget bounds the evaluation's resources (see Budget); exceeding
	// it unwinds with a *BudgetError matching ErrBudgetExceeded. The
	// zero value is unlimited.
	Budget Budget

	// Limiter, when non-nil, supplies the cancellation/budget state
	// directly and overrides Context and Budget — the seam for one
	// request spanning several evaluations (the FLWOR layer shares one
	// Limiter across all clause evaluations, making the budget
	// cumulative).
	Limiter *Limiter
}

// Eval evaluates the query with the document root as context node.
func (q *Query) Eval(doc *goddag.Document) (Value, error) {
	return q.EvalWithOptions(doc, Options{})
}

// EvalWithOptions evaluates with explicit options.
func (q *Query) EvalWithOptions(doc *goddag.Document, opts Options) (Value, error) {
	ev := acquireEvaluator(doc, q.source, opts)
	defer releaseEvaluator(ev)
	if err := ev.lim.Err(); err != nil {
		return Value{}, err
	}
	sp := ev.tr.Begin("eval")
	v, err := ev.eval(q.root, evalCtx{doc: doc, node: doc.Root(), pos: 1, size: 1})
	sp.End()
	return v, err
}

// EvalContext evaluates under ctx with a resource budget: the
// evaluation aborts with ctx.Err() once ctx ends, and with an error
// matching ErrBudgetExceeded once b is exhausted, both observed at
// amortized per-node checkpoints.
func (q *Query) EvalContext(ctx context.Context, doc *goddag.Document, b Budget) (Value, error) {
	return q.EvalWithOptions(doc, Options{Context: ctx, Budget: b})
}

// EvalFrom evaluates the query with an explicit context node, which must
// belong to doc.
func (q *Query) EvalFrom(doc *goddag.Document, node goddag.Node) (Value, error) {
	return q.EvalFromWithOptions(doc, node, Options{})
}

// EvalFromWithOptions evaluates with an explicit context node and options.
func (q *Query) EvalFromWithOptions(doc *goddag.Document, node goddag.Node, opts Options) (Value, error) {
	ev := acquireEvaluator(doc, q.source, opts)
	defer releaseEvaluator(ev)
	if err := ev.lim.Err(); err != nil {
		return Value{}, err
	}
	return ev.eval(q.root, evalCtx{doc: doc, node: node, pos: 1, size: 1})
}

// EvalWith evaluates with an explicit context node and variable bindings
// (for $x references; the FLWOR layer in package xquery builds on this).
func (q *Query) EvalWith(doc *goddag.Document, node goddag.Node, vars Bindings) (Value, error) {
	return q.EvalWithLimiter(doc, node, vars, nil)
}

// EvalWithLimiter is EvalWith against a caller-owned Limiter: several
// evaluations sharing one Limiter share one cancellation context and
// one cumulative budget. A nil Limiter is unlimited.
func (q *Query) EvalWithLimiter(doc *goddag.Document, node goddag.Node, vars Bindings, lim *Limiter) (Value, error) {
	ev := acquireEvaluator(doc, q.source, Options{Limiter: lim})
	defer releaseEvaluator(ev)
	if err := ev.lim.Err(); err != nil {
		return Value{}, err
	}
	return ev.eval(q.root, evalCtx{doc: doc, node: node, pos: 1, size: 1, vars: vars})
}

// Select is a convenience wrapper returning the node-set of the query; it
// errors when the query does not produce a node-set.
func Select(doc *goddag.Document, query string) ([]goddag.Node, error) {
	q, err := Compile(query)
	if err != nil {
		return nil, err
	}
	v, err := q.Eval(doc)
	if err != nil {
		return nil, err
	}
	if !v.IsNodeSet() {
		return nil, &EvalError{Query: query, Msg: fmt.Sprintf("result is not a node-set (got %s value %q)", v.kind, v.String())}
	}
	return v.nodes, nil
}

type evaluator struct {
	doc   *goddag.Document
	query string
	opts  Options

	// lim is the evaluation's cancellation/budget checkpoint state,
	// derived from opts at acquire time; nil means unlimited. ownLim
	// marks a limiter the evaluator created (vs. opts.Limiter), whose
	// visit count release folds into the engine counters and trace.
	lim    *Limiter
	ownLim bool

	// tr is the request's stage trace from opts.Context; nil (a no-op
	// handle) on untraced evaluations.
	tr *obs.Trace

	// Query-path scratch, lazily initialized per evaluation: the
	// document's ordinal numbering and a reusable ordinal bitset for
	// node-set deduplication (no per-query maps).
	ord  *goddag.Ordinals
	seen ordSet
}

// ordinals returns the document's ordinal numbering, fetched once per
// evaluation.
func (ev *evaluator) ordinals() *goddag.Ordinals {
	if ev.ord == nil {
		ev.ord = ev.doc.Ordinals()
	}
	return ev.ord
}

// ordSet is a reusable bitset over node ordinals. add records which bits
// were set so reset can clear exactly those words instead of the whole
// set. Uses must not overlap: acquire it, drain it, reset it before any
// recursive evaluation can need it again.
type ordSet struct {
	bits    []uint64
	touched []int32
}

// grow sizes the set for ordinals [0, n).
func (s *ordSet) grow(n int) {
	w := (n + 63) / 64
	if cap(s.bits) < w {
		s.bits = make([]uint64, w)
		return
	}
	s.bits = s.bits[:w]
}

// add inserts ord, reporting whether it was newly added.
func (s *ordSet) add(ord int) bool {
	w, b := ord>>6, uint64(1)<<(ord&63)
	if s.bits[w]&b != 0 {
		return false
	}
	s.bits[w] |= b
	s.touched = append(s.touched, int32(ord))
	return true
}

// reset clears every bit set since the last reset.
func (s *ordSet) reset() {
	for _, o := range s.touched {
		s.bits[o>>6] &^= 1 << (uint(o) & 63)
	}
	s.touched = s.touched[:0]
}

// acquireSeen returns the evaluator's dedup bitset sized to the current
// ordinal space. The caller must reset() it when done.
func (ev *evaluator) acquireSeen() *ordSet {
	ev.seen.grow(ev.ordinals().Len())
	return &ev.seen
}

func (ev *evaluator) errorf(format string, args ...any) error {
	return &EvalError{Query: ev.query, Msg: fmt.Sprintf(format, args...)}
}

func (ev *evaluator) eval(e expr, ctx evalCtx) (Value, error) {
	// The cooperative checkpoint of the recursive evaluator: every
	// expression evaluation counts one visit, so predicate loops over
	// large candidate sets observe cancellation even when each single
	// evaluation is cheap.
	if err := ev.lim.Visit(1); err != nil {
		return Value{}, err
	}
	switch n := e.(type) {
	case *varExpr:
		v, ok := ctx.vars[n.name]
		if !ok {
			return Value{}, ev.errorf("unbound variable $%s", n.name)
		}
		return v, nil
	case *literalExpr:
		return stringValue(n.s), nil
	case *numberExpr:
		return numberValue(n.f), nil
	case *unaryExpr:
		v, err := ev.eval(n.x, ctx)
		if err != nil {
			return Value{}, err
		}
		return numberValue(-v.Number()), nil
	case *binaryExpr:
		return ev.evalBinary(n, ctx)
	case *callExpr:
		return ev.evalCall(n, ctx)
	case *pathExpr:
		return ev.evalPath(n, ctx)
	default:
		return Value{}, ev.errorf("unknown expression %T", e)
	}
}

func (ev *evaluator) evalBinary(e *binaryExpr, ctx evalCtx) (Value, error) {
	switch e.op {
	case "or":
		l, err := ev.eval(e.l, ctx)
		if err != nil {
			return Value{}, err
		}
		if l.Bool() {
			return boolValue(true), nil
		}
		r, err := ev.eval(e.r, ctx)
		if err != nil {
			return Value{}, err
		}
		return boolValue(r.Bool()), nil
	case "and":
		l, err := ev.eval(e.l, ctx)
		if err != nil {
			return Value{}, err
		}
		if !l.Bool() {
			return boolValue(false), nil
		}
		r, err := ev.eval(e.r, ctx)
		if err != nil {
			return Value{}, err
		}
		return boolValue(r.Bool()), nil
	}
	l, err := ev.eval(e.l, ctx)
	if err != nil {
		return Value{}, err
	}
	r, err := ev.eval(e.r, ctx)
	if err != nil {
		return Value{}, err
	}
	switch e.op {
	case "|":
		if !l.IsNodeSet() || !r.IsNodeSet() {
			return Value{}, ev.errorf("'|' requires node-sets")
		}
		return nodesValue(ev.union(l.nodes, r.nodes)), nil
	case "=", "!=", "<", "<=", ">", ">=":
		return boolValue(compare(l, r, e.op)), nil
	case "+":
		return numberValue(l.Number() + r.Number()), nil
	case "-":
		return numberValue(l.Number() - r.Number()), nil
	case "*":
		return numberValue(l.Number() * r.Number()), nil
	case "div":
		return numberValue(l.Number() / r.Number()), nil
	case "mod":
		return numberValue(math.Mod(l.Number(), r.Number())), nil
	default:
		return Value{}, ev.errorf("unknown operator %q", e.op)
	}
}

// compare implements the comparison operators per XPath 1.0 §3.4. A
// node-set compared with a boolean compares as boolean(node-set); any
// other node-set operand compares existentially, member by member, as
// the member's string value. Between scalars, = and != compare as
// booleans if either side is one, else as numbers if either side is
// one, else as strings; the relational operators always compare
// numbers.
func compare(l, r Value, op string) bool {
	if l.kind == valBool && r.IsNodeSet() {
		r = boolValue(r.Bool())
	}
	if r.kind == valBool && l.IsNodeSet() {
		l = boolValue(l.Bool())
	}
	switch {
	case l.IsNodeSet():
		return anyMember(l, func(s string) bool { return compare(stringValue(s), r, op) })
	case r.IsNodeSet():
		return anyMember(r, func(s string) bool { return compare(l, stringValue(s), op) })
	}
	switch op {
	case "<":
		return l.Number() < r.Number()
	case "<=":
		return l.Number() <= r.Number()
	case ">":
		return l.Number() > r.Number()
	case ">=":
		return l.Number() >= r.Number()
	}
	var eq bool
	switch {
	case l.kind == valBool || r.kind == valBool:
		eq = l.Bool() == r.Bool()
	case l.kind == valNumber || r.kind == valNumber:
		eq = l.Number() == r.Number()
	default:
		eq = l.String() == r.String()
	}
	return eq == (op == "=")
}

// anyMember reports whether f holds for the string value of some member
// of a node-set or attribute set.
func anyMember(v Value, f func(string) bool) bool {
	if v.kind == valAttrs {
		for _, a := range v.attrs {
			if f(a.Value) {
				return true
			}
		}
		return false
	}
	for _, n := range v.nodes {
		if f(n.Text()) {
			return true
		}
	}
	return false
}

// evalPath evaluates a location path.
func (ev *evaluator) evalPath(p *pathExpr, ctx evalCtx) (Value, error) {
	var current []goddag.Node
	switch {
	case p.filter != nil:
		v, err := ev.eval(p.filter, ctx)
		if err != nil {
			return Value{}, err
		}
		if !v.IsNodeSet() || v.kind == valAttrs {
			return Value{}, ev.errorf("path applied to non-node-set")
		}
		current = v.nodes
	case p.absolute:
		current = []goddag.Node{ev.doc.Root()}
	default:
		current = []goddag.Node{ctx.node}
	}
	if len(p.steps) == 0 {
		return nodesValue(current), nil
	}
	for i, st := range p.steps {
		isLast := i == len(p.steps)-1
		if st.axis == AxisAttribute {
			if !isLast {
				return Value{}, ev.errorf("attribute step must be last")
			}
			var attrs []AttrNode
			for _, n := range current {
				el, ok := n.(*goddag.Element)
				if !ok {
					continue
				}
				for _, a := range el.Attrs() {
					if st.test.kind == testAny || a.Name == st.test.name {
						attrs = append(attrs, AttrNode{Owner: el, Name: a.Name, Value: a.Value})
					}
				}
			}
			// Predicates on attributes: only positional/string predicates
			// make sense; evaluate against the owner element context.
			for _, pred := range st.preds {
				var kept []AttrNode
				for pi, a := range attrs {
					pctx := evalCtx{doc: ev.doc, node: a.Owner, pos: pi + 1, size: len(attrs), vars: ctx.vars}
					v, err := ev.eval(pred, pctx)
					if err != nil {
						return Value{}, err
					}
					if predHolds(v, pi+1) {
						kept = append(kept, a)
					}
				}
				attrs = kept
			}
			return Value{kind: valAttrs, attrs: attrs}, nil
		}
		next, err := ev.evalStep(st, current, ctx.vars)
		if err != nil {
			return Value{}, err
		}
		current = next
	}
	return nodesValue(current), nil
}

// evalStep applies one step to every node of the current set: each
// origin's candidates are filtered by the predicates with XPath position
// semantics (see stepFrom), and the per-origin results are combined by
// a document-order merge. A covered or covering step without predicates
// from several origins instead drains one span join (see spanJoin),
// whose output needs no merge; positions there would be per origin, so
// predicated steps keep the per-origin path.
func (ev *evaluator) evalStep(st step, current []goddag.Node, vars Bindings) ([]goddag.Node, error) {
	indexed := ev.indexed(st)
	// A step that reads its bucket looks it up once, not once per
	// origin: the lookup takes the document's lock.
	var els []*goddag.Element
	if !ev.opts.Reference && elementTest(st.test) {
		switch st.axis {
		case AxisDescendant, AxisDescendantOrSelf, AxisFollowing, AxisPreceding, AxisCovered, AxisCovering:
			els = bucket(ev.doc, st.test)
		}
		if (st.axis == AxisCovered || st.axis == AxisCovering) && len(current) > 1 && len(st.preds) == 0 &&
			joinPays(st.axis, len(current), len(els)) && startsSorted(current) {
			return newSpanJoin(st.axis, els, nil, current, ev.lim).drain()
		}
	}
	if len(current) == 1 {
		cands, err := ev.stepFrom(st, indexed, els, current[0], vars)
		if err != nil {
			return nil, err
		}
		return ev.dedupSort(cands), nil
	}
	lists := make([][]goddag.Node, 0, len(current))
	for _, n := range current {
		cands, err := ev.stepFrom(st, indexed, els, n, vars)
		if err != nil {
			return nil, err
		}
		if len(cands) != 0 {
			lists = append(lists, cands)
		}
	}
	return ev.mergeLists(lists), nil
}

// stepFrom applies one step to one origin node. Predicates number the
// candidates in proximity order (XPath 1.0 §2.4): document order on a
// forward axis, nearest-first on a reverse one. Most enumerations
// already come in that order (the ancestor and preceding-sibling climbs
// nearest-first). The indexed following, preceding and covered scans
// come in document order from their bucket; materialized, those axes
// list elements before leaves and are sorted first. The preceding axis
// counts backwards through document order. els is the step's bucket
// when an indexed step reads one (see evalStep).
func (ev *evaluator) stepFrom(st step, indexed bool, els []*goddag.Element, n goddag.Node, vars Bindings) ([]goddag.Node, error) {
	var cands []goddag.Node
	if indexed {
		cands = ev.indexedCands(st, els, n)
		if err := ev.lim.Visit(len(cands) + 1); err != nil {
			return nil, err
		}
	} else {
		// The materialized axis, not the filtered survivors, is what
		// the origin paid for — charge that (following/preceding
		// enumerate large windows even when few candidates match).
		axis := ev.axisNodes(st.axis, n)
		if err := ev.lim.Visit(len(axis) + 1); err != nil {
			return nil, err
		}
		cands = filterTest(axis, st.test)
	}
	if len(st.preds) == 0 {
		return cands, nil
	}
	switch st.axis {
	case AxisFollowing, AxisPreceding, AxisCovered:
		if !indexed {
			cands = ev.dedupSort(cands)
		}
	}
	if st.axis == AxisPreceding {
		reverseNodes(cands)
	}
	for _, pred := range st.preds {
		var kept []goddag.Node
		size := len(cands)
		for i, c := range cands {
			pctx := evalCtx{doc: ev.doc, node: c, pos: i + 1, size: size, vars: vars}
			v, err := ev.eval(pred, pctx)
			if err != nil {
				return nil, err
			}
			if predHolds(v, i+1) {
				kept = append(kept, c)
			}
		}
		cands = kept
	}
	if st.axis == AxisPreceding {
		reverseNodes(cands)
	}
	return cands, nil
}

// reverseNodes reverses ns in place and returns it.
func reverseNodes(ns []goddag.Node) []goddag.Node {
	for i, j := 0, len(ns)-1; i < j; i, j = i+1, j-1 {
		ns[i], ns[j] = ns[j], ns[i]
	}
	return ns
}

// indexed reports whether indexedCands serves the step: an element test
// (elements never match leaves, so the enumeration can skip them) on an
// axis with an index-backed enumeration, outside Reference evaluation.
func (ev *evaluator) indexed(st step) bool {
	if ev.opts.Reference || (st.test.kind != testName && st.test.kind != testAny) {
		return false
	}
	switch st.axis {
	case AxisChild, AxisDescendant, AxisDescendantOrSelf,
		AxisAncestor, AxisAncestorOrSelf,
		AxisFollowing, AxisPreceding, AxisCovered:
		return true
	default:
		return false
	}
}

// indexedCands produces the candidate list for one origin node of a
// step that indexed accepted, from the name buckets, pre-order subtree
// slices, span windows and parent chains instead of a materialized
// axis. On child, descendant and ancestor the order matches what
// axisNodes + filterTest would produce; following, preceding and
// covered come in the bucket's document order. Either way it is the
// order stepFrom numbers positional predicates in (after reversing
// preceding). nm is the step's bucket, looked up once per step: the
// lookup takes the document's lock.
func (ev *evaluator) indexedCands(st step, nm []*goddag.Element, n goddag.Node) []goddag.Node {
	match := func(e *goddag.Element) bool {
		return st.test.kind == testAny || e.Name() == st.test.name
	}
	var out []goddag.Node
	switch st.axis {
	case AxisChild:
		switch v := n.(type) {
		case *goddag.Root:
			// Each hierarchy's top elements are in document order;
			// the merge interleaves the hierarchies.
			lists := make([][]goddag.Node, 0, len(ev.doc.Hierarchies()))
			for _, h := range ev.doc.Hierarchies() {
				var l []goddag.Node
				for _, e := range h.TopElements() {
					if match(e) {
						l = append(l, e)
					}
				}
				if len(l) != 0 {
					lists = append(lists, l)
				}
			}
			return ev.mergeLists(lists)
		case *goddag.Element:
			for i, nc := 0, v.NumChildElements(); i < nc; i++ {
				if e := v.ChildElementAt(i); match(e) {
					out = append(out, e)
				}
			}
		}

	case AxisDescendant, AxisDescendantOrSelf:
		switch v := n.(type) {
		case *goddag.Root:
			out = make([]goddag.Node, len(nm))
			for i, e := range nm {
				out[i] = e
			}
			return out
		case *goddag.Element:
			ord := ev.ordinals()
			sub := ord.Subtree(v)
			out = make([]goddag.Node, 0, len(sub)+1)
			if st.axis == AxisDescendantOrSelf && match(v) {
				out = append(out, v)
			}
			if st.test.kind == testAny {
				for _, e := range sub {
					out = append(out, e)
				}
				return out
			}
			if len(nm) <= len(sub) {
				// Scan the name index's span window, keeping subtree
				// members (O(1) pre-order interval test per candidate).
				sp := v.Span()
				i := sort.Search(len(nm), func(i int) bool { return nm[i].Span().Start >= sp.Start })
				for _, e := range nm[i:] {
					if e.Span().Start > sp.End {
						break
					}
					if ord.InSubtree(e, v) {
						out = append(out, e)
					}
				}
				return out
			}
			for _, e := range sub {
				if e.Name() == st.test.name {
					out = append(out, e)
				}
			}
			return out
		}

	case AxisAncestor, AxisAncestorOrSelf:
		// Element tests never match the root, so ancestor enumeration is
		// the parent-element chain — no per-level node-slice allocations.
		// Leaves climb one chain per hierarchy; chains converge, so a
		// bitset cuts each climb at the first already-visited element.
		switch v := n.(type) {
		case *goddag.Element:
			if st.axis == AxisAncestorOrSelf && match(v) {
				out = append(out, v)
			}
			for p := v.ParentElement(); p != nil; p = p.ParentElement() {
				if match(p) {
					out = append(out, p)
				}
			}
		case goddag.Leaf:
			ord := ev.ordinals()
			seen := ev.acquireSeen()
			for _, h := range ev.doc.Hierarchies() {
				el, ok := v.Parent(h).(*goddag.Element)
				if !ok {
					continue // parent is the root
				}
				for el != nil && seen.add(ord.OfElement(el)) {
					if match(el) {
						out = append(out, el)
					}
					el = el.ParentElement()
				}
			}
			seen.reset()
		}

	case AxisFollowing:
		sp := n.Span()
		i := sort.Search(len(nm), func(i int) bool { return nm[i].Span().Start >= sp.End })
		for _, e := range nm[i:] {
			if !goddag.NodesEqual(e, n) && spanAfter(e.Span(), sp) {
				out = append(out, e)
			}
		}

	case AxisPreceding:
		sp := n.Span()
		for _, e := range nm {
			if e.Span().Start >= sp.Start && !e.Span().IsEmpty() {
				break // can no longer end before sp begins
			}
			if !goddag.NodesEqual(e, n) && spanAfter(sp, e.Span()) {
				out = append(out, e)
			}
		}

	case AxisCovered:
		sp := n.Span()
		i := sort.Search(len(nm), func(i int) bool { return nm[i].Span().Start >= sp.Start })
		for _, e := range nm[i:] {
			if e.Span().Start > sp.End {
				break
			}
			if !goddag.NodesEqual(e, n) && sp.ContainsSpan(e.Span()) {
				out = append(out, e)
			}
		}
	}
	return out
}

// predHolds implements XPath predicate truth: a number predicate selects
// the candidate whose position equals it, so a fractional number selects
// nothing.
func predHolds(v Value, pos int) bool {
	if v.kind == valNumber {
		return v.f == float64(pos)
	}
	return v.Bool()
}

func filterTest(ns []goddag.Node, t nodeTest) []goddag.Node {
	var out []goddag.Node
	for _, n := range ns {
		switch t.kind {
		case testNode:
			out = append(out, n)
		case testText:
			if n.Kind() == goddag.KindLeaf {
				out = append(out, n)
			}
		case testAny:
			if n.Kind() == goddag.KindElement {
				out = append(out, n)
			}
		case testName:
			if el, ok := n.(*goddag.Element); ok && el.Name() == t.name {
				out = append(out, n)
			}
		}
	}
	return out
}

// dedupSort deduplicates a node list (in place) and sorts it in document
// order, keyed entirely on node ordinals: no identity maps, no interface
// comparisons. Lists that are already strictly ordered — the common case
// for single-origin step results — are returned untouched.
func (ev *evaluator) dedupSort(ns []goddag.Node) []goddag.Node {
	if len(ns) <= 1 {
		return ns
	}
	ord := ev.ordinals()
	sorted := true
	prev := ord.Of(ns[0])
	for i := 1; i < len(ns); i++ {
		o := ord.Of(ns[i])
		if o <= prev {
			sorted = false
			break
		}
		prev = o
	}
	if sorted {
		return ns
	}
	sort.Slice(ns, func(i, j int) bool { return ord.Of(ns[i]) < ord.Of(ns[j]) })
	out := ns[:1]
	last := ord.Of(ns[0])
	for _, n := range ns[1:] {
		if o := ord.Of(n); o != last {
			out = append(out, n)
			last = o
		}
	}
	return out
}

// merge2 merges two document-ordered, duplicate-free node lists into one,
// dropping cross-list duplicates (equal ordinals). When one side is empty
// the other is returned as-is.
func (ev *evaluator) merge2(a, b []goddag.Node) []goddag.Node {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	ord := ev.ordinals()
	out := make([]goddag.Node, 0, len(a)+len(b))
	i, j := 0, 0
	oa, ob := ord.Of(a[0]), ord.Of(b[0])
	for {
		switch {
		case oa < ob:
			out = append(out, a[i])
			i++
			if i == len(a) {
				return append(out, b[j:]...)
			}
			oa = ord.Of(a[i])
		case ob < oa:
			out = append(out, b[j])
			j++
			if j == len(b) {
				return append(out, a[i:]...)
			}
			ob = ord.Of(b[j])
		default: // same node in both lists
			out = append(out, a[i])
			i++
			j++
			if i == len(a) {
				return append(out, b[j:]...)
			}
			if j == len(b) {
				return append(out, a[i:]...)
			}
			oa, ob = ord.Of(a[i]), ord.Of(b[j])
		}
	}
}

// mergeLists combines per-origin step results into one document-ordered,
// duplicate-free node-set. Two lists merge linearly; more lists combine
// in a single pass — concatenate with bitset deduplication, tracking
// whether the stream stays ordered — so the common shapes are O(total):
// disjoint-origin steps (each origin's candidates form one document-order
// block, e.g. child steps from disjoint parents) need no sort at all, and
// heavily duplicated streams (ancestor climbs from thousands of origins)
// shrink through the bitset before the ordinal sort touches them. No
// per-query maps, no interface comparisons.
func (ev *evaluator) mergeLists(lists [][]goddag.Node) []goddag.Node {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return ev.dedupSort(lists[0])
	case 2:
		return ev.merge2(ev.dedupSort(lists[0]), ev.dedupSort(lists[1]))
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if total <= 128 {
		// Small result sets dedup faster through the ordinal sort than
		// through a bitset sized to the whole document.
		out := make([]goddag.Node, 0, total)
		for _, l := range lists {
			out = append(out, l...)
		}
		return ev.dedupSort(out)
	}
	ord := ev.ordinals()
	seen := ev.acquireSeen()
	out := make([]goddag.Node, 0, total)
	sorted := true
	prev := -1
	for _, l := range lists {
		for _, n := range l {
			o := ord.Of(n)
			if !seen.add(o) {
				continue
			}
			if o <= prev {
				sorted = false
			}
			prev = o
			out = append(out, n)
		}
	}
	seen.reset()
	if !sorted {
		sort.Slice(out, func(i, j int) bool { return ord.Of(out[i]) < ord.Of(out[j]) })
	}
	return out
}

// union implements the '|' operator: a document-ordered merge of two
// node-sets. Unordered operands (filter results, variable bindings) are
// sorted on a copy — the originals may be shared with bindings and must
// not be mutated.
func (ev *evaluator) union(a, b []goddag.Node) []goddag.Node {
	return ev.merge2(ev.sortedView(a), ev.sortedView(b))
}

// sortedView returns ns when already strictly document-ordered, else a
// dedup-sorted copy.
func (ev *evaluator) sortedView(ns []goddag.Node) []goddag.Node {
	if len(ns) <= 1 {
		return ns
	}
	ord := ev.ordinals()
	prev := ord.Of(ns[0])
	for i := 1; i < len(ns); i++ {
		o := ord.Of(ns[i])
		if o <= prev {
			return ev.dedupSort(append([]goddag.Node(nil), ns...))
		}
		prev = o
	}
	return ns
}
