package xpath

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/document"
	"repro/internal/goddag"
	"repro/internal/obs"
)

// This file adds a small cost-based planning layer in front of the
// evaluator. A plan is derived from the compiled AST plus per-document
// index statistics (name-bucket sizes, element counts) and classifies
// the query into one of a few executable shapes:
//
//   - planScan: the result is exactly a name-index bucket, optionally
//     filtered by predicates pushed down into the scan. Streams in
//     document order with no dedup pass.
//   - planSemiJoin: an overlap step //a/overlapping::b driven from the
//     rarer side. When bucket(b) is smaller than bucket(a) the plan
//     iterates b and probes the span index for a witnessing a, instead
//     of enumerating every overlap of every a.
//   - planJoin: a span step //a/covered::b or //a/covering::b as one
//     merge pass over the two start-sorted buckets (see spanJoin),
//     instead of a window search per origin and a merge of the
//     per-origin lists.
//   - planCount / planExists: count(path), boolean(path) and not(path)
//     over a streamable inner plan never materialize the node set —
//     count() reads the bucket cardinality or drains the cursor, and
//     existence stops at the first match.
//   - planEval: everything else falls back to the materializing
//     evaluator, whose one step loop (evalStep) draws element-test
//     candidates from the same indexes.
//
// This is the one optimizer over the step evaluator. Options.Reference
// bypasses it along with the indexed candidates, leaving the reference
// evaluator as the differential oracle.
//
// Plans are cached per compiled Query in a single atomic slot keyed by
// (document serial, document version); the Query instances themselves
// live in the server's compiled-query LRU, so the slot rides alongside
// it. Any structural mutation advances the version (see
// goddag.Document.Version) and invalidates the cached plan.

// Plan is a prepared execution strategy for a Query against a specific
// document. Explain exposes it to clients via the server's explain flag.
type Plan struct {
	kind    planKind
	test    nodeTest // planScan: the bucket to scan; planSemiJoin, planJoin: the origins
	preds   []expr   // planScan: predicates pushed into the scan
	outTest nodeTest // planSemiJoin, planJoin: output-side bucket
	axis    Axis     // planJoin: covered or covering; a one-step scan: its axis
	inner   *Plan    // planCount / planExists
	negate  bool     // planExists: not(path)
	// What Explain reports, formatted only when a caller asks: the
	// decision within the kind and the bucket sizes it was taken on.
	why        planWhy
	estA, estB int // origin (or scanned) side, output side
}

// planWhy tells apart the decisions that share a plan kind.
type planWhy uint8

const (
	whyNoShape   planWhy = iota // planEval: no streamable shape
	whyReference                // planEval: Options.Reference
	whyForward                  // planEval: overlap origin side no larger, forward drive kept
	whyPerOrigin                // planEval: covering output side too large to join
	whyScanStep                 // planScan: one descendant step, as written
	whyScanName                 // planScan: '//name[preds]' over the name bucket
	whyEmpty                    // planScan: the overlap origin bucket is empty
)

type planKind int

const (
	planEval planKind = iota
	planScan
	planSemiJoin
	planJoin
	planCount
	planExists
	planKindCount // not a kind: the number of kinds
)

// Explain returns the human-readable plan description, one decision per
// line. The lines are built on each call: planning records only what
// they are made from, since most plans are never explained.
func (p *Plan) Explain() []string {
	switch p.kind {
	case planCount, planExists:
		line := "count: streamed without materializing the node set"
		switch {
		case p.kind == planExists && p.negate:
			line = "exists(negated): stop at the first streamed match"
		case p.kind == planExists:
			line = "exists: stop at the first streamed match"
		case p.inner.kind == planScan && len(p.inner.preds) == 0:
			line = "count: O(1) bucket cardinality, no evaluation"
		}
		return append(p.inner.Explain(), line)
	case planSemiJoin:
		return []string{fmt.Sprintf("semi-join(reversed): scan output side %s (%d candidates), probe span index for one properly overlapping %s (%d); driven from the rarer side",
			bucketLabel(p.outTest), p.estB, bucketLabel(p.test), p.estA)}
	case planJoin:
		return []string{fmt.Sprintf("join: %s::%s merges origin side %s (%d) with output side %s (%d) in one pass, document order, dedup-free",
			p.axis, p.outTest.String(), bucketLabel(p.test), p.estA, bucketLabel(p.outTest), p.estB)}
	}
	switch p.why {
	case whyReference:
		return []string{"materialize: planner disabled by Options.Reference"}
	case whyForward:
		return []string{fmt.Sprintf("semi-join(forward): origin side %s (%d) is no larger than output side %s (%d); forward drive kept, materializing evaluator",
			bucketLabel(p.test), p.estA, bucketLabel(p.outTest), p.estB)}
	case whyPerOrigin:
		return []string{fmt.Sprintf("join(per-origin): output side %s (%d) exceeds %d× origin side %s (%d); one span-index probe per origin, materializing evaluator",
			bucketLabel(p.outTest), p.estB, coveringJoinRatio, bucketLabel(p.test), p.estA)}
	case whyScanStep:
		scan := fmt.Sprintf("scan: %s from root via %s (%d candidates), document order, dedup-free",
			step{axis: p.axis, test: p.test, preds: p.preds}.String(), bucketLabel(p.test), p.estA)
		if len(p.preds) == 0 {
			return []string{scan}
		}
		return []string{scan, fmt.Sprintf("pushdown: %d predicate(s) applied during the scan", len(p.preds))}
	case whyScanName:
		return []string{
			fmt.Sprintf("scan: //%s via %s (%d candidates), document order, dedup-free", p.test.String(), bucketLabel(p.test), p.estA),
			fmt.Sprintf("pushdown: %d position-free predicate(s) applied during the scan", len(p.preds)),
		}
	case whyEmpty:
		return []string{fmt.Sprintf("empty: origin %s has no elements, result is empty", bucketLabel(p.test))}
	}
	return []string{"materialize: full evaluation (no streamable shape)"}
}

// planSlot is the single-entry plan cache attached to a Query. It names
// the planned document by its serial, not by pointer, and a Plan holds
// no document data, so a cached query never keeps an evicted document
// (or the file mapping behind it) alive.
type planSlot struct {
	serial  uint64
	version uint64
	plan    *Plan
}

// planFor returns the cached plan for doc, planning on a miss.
// Options.Reference bypasses the planner: the materializing evaluator
// then runs the reference algorithms, so differential tests and the
// ablation benchmark measure what they claim to.
func (q *Query) planFor(doc *goddag.Document, opts Options) *Plan {
	if opts.Reference {
		return &Plan{kind: planEval, why: whyReference}
	}
	ser, ver := doc.Serial(), doc.Version()
	if s := q.plan.Load(); s != nil && s.serial == ser && s.version == ver {
		engine.planHits.Add(1)
		engine.planKinds[s.plan.kind].Add(1)
		return s.plan
	}
	engine.planMisses.Add(1)
	pl := planQuery(doc, q.root)
	engine.planKinds[pl.kind].Add(1)
	q.plan.Store(&planSlot{serial: ser, version: ver, plan: pl})
	return pl
}

// planQuery classifies the root expression. Count and existence
// wrappers stream their inner path when it is streamable; bare paths
// plan directly; everything else materializes.
func planQuery(doc *goddag.Document, root expr) *Plan {
	switch n := root.(type) {
	case *pathExpr:
		if pl, ok := planNodes(doc, n); ok {
			return &pl
		}
	case *callExpr:
		kind := planCount
		switch n.name {
		case "count":
		case "boolean", "not":
			kind = planExists
		default:
			return &Plan{kind: planEval}
		}
		if len(n.args) == 1 {
			if p, ok := n.args[0].(*pathExpr); ok {
				if inner, ok := planNodes(doc, p); ok && inner.kind != planEval {
					return &Plan{kind: kind, inner: &inner, negate: n.name == "not"}
				}
			}
		}
	}
	return &Plan{kind: planEval}
}

// planNodes plans an absolute, filter-free path expression. It returns
// ok=false when the shape is not recognized at all; a returned planEval
// plan means the shape was recognized but the statistics favour the
// existing evaluator (the explain lines say why). The plan is returned
// by value, so a caller that only runs it allocates nothing.
func planNodes(doc *goddag.Document, p *pathExpr) (Plan, bool) {
	if p.filter != nil || !p.absolute || len(p.steps) == 0 {
		return Plan{}, false
	}
	steps := p.steps

	if len(steps) == 1 {
		st := steps[0]
		if !descendantAxis(st.axis) || !elementTest(st.test) {
			return Plan{}, false
		}
		// Pushdown. With the root as the only origin the candidate list
		// the scan sees is exactly the list evalStep would build, so
		// position() and numeric predicates stream correctly — the
		// cursor tracks per-stage positions incrementally. Only last()
		// in a later stage is out: its value is the previous stage's
		// survivor count, unknown until the scan ends.
		for i, pr := range st.preds {
			if i > 0 && usesCall(pr, "last") {
				return Plan{}, false
			}
		}
		return Plan{kind: planScan, why: whyScanStep, test: st.test, preds: st.preds, axis: st.axis,
			estA: len(bucket(doc, st.test))}, true
	}

	if len(steps) == 2 {
		s1, s2 := steps[0], steps[1]

		// '//name[preds]' survives optimizeSteps un-collapsed as
		// descendant-or-self::node()/child::name[preds]. The child step
		// unioned over every node origin is exactly the name bucket in
		// document order (each element has one parent per hierarchy), so
		// the scan streams it — but only when no predicate observes
		// position() or last(): those are per-parent in the reference
		// semantics and global in a bucket scan.
		if s1.axis == AxisDescendantOrSelf && s1.test.kind == testNode && len(s1.preds) == 0 &&
			s2.axis == AxisChild && elementTest(s2.test) && len(s2.preds) > 0 &&
			predsStaticBool(s2.preds) {
			return Plan{kind: planScan, why: whyScanName, test: s2.test, preds: s2.preds,
				estA: len(bucket(doc, s2.test))}, true
		}

		// Overlap semi-join: //a/overlapping::b. Proper overlap is
		// symmetric, so the join can be driven from either side; drive
		// from the rarer bucket. Reversed, each b-candidate probes the
		// span index for a witnessing a and exits at the first hit —
		// the output is bucket order (= document order), dedup-free.
		if descendantAxis(s1.axis) && elementTest(s1.test) && len(s1.preds) == 0 &&
			s2.axis == AxisOverlapping && elementTest(s2.test) && len(s2.preds) == 0 {
			pl := Plan{test: s1.test, outTest: s2.test,
				estA: len(bucket(doc, s1.test)), estB: len(bucket(doc, s2.test))}
			switch {
			case pl.estA == 0:
				pl.kind, pl.why = planScan, whyEmpty
			case pl.estB < pl.estA:
				pl.kind = planSemiJoin
			default:
				pl.kind, pl.why = planEval, whyForward
			}
			return pl, true
		}

		// Span join: //a/covered::b and //a/covering::b merge the two
		// start-sorted buckets in one pass; the output is bucket order,
		// dedup-free.
		if descendantAxis(s1.axis) && elementTest(s1.test) && len(s1.preds) == 0 &&
			(s2.axis == AxisCovered || s2.axis == AxisCovering) && elementTest(s2.test) && len(s2.preds) == 0 {
			pl := Plan{kind: planJoin, test: s1.test, outTest: s2.test, axis: s2.axis,
				estA: len(bucket(doc, s1.test)), estB: len(bucket(doc, s2.test))}
			if !joinPays(s2.axis, pl.estA, pl.estB) {
				pl.kind, pl.why = planEval, whyPerOrigin
			}
			return pl, true
		}
	}
	return Plan{}, false
}

func descendantAxis(ax Axis) bool {
	return ax == AxisDescendant || ax == AxisDescendantOrSelf
}

func elementTest(t nodeTest) bool {
	return (t.kind == testName || t.kind == testAny) && t.hierarchy == ""
}

func probeNameOf(t nodeTest) string {
	if t.kind == testName {
		return t.name
	}
	return ""
}

// bucket is the document-ordered element pool of an element test: the
// name index for a name test, every element for *.
func bucket(doc *goddag.Document, t nodeTest) []*goddag.Element {
	if t.kind == testName {
		return doc.ElementsNamed(t.name)
	}
	return doc.Elements()
}

func bucketLabel(t nodeTest) string {
	if t.kind == testName {
		return fmt.Sprintf("name bucket %q", t.name)
	}
	return "all elements"
}

// predsStaticBool reports whether every predicate is statically
// boolean-valued (never interpreted positionally) and independent of
// the evaluation position — the safety condition for pushing '//name'
// predicates into a global bucket scan.
func predsStaticBool(preds []expr) bool {
	for _, pr := range preds {
		if !staticBool(pr) || usesCall(pr, "position") || usesCall(pr, "last") {
			return false
		}
	}
	return true
}

// staticBool reports whether e always yields a boolean-interpretable,
// non-numeric value: comparisons and logic, boolean-returning builtins,
// node-set and string operands coerced via Bool. Numeric expressions
// are excluded because predHolds treats them positionally.
func staticBool(e expr) bool {
	switch n := e.(type) {
	case *binaryExpr:
		switch n.op {
		case "or", "and", "=", "!=", "<", "<=", ">", ">=":
			return true
		}
		return false
	case *callExpr:
		switch n.name {
		case "not", "boolean", "true", "false", "contains", "starts-with", "overlaps":
			return true
		}
		return false
	case *pathExpr, *literalExpr:
		return true
	default:
		return false
	}
}

// usesCall reports whether e contains a call to the named function
// anywhere, including inside nested path predicates.
func usesCall(e expr, name string) bool {
	found := false
	walkExpr(e, func(x expr) bool {
		if c, ok := x.(*callExpr); ok && c.name == name {
			found = true
			return false
		}
		return true
	})
	return found
}

// walkExpr applies f to e and every sub-expression, stopping early when
// f returns false. Returns false if the walk was stopped.
func walkExpr(e expr, f func(expr) bool) bool {
	if e == nil {
		return true
	}
	if !f(e) {
		return false
	}
	switch n := e.(type) {
	case *binaryExpr:
		return walkExpr(n.l, f) && walkExpr(n.r, f)
	case *unaryExpr:
		return walkExpr(n.x, f)
	case *callExpr:
		for _, a := range n.args {
			if !walkExpr(a, f) {
				return false
			}
		}
	case *pathExpr:
		if !walkExpr(n.filter, f) {
			return false
		}
		for _, st := range n.steps {
			for _, pr := range st.preds {
				if !walkExpr(pr, f) {
					return false
				}
			}
		}
	}
	return true
}

// --- cursors -------------------------------------------------------------

// cursor is the lazy node-set contract: next returns the following node
// in document order, (nil, nil) once exhausted. size reports the exact
// number of remaining nodes, or -1 when it cannot be known without
// draining (predicate and semi-join cursors).
type cursor interface {
	next() (goddag.Node, error)
	size() int
}

// Streaming cursors over pre-materialized slices tick their limiter in
// batches of cursorTick nodes: the per-node cost is one mask-and-branch,
// and a cancelled consumer (client disconnect mid-encode) still stops
// within cursorTick pulls.
const cursorTick = 64

type elemsCursor struct {
	els []*goddag.Element
	i   int
	lim *Limiter
}

func (c *elemsCursor) next() (goddag.Node, error) {
	if c.i >= len(c.els) {
		return nil, nil
	}
	if c.i&(cursorTick-1) == 0 {
		if err := c.lim.Visit(cursorTick); err != nil {
			return nil, err
		}
	}
	e := c.els[c.i]
	c.i++
	return e, nil
}

func (c *elemsCursor) size() int { return len(c.els) - c.i }

// sliceCursor adapts a materialized node set (planEval fallback) to the
// stream contract.
type sliceCursor struct {
	ns  []goddag.Node
	i   int
	lim *Limiter
}

func (c *sliceCursor) next() (goddag.Node, error) {
	if c.i >= len(c.ns) {
		return nil, nil
	}
	if c.i&(cursorTick-1) == 0 {
		if err := c.lim.Visit(cursorTick); err != nil {
			return nil, err
		}
	}
	n := c.ns[c.i]
	c.i++
	return n, nil
}

func (c *sliceCursor) size() int { return len(c.ns) - c.i }

// predCursor streams a bucket scan with pushed-down predicates. pos[k]
// counts how many candidates reached predicate stage k, reproducing the
// sequential-stage position semantics of evalStep: a candidate's
// position at stage k is its rank among survivors of stages [0,k).
type predCursor struct {
	ev    *evaluator
	els   []*goddag.Element
	preds []expr
	vars  Bindings
	pos   []int
	i     int
}

func (c *predCursor) next() (goddag.Node, error) {
candidates:
	for c.i < len(c.els) {
		e := c.els[c.i]
		c.i++
		for k, pred := range c.preds {
			c.pos[k]++
			size := 0
			if k == 0 {
				// Stage 0 sees the full candidate list, so last() is
				// the bucket size. Later stages never see last(): the
				// planner rejects it there.
				size = len(c.els)
			}
			pctx := evalCtx{doc: c.ev.doc, node: e, pos: c.pos[k], size: size, vars: c.vars}
			v, err := c.ev.eval(pred, pctx)
			if err != nil {
				return nil, err
			}
			if !predHolds(v, c.pos[k]) {
				continue candidates
			}
		}
		return e, nil
	}
	return nil, nil
}

func (c *predCursor) size() int { return -1 }

// semiJoinCursor streams the reversed overlap semi-join: iterate the
// (smaller) output bucket, emit each element witnessed by at least one
// properly overlapping element matching probeName. The span-index probe
// exits at the first witness.
type semiJoinCursor struct {
	doc       *goddag.Document
	els       []*goddag.Element
	probeName string // "" = any element
	i         int
	lim       *Limiter
}

func (c *semiJoinCursor) next() (goddag.Node, error) {
	for c.i < len(c.els) {
		// Per-candidate tick: every probe is a span-index walk, so a
		// non-matching tail must stay cancellable even though it emits
		// nothing.
		if err := c.lim.Visit(1); err != nil {
			return nil, err
		}
		e := c.els[c.i]
		c.i++
		if anyOverlapping(c.doc, e.Span(), c.probeName) {
			return e, nil
		}
	}
	return nil, nil
}

func (c *semiJoinCursor) size() int { return -1 }

// anyOverlapping reports whether any element (matching name, when
// non-empty) properly overlaps sp. Proper overlap is symmetric and
// irreflexive, so no identity exclusion is needed.
func anyOverlapping(doc *goddag.Document, sp document.Span, name string) bool {
	found := false
	doc.VisitIntersecting(sp, func(x *goddag.Element) bool {
		if (name == "" || x.Name() == name) && x.Span().Overlaps(sp) {
			found = true
			return false
		}
		return true
	})
	return found
}

// nodeCursor builds the cursor for a node-producing plan.
func (ev *evaluator) nodeCursor(pl *Plan, vars Bindings) cursor {
	switch pl.kind {
	case planScan:
		els := bucket(ev.doc, pl.test)
		if len(pl.preds) == 0 {
			return &elemsCursor{els: els, lim: ev.lim}
		}
		// Predicate evaluation ticks the limiter itself (eval counts one
		// visit per expression), so predCursor needs no tick of its own.
		return &predCursor{ev: ev, els: els, preds: pl.preds, vars: vars, pos: make([]int, len(pl.preds))}
	case planSemiJoin:
		return &semiJoinCursor{doc: ev.doc, els: bucket(ev.doc, pl.outTest), probeName: probeNameOf(pl.test), lim: ev.lim}
	case planJoin:
		return newSpanJoin(pl.axis, bucket(ev.doc, pl.outTest), bucket(ev.doc, pl.test), nil, ev.lim)
	}
	return nil
}

// countPlan counts a streamable inner plan without materializing.
func (ev *evaluator) countPlan(inner *Plan, vars Bindings) (int, error) {
	cur := ev.nodeCursor(inner, vars)
	if n := cur.size(); n >= 0 {
		return n, nil
	}
	n := 0
	for {
		nd, err := cur.next()
		if err != nil {
			return 0, err
		}
		if nd == nil {
			return n, nil
		}
		n++
	}
}

// plannedCount is the count() clamp: when the argument is a streamable
// absolute path, count it from the bucket cardinality or by draining a
// cursor — never materializing the node set. ok=false means the caller
// must fall back to full evaluation.
func (ev *evaluator) plannedCount(arg expr, ctx evalCtx) (int, bool, error) {
	inner, ok := ev.streamableArg(arg)
	if !ok {
		return 0, false, nil
	}
	n, err := ev.countPlan(&inner, ctx.vars)
	return n, true, err
}

// plannedExists is the boolean()/not() clamp: pull at most one node.
func (ev *evaluator) plannedExists(arg expr, ctx evalCtx) (bool, bool, error) {
	inner, ok := ev.streamableArg(arg)
	if !ok {
		return false, false, nil
	}
	exists, err := ev.existsPlan(&inner, ctx.vars)
	return exists, true, err
}

// streamableArg plans a function argument when the planner is enabled
// (not Options.Reference) and the argument is a streamable absolute
// path. Absolute paths are context-independent, so the clamp is valid
// at any evaluation position.
func (ev *evaluator) streamableArg(arg expr) (Plan, bool) {
	if ev.opts.Reference {
		return Plan{}, false
	}
	p, ok := arg.(*pathExpr)
	if !ok {
		return Plan{}, false
	}
	inner, ok := planNodes(ev.doc, p)
	return inner, ok && inner.kind != planEval
}

// existsPlan pulls at most one node from a streamable inner plan.
func (ev *evaluator) existsPlan(inner *Plan, vars Bindings) (bool, error) {
	cur := ev.nodeCursor(inner, vars)
	if n := cur.size(); n >= 0 {
		return n > 0, nil
	}
	nd, err := cur.next()
	if err != nil {
		return false, err
	}
	return nd != nil, nil
}

// --- streaming API -------------------------------------------------------

// Stream is a lazy query execution: node-set results are pulled one node
// at a time in document order without materializing the full set, and
// scalar results (numbers, strings, booleans, attribute sets) are
// available immediately via Value. Close releases the pooled evaluator;
// a Stream must be fully consumed and closed before the document is
// mutated (same contract as Eval's read snapshot).
type Stream struct {
	ev     *evaluator
	plan   *Plan
	cur    cursor
	val    Value
	scalar bool
	closed bool
}

// Stream executes q lazily against doc.
func (q *Query) Stream(doc *goddag.Document) (*Stream, error) {
	return q.StreamWithOptions(doc, Options{})
}

// StreamContext is Stream under ctx with a resource budget: plan
// execution and every Next observe cancellation at amortized
// checkpoints, so an abandoned consumer (client disconnect mid-encode)
// stops the evaluation instead of draining it.
func (q *Query) StreamContext(ctx context.Context, doc *goddag.Document, b Budget) (*Stream, error) {
	return q.StreamWithOptions(doc, Options{Context: ctx, Budget: b})
}

// StreamWithOptions executes q lazily against doc with evaluation
// options. Count/exists plans and materializing fallbacks execute
// eagerly here; bucket scans, semi-joins and joins defer all work to
// Next.
func (q *Query) StreamWithOptions(doc *goddag.Document, opts Options) (*Stream, error) {
	ev := acquireEvaluator(doc, q.source, opts)
	if err := ev.lim.Err(); err != nil {
		releaseEvaluator(ev)
		return nil, err
	}
	sp := ev.tr.Begin("plan")
	pl := q.planFor(doc, opts)
	sp.End()
	s := &Stream{ev: ev, plan: pl}
	var err error
	// The eval span covers the eager shapes (count, exists, materialize);
	// lazy cursors (scan, semi-join, join) do their work under the
	// consumer's pulls, which the serving layer attributes to its encode
	// stage.
	sp = ev.tr.Begin("eval")
	switch pl.kind {
	case planScan, planSemiJoin, planJoin:
		s.cur = ev.nodeCursor(pl, nil)
	case planCount:
		var n int
		if n, err = ev.countPlan(pl.inner, nil); err == nil {
			s.val, s.scalar = numberValue(float64(n)), true
		}
	case planExists:
		var ok bool
		if ok, err = ev.existsPlan(pl.inner, nil); err == nil {
			if pl.negate {
				ok = !ok
			}
			s.val, s.scalar = boolValue(ok), true
		}
	default:
		var v Value
		rootCtx := evalCtx{doc: doc, node: doc.Root(), pos: 1, size: 1}
		if v, err = ev.eval(q.root, rootCtx); err == nil {
			if v.kind == valNodes {
				s.cur = &sliceCursor{ns: v.nodes, lim: ev.lim}
			} else {
				s.val, s.scalar = v, true
			}
		}
	}
	sp.End()
	if err != nil {
		releaseEvaluator(ev)
		return nil, err
	}
	return s, nil
}

// IsNodeSet reports whether the stream yields nodes (pull with Next)
// rather than a scalar value (read with Value).
func (s *Stream) IsNodeSet() bool { return !s.scalar }

// Value returns the scalar result and true when the query did not yield
// a node set (numbers, strings, booleans, attribute sets).
func (s *Stream) Value() (Value, bool) {
	if s.scalar {
		return s.val, true
	}
	return Value{}, false
}

// Next returns the next node in document order, or (nil, nil) when the
// stream is exhausted or the result is scalar.
func (s *Stream) Next() (goddag.Node, error) {
	if s.cur == nil {
		return nil, nil
	}
	return s.cur.next()
}

// Size reports the exact number of nodes remaining, or -1 when unknown
// without draining (predicate, semi-join and join plans). Scalar streams
// report 0.
func (s *Stream) Size() int {
	if s.cur == nil {
		return 0
	}
	return s.cur.size()
}

// Count drains the stream and returns the number of remaining nodes,
// using the size shortcut when it is exact.
func (s *Stream) Count() (int, error) {
	if s.cur == nil {
		return 0, nil
	}
	if n := s.cur.size(); n >= 0 {
		// Advance past the counted nodes so a subsequent Next is clean.
		if ec, ok := s.cur.(*elemsCursor); ok {
			ec.i = len(ec.els)
		} else if sc, ok := s.cur.(*sliceCursor); ok {
			sc.i = len(sc.ns)
		}
		return n, nil
	}
	n := 0
	for {
		nd, err := s.cur.next()
		if err != nil {
			return n, err
		}
		if nd == nil {
			return n, nil
		}
		n++
	}
}

// Explain returns the plan description for this execution.
func (s *Stream) Explain() []string { return s.plan.Explain() }

// Close releases the stream's pooled resources. Safe to call more than
// once; the stream must not be used afterwards.
func (s *Stream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	releaseEvaluator(s.ev)
	s.ev = nil
	s.cur = nil
}

// --- evaluator pool ------------------------------------------------------

// evPool recycles evaluators between queries. The payoff is the seen
// bitset: once grown to a document's ordinal range it is retained, so a
// steady-state serving workload performs zero bitset allocations per
// request (the dedup-bitset pool the roadmap calls for).
var evPool = sync.Pool{New: func() any { return new(evaluator) }}

func acquireEvaluator(doc *goddag.Document, query string, opts Options) *evaluator {
	ev := evPool.Get().(*evaluator)
	ev.doc = doc
	ev.query = query
	ev.opts = opts
	ev.tr = obs.TraceFrom(opts.Context)
	ev.lim = opts.Limiter
	ev.ownLim = false
	if ev.lim == nil {
		ev.lim = NewLimiter(opts.Context, opts.Budget)
		if ev.lim == nil && ev.tr != nil {
			// Explain-analyze wants the visit count even when no limits
			// apply; a counting-only limiter costs the same amortized
			// checkpoints the limited paths already pay.
			ev.lim = NewCountingLimiter()
		}
		ev.ownLim = ev.lim != nil
	}
	return ev
}

func releaseEvaluator(ev *evaluator) {
	if ev == nil {
		return
	}
	if ev.ownLim {
		// Caller-owned limiters (FLWOR's shared budget) are reported by
		// their owner via ReportVisited, once per request rather than
		// once per clause evaluation.
		if n := ev.lim.Visited(); n > 0 {
			engine.visited.Add(uint64(n))
			ev.tr.AddVisited(n)
		}
		ev.ownLim = false
	}
	ev.doc = nil
	ev.ord = nil
	ev.query = ""
	ev.opts = Options{}
	ev.lim = nil
	ev.tr = nil
	ev.seen.reset() // keep grown bits, clear touched entries
	evPool.Put(ev)
}
