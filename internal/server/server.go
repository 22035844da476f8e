// Package server exposes a catalog of concurrent XML documents as an
// HTTP query *and editing* service — the serving layer that turns the
// framework's engine (GODDAG + Extended XPath + FLWOR + the xTagger
// editing model) into a system. Reads run under each document's read
// lock (catalog.View): any number of requests evaluate against the same
// document in parallel, and compiled queries are stateless between
// evaluations, so one compiled form is shared by all requests. Writes
// run under the write lock (catalog.UpdateBatch, Undo, Redo): each edit
// request is one editor transaction — prevalidated per operation,
// vetoed atomically — whose commit repairs the document's indexes in
// place and persists the document through the store's atomic save, so
// a query racing an edit sees either the old or the new state, never a
// torn one.
//
// Endpoints:
//
//	POST   /query         evaluate an Extended XPath or FLWOR query
//	GET    /docs          list catalogued documents with per-document stats
//	GET    /docs/ID       one document's stats (?load=1 forces a load and
//	                      adds document structure counts)
//	DELETE /docs/ID       evict the document (or clear a cached load
//	                      failure, so a fixed source can reload without a
//	                      restart); refused for unsaved edits
//	POST   /docs/ID/edit  apply a JSON op batch as one transaction
//	POST   /docs/ID/undo  revert the most recent committed transaction
//	POST   /docs/ID/redo  re-apply the most recently undone transaction
//	GET    /healthz       liveness probe
//	GET    /stats         catalog + server counters, per-route latency
//	                      quantiles
//	GET    /metrics       Prometheus text exposition of every metric
//	GET    /debug/requests recent slow/errored queries (bounded ring)
//
// POST /docs/{id}/edit takes a JSON body with one op batch:
//
//	{"ops": [
//	  {"op":"insert-markup","hierarchy":"words","tag":"w","start":0,"end":4,
//	   "attrs":{"lemma":"swa"}},
//	  {"op":"remove-markup","hierarchy":"words","index":3},
//	  {"op":"set-attr","hierarchy":"words","index":0,"name":"kind","value":"noun"},
//	  {"op":"remove-attr","hierarchy":"words","index":0,"name":"kind"}
//	]}
//
// Spans are byte offsets into the document content (the GODDAG's native
// coordinates); elements are addressed by hierarchy plus document-order
// index *at the time the op applies* (earlier ops in the batch shift
// later indices). The batch is one editor transaction: every op is
// prevalidated against the mid-batch state, and the first failure vetoes
// the whole batch — the response is then a 422 with the failing op's
// index and, when prevalidation raised it, the structured violation.
// Committed batches persist before the response is sent; undo/redo also
// persist. Config.ReadOnly disables all three write endpoints with 403.
//
// POST /query takes a JSON body:
//
//	{"doc": "ms", "query": "//dmg/overlapping::w", "limit": 100}
//	{"doc": "ms", "flwor": "for $w in //w return $w", "format": "text"}
//
// and responds with the result in the requested format: "json" (default;
// QueryResponse, results in the cliutil.ValueJSON schema — hierarchy,
// tag, byte and rune span, text per node), "text" (byte-identical to
// the cxquery CLI output for the same document and query), or "count",
// all through the append encoders of internal/cliutil. The node cap
// (request "limit", else Config.MaxResults) bounds encoded nodes in
// every format except "count": JSON responses flag truncation, text
// responses simply stop at the cap, so text output matches the
// (uncapped) CLI exactly for results within the cap.
//
// Compiled queries are cached in an LRU shared across requests and
// documents, so the hot-path cost of a repeated query is evaluation
// alone. Request bodies are size-limited; Serve installs graceful
// shutdown around the listener.
//
// # Request lifecycles
//
// Every request carries a real end-to-end deadline, not a response
// timer: the handler derives a context from the connection's
// (r.Context()) plus the configured Config.Timeout — tightened, never
// loosened, by a per-request "timeoutMS" field in the /query body — and
// threads it through the whole pipeline. Lock acquisition and cold
// document loads in the catalog give up when it fires (without
// aborting the shared load for other waiters), and the evaluator polls
// it at amortized checkpoints, so the goroutine serving an expired or
// disconnected request unwinds promptly instead of finishing work
// nobody will read. Config.MaxVisited adds a per-evaluation node
// budget on top. The failure modes are distinguishable in the
// response: 504 for a deadline that expired server-side, 499 (nginx's
// "client closed request") when the client went away first, 413 when
// the node budget was exhausted. Evaluations slower than
// Config.SlowQuery are logged and counted; /stats reports cancelled,
// timed-out, budget-exceeded, and slow-query totals.
//
// # Observability
//
// Every counter the server keeps lives in an obs.Registry (Config.Obs,
// or a private one): per-route latency histograms and status-class
// counters from the instrument middleware, the lifecycle counters
// above, and func-backed views of the compiled-query cache and the
// xpath engine's plan/visit counters. GET /metrics exposes the registry
// in Prometheus text format, and /stats is reimplemented as reads of
// the same registry — the two surfaces agree by construction. A /query
// body with "trace": true gets its response annotated with the
// request's stage breakdown (decode, lock wait, cold load, plan, eval,
// encode) plus the node visit count — explain-analyze for one request —
// and the same breakdown accompanies each slow-query log line and each
// /debug/requests ring entry. Logs go through Config.Logger
// (log/slog). All of it holds the streaming path's flat allocation
// budget: metric handles are pre-resolved per route, and an untraced
// request carries a nil *Trace whose every method is a no-op.
package server

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/editor"
	"repro/internal/goddag"
	"repro/internal/obs"
	"repro/internal/validate"
	"repro/internal/xpath"
	"repro/internal/xquery"
)

// Config tunes the service. The zero value serves with the defaults
// noted on each field.
type Config struct {
	// QueryCache is the compiled-query LRU capacity (default 256).
	QueryCache int
	// MaxBody bounds the POST /query body in bytes (default 1 MiB).
	MaxBody int64
	// MaxResults caps encoded result nodes per response when the request
	// does not set its own limit (default 10000; <0 means unlimited).
	MaxResults int
	// Timeout is the default end-to-end deadline of a request: lock
	// waits, cold loads, evaluation, and encoding all stop when it
	// expires and the client gets 504 (default 0: no deadline). A /query
	// request may tighten it with "timeoutMS", never loosen it.
	Timeout time.Duration
	// MaxVisited bounds the nodes one query evaluation may visit; an
	// evaluation that exhausts it gets 413 (default 0: unlimited).
	MaxVisited int
	// SlowQuery logs and counts query evaluations slower than this
	// (default 0: disabled).
	SlowQuery time.Duration
	// ReadOnly disables the edit, undo, and redo endpoints (403).
	ReadOnly bool
	// MaxOps bounds the operations accepted in one edit batch
	// (default 1000; <0 means unlimited).
	MaxOps int
	// MaxInflight caps concurrently served requests; excess load is
	// shed with 503 + Retry-After instead of queuing without bound
	// (default 256; <0 means unlimited). /healthz, /stats, /metrics and
	// /debug/requests bypass the gate so operators can observe an
	// overloaded server.
	MaxInflight int
	// Obs is the metrics registry the server records into — share one
	// with catalog.Options.Obs so GET /metrics covers both layers. Nil
	// creates a private registry: the counters behind /stats and
	// /metrics always exist.
	Obs *obs.Registry
	// Logger receives the server's structured log lines (slow queries,
	// recovered panics). Nil means slog.Default().
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.QueryCache <= 0 {
		c.QueryCache = 256
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	if c.MaxResults == 0 {
		c.MaxResults = 10000
	}
	if c.MaxOps == 0 {
		c.MaxOps = 1000
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 256
	}
	return c
}

// Server is the HTTP query service over one catalog.
type Server struct {
	cat    *catalog.Catalog
	cfg    Config
	cache  *queryCache
	logger *slog.Logger

	// inflight is the admission semaphore behind Config.MaxInflight;
	// nil when unlimited.
	inflight chan struct{}

	// met holds the pre-resolved metric handles; ring the recent
	// slow/errored requests behind /debug/requests (see obs.go). The
	// counters below live in the same registry, so /stats and /metrics
	// read one source of truth.
	met    serverMetrics
	ring   requestRing
	reqSeq atomic.Uint64 // request-id sequence for traced requests

	requests *obs.Counter
	errors   *obs.Counter
	panics   *obs.Counter // handler panics recovered by the middleware
	shed     *obs.Counter // requests rejected by the overload gate

	// Lifecycle counters (see the package comment).
	cancelled      *obs.Counter // client went away before the response
	timedOut       *obs.Counter // server-side deadline expired
	budgetExceeded *obs.Counter // evaluation node budget exhausted
	slowQueries    *obs.Counter // evaluations slower than Config.SlowQuery
}

// statusClientClosedRequest is nginx's non-standard 499: the client
// closed the connection before the server finished the response. Used
// for accounting consistency — the client never sees it.
const statusClientClosedRequest = 499

// New creates a server over the catalog.
func New(cat *catalog.Catalog, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cat: cat, cfg: cfg, cache: newQueryCache(cfg.QueryCache)}
	if cfg.MaxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	s.logger = cfg.Logger
	if s.logger == nil {
		s.logger = slog.Default()
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.met = s.newServerMetrics(reg)
	s.requests = reg.Counter("cx_requests_total", "Handler invocations (excludes shed requests).", "")
	s.errors = reg.Counter("cx_errors_total", "Requests answered with an error response.", "")
	s.panics = reg.Counter("cx_panics_total", "Handler panics recovered by the middleware.", "")
	s.shed = reg.Counter("cx_shed_total", "Requests rejected by the overload gate.", "")
	s.cancelled = reg.Counter("cx_requests_cancelled_total", "Requests whose client disconnected first.", "")
	s.timedOut = reg.Counter("cx_requests_timed_out_total", "Requests that hit the server-side deadline.", "")
	s.budgetExceeded = reg.Counter("cx_budget_exceeded_total", "Evaluations that exhausted the node budget.", "")
	s.slowQueries = reg.Counter("cx_slow_queries_total", "Evaluations slower than the slow-query threshold.", "")
	return s
}

// Handler returns the service's HTTP handler: the route mux wrapped in
// the overload gate and — outermost — panic recovery. Request deadlines
// are not a wrapper: each handler derives its own context (Config.
// Timeout tightened by the request) and the pipeline underneath
// cooperates with it, so an expired request actually stops computing
// instead of racing a response timer that buffers its work away.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/docs", s.handleDocs)
	mux.HandleFunc("/docs/", s.handleDoc)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.Handle("/metrics", s.met.reg.Handler())
	mux.HandleFunc("/debug/requests", s.handleDebugRequests)
	return s.instrument(s.recoverPanics(s.gate(mux)))
}

// requestContext derives the request's working context: the connection
// context (cancelled when the client disconnects) bounded by the
// server's default deadline, tightened — never loosened — by an
// optional client-requested timeout in milliseconds.
func (s *Server) requestContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.cfg.Timeout
	if timeoutMS > 0 {
		if want := time.Duration(timeoutMS) * time.Millisecond; d <= 0 || want < d {
			d = want
		}
	}
	if d <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), d)
}

// lifecycleStatus classifies a lifecycle failure: the HTTP status for a
// deadline/cancellation/budget error, or 0 for everything else. Counts
// the matching /stats counter as a side effect.
func (s *Server) lifecycleStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.timedOut.Inc()
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		s.cancelled.Inc()
		return statusClientClosedRequest
	case errors.Is(err, xpath.ErrBudgetExceeded):
		s.budgetExceeded.Inc()
		return http.StatusRequestEntityTooLarge
	}
	return 0
}

// observeQuery finishes one query request's accounting: the slow-query
// counter and structured log line (with the stage breakdown when the
// request was traced), and the /debug/requests ring for anything slow
// or errored. On the warm success path it costs two comparisons.
func (s *Server) observeQuery(req QueryRequest, tr *obs.Trace, status int, errText string, elapsed time.Duration) {
	slow := s.cfg.SlowQuery > 0 && elapsed >= s.cfg.SlowQuery
	if !slow && status < 400 {
		return
	}
	src := req.Query
	if src == "" {
		src = req.FLWOR
	}
	var id string
	if tr != nil {
		id = tr.ID
	}
	if slow {
		s.slowQueries.Inc()
		s.logger.Warn("slow query",
			"id", id, "doc", req.Doc, "query", src,
			"status", status, "elapsed_us", elapsed.Microseconds(),
			"stages", tr.String())
	}
	s.ring.add(RequestRecord{
		ID:        id,
		Time:      time.Now().UTC().Format(time.RFC3339),
		Doc:       req.Doc,
		Query:     src,
		Status:    status,
		ElapsedUS: elapsed.Microseconds(),
		Stages:    tr.String(),
		Error:     errText,
	})
}

// QueryRequest is the POST /query body.
type QueryRequest struct {
	Doc     string `json:"doc"`
	Query   string `json:"query,omitempty"`
	FLWOR   string `json:"flwor,omitempty"`
	Limit   int    `json:"limit,omitempty"`   // cap on encoded nodes; 0 = server default
	Format  string `json:"format,omitempty"`  // "json" (default), "text", "count"
	Explain bool   `json:"explain,omitempty"` // include the query plan in JSON responses
	// Trace is explain-analyze: the request is traced through every
	// stage (decode, lock wait, load, plan, eval, encode) and the JSON
	// response carries the measured breakdown plus the nodes-visited
	// count. Implies Explain for JSON responses.
	Trace bool `json:"trace,omitempty"`
	// TimeoutMS tightens the server's default deadline for this request
	// (milliseconds); it can never loosen it. 0 means the default.
	TimeoutMS int `json:"timeoutMS,omitempty"`
}

// StageJSON is one measured stage of a traced request.
type StageJSON struct {
	Name string `json:"name"`
	US   int64  `json:"us"`
}

// TraceJSON is the explain-analyze payload of a "trace": true request:
// the stage breakdown in execution order, actual total, and the
// nodes-visited count. The stages cover work up to response assembly;
// the final socket write is not included.
type TraceJSON struct {
	ID      string      `json:"id"`
	Stages  []StageJSON `json:"stages"`
	TotalUS int64       `json:"total_us"`
	Visited int64       `json:"visited,omitempty"`
}

// nextRequestID mints a short id for traced requests — unique within
// the process, stable across the response, the slow-query log, and
// /debug/requests.
func (s *Server) nextRequestID() string {
	return "q" + strconv.FormatUint(s.reqSeq.Add(1), 10)
}

// QueryResponse is the POST /query JSON response: the wire schema
// clients decode into. The handler never builds one; writeQueryJSON
// renders the same bytes directly.
type QueryResponse struct {
	Doc       string              `json:"doc"`
	Query     string              `json:"query"`
	Result    *cliutil.ValueJSON  `json:"result,omitempty"`    // XPath
	Results   []cliutil.ValueJSON `json:"results,omitempty"`   // FLWOR, one per tuple
	Truncated bool                `json:"truncated,omitempty"` // FLWOR: the node cap cut tuples short
	Plan      []string            `json:"plan,omitempty"`      // explain output, one decision per line
	Trace     *TraceJSON          `json:"trace,omitempty"`     // explain-analyze breakdown ("trace": true)
	ElapsedUS int64               `json:"elapsed_us"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	reqStart := time.Now()
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req QueryRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Doc == "" {
		s.fail(w, http.StatusBadRequest, "missing doc id")
		return
	}
	if (req.Query == "") == (req.FLWOR == "") {
		s.fail(w, http.StatusBadRequest, "exactly one of query or flwor is required")
		return
	}
	switch req.Format {
	case "", "json", "text", "count":
	default:
		s.fail(w, http.StatusBadRequest, "unknown format %q (json, text, count)", req.Format)
		return
	}
	// The request limit can only tighten the operator's cap, never raise
	// it: MaxResults stays a hard ceiling on encoded nodes per response.
	limit := s.cfg.MaxResults
	if req.Limit > 0 && (limit <= 0 || req.Limit < limit) {
		limit = req.Limit
	}

	// The request's lifecycle: the connection context (cancelled on
	// client disconnect) under the effective deadline. Everything below
	// — read-lock wait, cold load, evaluation checkpoints, streaming
	// encode — cooperates with it.
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	budget := xpath.Budget{MaxVisited: s.cfg.MaxVisited}

	// Stage tracing rides the context: on for explain-analyze requests
	// and (so slow-query log lines carry a breakdown) whenever a
	// slow-query threshold is configured. Off, tr stays nil and every
	// layer's trace hook is a nil check — the warm path allocates
	// nothing for it.
	var tr *obs.Trace
	if req.Trace || s.cfg.SlowQuery > 0 {
		tr = obs.NewTraceAt(s.nextRequestID(), reqStart)
		tr.Add("decode", time.Since(reqStart))
		ctx = obs.WithTrace(ctx, tr)
	}

	// Evaluation AND response encoding run under the document's read
	// lock: node-set results reference live document structure, so an
	// edit must not land between Eval and encode (streams are fully
	// consumed and closed inside the closure for the same reason). The
	// encoded response is buffered and written to the client only after
	// the lock is released — a stalled client must not pin the read side
	// and stall a queued writer (and, behind it, every later reader).
	br := newBufferedResponse()
	defer br.release()
	err := s.cat.ViewContext(ctx, req.Doc, func(doc *core.Document) error {
		start := time.Now()
		var (
			st   *xpath.Stream
			vals []xpath.Value
		)
		if req.FLWOR != "" {
			q, err := s.cache.flwor(req.FLWOR)
			if err != nil {
				s.failBuf(br, http.StatusBadRequest, "%v", err)
				return nil
			}
			// One cumulative budget across every clause of every tuple: a
			// FLWOR iterating many cheap tuples is bounded like one
			// expensive XPath. EvalContext records the eval stage and
			// visit count itself.
			if vals, err = q.EvalContext(ctx, doc.GODDAG(), budget); err != nil {
				s.failEval(br, err)
				return nil
			}
		} else {
			q, err := s.cache.xpath(req.Query)
			if err != nil {
				s.failBuf(br, http.StatusBadRequest, "%v", err)
				return nil
			}
			// The stream executes the cached plan lazily: a limit or a
			// count never materializes the full node set, and every pull
			// passes the evaluator's cancellation checkpoints, so a client
			// disconnect or expired deadline aborts the encode mid-stream.
			if st, err = q.StreamContext(ctx, doc.GODDAG(), budget); err != nil {
				s.failEval(br, err)
				return nil
			}
			defer st.Close()
		}
		// Both renderers record the encode stage. It also covers lazy
		// stream pulls: scan, semi-join and join plans do their
		// evaluation inside Next, interleaved with encoding by design.
		if req.Format == "" || req.Format == "json" {
			if err := s.writeQueryJSON(br, req, st, vals, tr, limit, start); err != nil {
				s.failEval(br, err)
			}
			return nil
		}
		sp := tr.Begin("encode")
		defer sp.End()
		br.contentType = "text/plain; charset=utf-8"
		countOnly := req.Format == "count"
		var err error
		switch {
		case st == nil:
			cliutil.WriteFLWOR(&br.body, vals, countOnly, limit)
		case !st.IsNodeSet():
			v, _ := st.Value()
			cliutil.WriteValue(&br.body, v, countOnly, limit)
		case countOnly:
			var n int
			if n, err = st.Count(); err == nil {
				fmt.Fprintln(&br.body, n)
			}
		default:
			_, err = cliutil.WriteNodesText(&br.body, st, limit)
		}
		if err != nil {
			s.failEval(br, err)
		}
		return nil
	})
	status := br.status
	var errText string
	if err != nil {
		var nf *catalog.ErrNotFound
		switch code := s.lifecycleStatus(err); {
		case errors.As(err, &nf):
			status = http.StatusNotFound
		case code != 0:
			// The wait for the lock or the cold load outlived the request.
			status = code
		default:
			status = http.StatusInternalServerError
		}
		errText = err.Error()
	}
	s.observeQuery(req, tr, status, errText, time.Since(reqStart))
	if err != nil {
		s.fail(w, status, "%v", err)
		return
	}
	br.flush(w)
}

// failEval records an evaluation failure in the buffered response:
// lifecycle errors (deadline, disconnect, budget) get their dedicated
// status, everything else is an unprocessable query.
func (s *Server) failEval(br *bufferedResponse, err error) {
	if code := s.lifecycleStatus(err); code != 0 {
		s.failBuf(br, code, "%v", err)
		return
	}
	s.failBuf(br, http.StatusUnprocessableEntity, "%v", err)
}

// writeQueryJSON writes every JSON /query body, byte-identical to
// encoding/json of the QueryResponse the reference encoders would
// build: an XPath result from st (nodes pulled one by one, never
// materialized) or, when st is nil, a FLWOR's tuples. The bytes go into
// the buffer's free capacity and are committed with one Write, so an
// error return leaves the body untouched for failBuf. elapsed_us
// covers evaluation and encoding.
func (s *Server) writeQueryJSON(br *bufferedResponse, req QueryRequest, st *xpath.Stream, vals []xpath.Value, tr *obs.Trace, limit int, start time.Time) error {
	buf := br.body.AvailableBuffer()
	buf = append(buf, `{"doc":`...)
	buf = cliutil.AppendJSONString(buf, req.Doc)
	buf = append(buf, `,"query":`...)
	sp := tr.Begin("encode")
	if st != nil {
		buf = cliutil.AppendJSONString(buf, req.Query)
		buf = append(buf, `,"result":`...)
		if v, ok := st.Value(); ok {
			buf, _, _ = cliutil.AppendValueJSON(buf, v, false, limit)
		} else {
			var err error
			if buf, err = cliutil.AppendNodeSetJSON(buf, st, limit); err != nil {
				return err
			}
		}
		if req.Explain || req.Trace {
			for i, line := range st.Explain() {
				if i == 0 {
					buf = append(buf, `,"plan":[`...)
				} else {
					buf = append(buf, ',')
				}
				buf = cliutil.AppendJSONString(buf, line)
			}
			buf = append(buf, ']')
		}
	} else {
		buf = cliutil.AppendJSONString(buf, req.FLWOR)
		if len(vals) > 0 { // "results" is omitted when no tuple survives
			var truncated bool
			buf = append(buf, `,"results":`...)
			buf, truncated = cliutil.AppendValuesJSON(buf, vals, limit)
			if truncated {
				buf = append(buf, `,"truncated":true`...)
			}
		}
	}
	sp.End()
	if req.Trace {
		// Close the stream first so the evaluator's visit count is
		// folded into the trace; Close is idempotent for the deferred
		// one. The stage durations are complete except the tail of the
		// encode (these very bytes), which is noise.
		if st != nil {
			st.Close()
		}
		buf = appendTraceJSON(buf, tr)
	}
	buf = append(buf, `,"elapsed_us":`...)
	buf = cliutil.AppendUint(buf, time.Since(start).Microseconds())
	buf = append(buf, '}', '\n')
	br.body.Write(buf)
	return nil
}

// appendTraceJSON renders `,"trace":{...}` into a JSON /query body:
// the one trace renderer, byte-identical to encoding/json of the
// TraceJSON wire schema.
func appendTraceJSON(buf []byte, tr *obs.Trace) []byte {
	if tr == nil {
		return buf
	}
	buf = append(buf, `,"trace":{"id":`...)
	buf = cliutil.AppendJSONString(buf, tr.ID)
	buf = append(buf, `,"stages":[`...)
	for i, st := range tr.Stages() {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"name":`...)
		buf = cliutil.AppendJSONString(buf, st.Name)
		buf = append(buf, `,"us":`...)
		buf = cliutil.AppendUint(buf, st.Dur.Microseconds())
		buf = append(buf, '}')
	}
	buf = append(buf, `],"total_us":`...)
	buf = cliutil.AppendUint(buf, tr.Total().Microseconds())
	if v := tr.Visited(); v > 0 {
		buf = append(buf, `,"visited":`...)
		buf = cliutil.AppendUint(buf, v)
	}
	buf = append(buf, '}')
	return buf
}

// bufferedResponse accumulates one response while a document lock is
// held, so the client-paced socket write happens after release.
// Instances recycle through brPool: under sustained load the response
// buffer is allocated once and reused, not once per request.
type bufferedResponse struct {
	status      int
	contentType string
	body        bytes.Buffer
}

var brPool = sync.Pool{New: func() any {
	br := new(bufferedResponse)
	br.body.Grow(int(lastBodyLen.Load()))
	return br
}}

// Every GC empties brPool. brSpare keeps one released response outside
// it for serial requests, and a pool miss is sized from lastBodyLen, the
// last released body's length: one allocation, not a chain of regrowths.
var (
	brSpare     atomic.Pointer[bufferedResponse]
	lastBodyLen atomic.Int64
)

func newBufferedResponse() *bufferedResponse {
	br := brSpare.Swap(nil)
	if br == nil {
		br = brPool.Get().(*bufferedResponse)
	}
	br.status = http.StatusOK
	br.contentType = "application/json"
	br.body.Reset()
	return br
}

// release returns the response to the pool. Buffers grown past 1 MiB by
// an unusually large response are dropped instead of pinned.
func (br *bufferedResponse) release() {
	if br.body.Cap() > 1<<20 {
		return
	}
	lastBodyLen.Store(int64(br.body.Len()))
	if !brSpare.CompareAndSwap(nil, br) {
		brPool.Put(br)
	}
}

func (br *bufferedResponse) flush(w http.ResponseWriter) {
	w.Header().Set("Content-Type", br.contentType)
	w.WriteHeader(br.status)
	w.Write(br.body.Bytes())
}

// failBuf records a JSON error response (no body for a 499) in the buffer.
func (s *Server) failBuf(br *bufferedResponse, code int, format string, args ...any) {
	s.errors.Add(1)
	br.status = code
	br.contentType = "application/json"
	br.body.Reset()
	if code != statusClientClosedRequest {
		json.NewEncoder(&br.body).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
	}
}

func (s *Server) handleDocs(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.ok(w, s.cat.Stats().Docs)
}

// DocResponse is the GET /docs/{id} response: catalog stats plus, when
// the document is resident (or ?load=1 forces it in), structure counts.
type DocResponse struct {
	catalog.DocStats
	Hierarchies []string `json:"hierarchies,omitempty"`
	Elements    int      `json:"elements,omitempty"`
	Leaves      int      `json:"leaves,omitempty"`
	ContentLen  int      `json:"contentLen,omitempty"`
	// Index reports the derived-index sizes the query planner reads as
	// selectivity estimates (resident documents only).
	Index *goddag.IndexStats `json:"index,omitempty"`
}

func (s *Server) handleDoc(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	rest := strings.TrimPrefix(r.URL.Path, "/docs/")
	id, action, _ := strings.Cut(rest, "/")
	if id == "" || strings.Contains(action, "/") {
		s.fail(w, http.StatusNotFound, "bad document path %q", rest)
		return
	}
	switch action {
	case "":
	case "edit":
		s.handleEdit(w, r, id)
		return
	case "undo", "redo":
		s.handleHistory(w, r, id, action)
		return
	default:
		s.fail(w, http.StatusNotFound, "unknown document action %q", action)
		return
	}
	if r.Method != http.MethodGet && r.Method != http.MethodDelete {
		s.fail(w, http.StatusMethodNotAllowed, "GET or DELETE only")
		return
	}
	ds, ok := s.cat.Doc(id)
	if !ok {
		s.fail(w, http.StatusNotFound, "no document %q", id)
		return
	}
	if r.Method == http.MethodDelete {
		// Drop the resident document or clear a cached load failure —
		// the operator's lever for reloading a fixed source without a
		// process restart. Documents with unsaved edits are refused.
		s.ok(w, map[string]bool{"evicted": s.cat.Evict(id)})
		return
	}
	resp := DocResponse{DocStats: ds}
	if r.URL.Query().Get("load") != "" && !ds.Resident {
		if _, err := s.cat.GetContext(r.Context(), id); err != nil {
			if code := s.lifecycleStatus(err); code != 0 {
				s.fail(w, code, "%v", err)
			} else {
				s.fail(w, http.StatusInternalServerError, "%v", err)
			}
			return
		}
		resp.DocStats, _ = s.cat.Doc(id)
	}
	if resp.Resident {
		// Structure counts read live document state: take the read lock
		// so a concurrent edit cannot tear them.
		_ = s.cat.ViewContext(r.Context(), id, func(doc *core.Document) error {
			g := doc.GODDAG()
			st := g.Stats()
			resp.Hierarchies = g.HierarchyNames()
			resp.Elements = st.Elements
			resp.Leaves = st.Leaves
			resp.ContentLen = st.ContentLen
			ix := g.IndexStats()
			resp.Index = &ix
			return nil
		})
	}
	s.ok(w, resp)
}

// EditOp is one operation of a POST /docs/{id}/edit batch — the wire
// format now lives in package editor (it is also the WAL op-batch
// payload); see editor.Op for the shapes.
type EditOp = editor.Op

// EditRequest is the POST /docs/{id}/edit body.
type EditRequest struct {
	Ops []EditOp `json:"ops"`
}

// EditResponse is the success response of an edit, undo, or redo: the
// post-commit document shape plus persistence state.
type EditResponse struct {
	Doc       string `json:"doc"`
	Applied   int    `json:"applied"` // ops committed (edit), 1 for undo/redo
	Elements  int    `json:"elements"`
	Leaves    int    `json:"leaves"`
	ElapsedUS int64  `json:"elapsed_us"`
}

// EditViolation is the structured form of a prevalidation violation or
// markup conflict that vetoed an edit batch.
type EditViolation struct {
	Hierarchy string `json:"hierarchy,omitempty"`
	Element   string `json:"element,omitempty"`
	Code      string `json:"code,omitempty"` // validate.Code name, or "conflict"
	Message   string `json:"message"`
}

// EditErrorResponse is the 422 response for a vetoed batch: the failing
// op's index and the reason, structured when prevalidation raised it.
type EditErrorResponse struct {
	Error      string          `json:"error"`
	Op         int             `json:"op"`
	Violations []EditViolation `json:"violations,omitempty"`
}

func (s *Server) handleEdit(w http.ResponseWriter, r *http.Request, id string) {
	if s.cfg.ReadOnly {
		s.fail(w, http.StatusForbidden, "server is read-only")
		return
	}
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req EditRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Ops) == 0 {
		s.fail(w, http.StatusBadRequest, "empty op batch")
		return
	}
	if s.cfg.MaxOps > 0 && len(req.Ops) > s.cfg.MaxOps {
		s.fail(w, http.StatusBadRequest, "batch of %d ops exceeds limit %d", len(req.Ops), s.cfg.MaxOps)
		return
	}
	ctx, cancel := s.requestContext(r, 0)
	defer cancel()
	start := time.Now()
	var resp EditResponse
	// UpdateBatchContext is the crash-safe path: the batch is
	// write-ahead logged and fsynced before it applies, so a nil return
	// means the edit survives a crash even if the .gdag save lagged
	// behind. The context bounds only the wait for the write lock and a
	// cold load — a batch past its commit point always persists in full.
	err := s.cat.UpdateBatchContext(ctx, id, req.Ops, func(doc *core.Document) {
		st := doc.GODDAG().Stats()
		resp = EditResponse{Doc: id, Applied: len(req.Ops), Elements: st.Elements, Leaves: st.Leaves}
	})
	if err != nil {
		failedOp := -1
		var be *editor.BatchError
		if errors.As(err, &be) {
			failedOp = be.Index
		}
		s.failEdit(w, id, err, failedOp)
		return
	}
	resp.ElapsedUS = time.Since(start).Microseconds()
	s.ok(w, resp)
}

// failEdit maps an edit failure to its status code and structured body.
func (s *Server) failEdit(w http.ResponseWriter, id string, err error, failedOp int) {
	var nf *catalog.ErrNotFound
	if errors.As(err, &nf) {
		s.fail(w, http.StatusNotFound, "%v", err)
		return
	}
	if errors.Is(err, catalog.ErrReadOnly) {
		// Degraded after persistent storage failures; reads still work.
		// Degradation is sticky until an operator restart, so the hint is
		// coarse — it tells well-behaved clients to back off, not when
		// the write path will return.
		w.Header().Set("Retry-After", "60")
		s.fail(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if code := s.lifecycleStatus(err); code != 0 {
		// The wait for the write lock or a cold load outlived the
		// request; nothing was applied.
		s.fail(w, code, "%v", err)
		return
	}
	if failedOp < 0 {
		// Not an op veto: load or persistence failure.
		s.fail(w, http.StatusInternalServerError, "%v", err)
		return
	}
	resp := EditErrorResponse{Error: err.Error(), Op: failedOp}
	var viol validate.Violation
	var conflict *goddag.ConflictError
	switch {
	case errors.As(err, &viol):
		ev := EditViolation{Hierarchy: viol.Hierarchy, Code: viol.Code.String(), Message: viol.Msg}
		if viol.Element != nil {
			ev.Element = viol.Element.String()
		}
		resp.Violations = append(resp.Violations, ev)
	case errors.As(err, &conflict):
		resp.Violations = append(resp.Violations, EditViolation{
			Hierarchy: conflict.Hierarchy, Code: "conflict", Message: conflict.Error(),
		})
	}
	s.errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusUnprocessableEntity)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(resp)
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request, id, action string) {
	if s.cfg.ReadOnly {
		s.fail(w, http.StatusForbidden, "server is read-only")
		return
	}
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	ctx, cancel := s.requestContext(r, 0)
	defer cancel()
	start := time.Now()
	move := s.cat.Undo
	if action == "redo" {
		move = s.cat.Redo
	}
	var resp EditResponse
	err := move(ctx, id, func(doc *core.Document) {
		st := doc.GODDAG().Stats()
		resp = EditResponse{Doc: id, Applied: 1, Elements: st.Elements, Leaves: st.Leaves}
	})
	if err != nil {
		var nf *catalog.ErrNotFound
		switch code := s.lifecycleStatus(err); {
		case errors.As(err, &nf):
			s.fail(w, http.StatusNotFound, "%v", err)
		case errors.Is(err, catalog.ErrReadOnly):
			w.Header().Set("Retry-After", "60") // sticky degradation; see failEdit
			s.fail(w, http.StatusServiceUnavailable, "%v", err)
		case errors.Is(err, editor.ErrNothingToUndo), errors.Is(err, editor.ErrNothingToRedo):
			s.fail(w, http.StatusConflict, "%v", err)
		case code != 0:
			s.fail(w, code, "%v", err)
		default:
			s.fail(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	resp.ElapsedUS = time.Since(start).Microseconds()
	s.ok(w, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// A catalog degraded to read-only still serves reads, so the probe
	// stays 200 (pulling the instance would lose read capacity too) but
	// reports the degradation for operators and write-aware balancers.
	if s.cat.ReadOnly() {
		s.ok(w, map[string]any{"status": "degraded", "readOnly": true})
		return
	}
	s.ok(w, map[string]string{"status": "ok"})
}

// RouteLatency summarizes one route's request-latency histogram —
// quantiles estimated by linear interpolation within the bucket, the
// same arithmetic Prometheus' histogram_quantile applies to the
// exposition of the identical histogram, so the two surfaces agree.
type RouteLatency struct {
	Count uint64 `json:"count"`
	P50US int64  `json:"p50_us"`
	P90US int64  `json:"p90_us"`
	P99US int64  `json:"p99_us"`
}

// StatsResponse is the GET /stats response. Every counter is a read of
// the same registry series GET /metrics exposes; neither surface can
// drift from the other.
type StatsResponse struct {
	Catalog  catalog.Stats `json:"catalog"`
	Requests uint64        `json:"requests"`
	Errors   uint64        `json:"errors"`
	Panics   uint64        `json:"panics"`
	Shed     uint64        `json:"shed"`
	ReadOnly bool          `json:"readOnly,omitempty"`
	Queries  CacheStats    `json:"queryCache"`

	// Lifecycle counters: how requests ended other than normally.
	Cancelled      uint64 `json:"cancelled,omitempty"`      // client disconnected first
	TimedOut       uint64 `json:"timedOut,omitempty"`       // server-side deadline expired
	BudgetExceeded uint64 `json:"budgetExceeded,omitempty"` // evaluation node budget exhausted
	SlowQueries    uint64 `json:"slowQueries,omitempty"`    // slower than Config.SlowQuery

	// Routes reports per-route latency summaries for routes that have
	// served at least one request.
	Routes map[string]RouteLatency `json:"routes,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	routes := make(map[string]RouteLatency)
	for rt := 0; rt < nRoutes; rt++ {
		snap := s.met.latency[rt].Snapshot()
		if snap.Count == 0 {
			continue
		}
		routes[routeNames[rt]] = RouteLatency{
			Count: snap.Count,
			P50US: snap.Quantile(0.50).Microseconds(),
			P90US: snap.Quantile(0.90).Microseconds(),
			P99US: snap.Quantile(0.99).Microseconds(),
		}
	}
	s.ok(w, StatsResponse{
		Catalog:  s.cat.Stats(),
		Requests: s.requests.Value(),
		Errors:   s.errors.Value(),
		Panics:   s.panics.Value(),
		Shed:     s.shed.Value(),
		ReadOnly: s.cat.ReadOnly(),
		Queries:  s.cache.stats(),

		Cancelled:      s.cancelled.Value(),
		TimedOut:       s.timedOut.Value(),
		BudgetExceeded: s.budgetExceeded.Value(),
		SlowQueries:    s.slowQueries.Value(),

		Routes: routes,
	})
}

func (s *Server) ok(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		// Too late for a status change; the connection likely broke.
		return
	}
}

// fail writes a JSON error response; a 499 gets none, the client is gone.
func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if code != statusClientClosedRequest {
		json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
	}
}

// queryCache is an LRU of compiled queries keyed by source text, shared
// across all requests: compiled *xpath.Query and *xquery.Query values
// keep no evaluation state, so concurrent evaluations share one compiled
// form. Compile errors are not cached (they are cheap to reproduce and
// rare on hot paths).
type queryCache struct {
	mu     sync.Mutex
	cap    int
	xp     map[cacheKey]*list.Element // of *cacheNode
	order  *list.List                 // most recently used at the front
	hits   uint64
	misses uint64
}

// cacheKey names a compiled query by its kind and source text. A
// struct key, not a prefixed string, so a lookup builds no string.
type cacheKey struct {
	flwor bool
	src   string
}

type cacheNode struct {
	key   cacheKey
	query any // *xpath.Query or *xquery.Query, per key.flwor
}

// CacheStats reports compiled-query cache behaviour.
type CacheStats struct {
	Size   int    `json:"size"`
	Cap    int    `json:"cap"`
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

func newQueryCache(capacity int) *queryCache {
	return &queryCache{cap: capacity, xp: make(map[cacheKey]*list.Element), order: list.New()}
}

func (qc *queryCache) xpath(src string) (*xpath.Query, error) {
	q, err := qc.lookup(cacheKey{src: src}, func() (any, error) { return xpath.Compile(src) })
	if err != nil {
		return nil, err
	}
	return q.(*xpath.Query), nil
}

func (qc *queryCache) flwor(src string) (*xquery.Query, error) {
	q, err := qc.lookup(cacheKey{flwor: true, src: src}, func() (any, error) { return xquery.Compile(src) })
	if err != nil {
		return nil, err
	}
	return q.(*xquery.Query), nil
}

// lookup returns the cached compiled form for key, compiling (outside
// the lock) and inserting on a miss. If a concurrent request compiled
// the same key first, its entry is kept and ours discarded.
func (qc *queryCache) lookup(key cacheKey, compile func() (any, error)) (any, error) {
	qc.mu.Lock()
	if el, ok := qc.xp[key]; ok {
		qc.hits++
		qc.order.MoveToFront(el)
		q := el.Value.(*cacheNode).query
		qc.mu.Unlock()
		return q, nil
	}
	qc.misses++
	qc.mu.Unlock()

	q, err := compile()
	if err != nil {
		return nil, err
	}
	qc.mu.Lock()
	defer qc.mu.Unlock()
	if _, ok := qc.xp[key]; !ok {
		qc.xp[key] = qc.order.PushFront(&cacheNode{key: key, query: q})
		for len(qc.xp) > qc.cap {
			old := qc.order.Back()
			qc.order.Remove(old)
			delete(qc.xp, old.Value.(*cacheNode).key)
		}
	}
	return q, nil
}

func (qc *queryCache) stats() CacheStats {
	qc.mu.Lock()
	defer qc.mu.Unlock()
	return CacheStats{Size: len(qc.xp), Cap: qc.cap, Hits: qc.hits, Misses: qc.misses}
}
