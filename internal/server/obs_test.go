package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/xpath"
)

// TestQueryTraceExplain: a /query body with "trace": true gets back the
// request's stage breakdown — explain-analyze for one request. The
// stages are disjoint intervals inside the request, so their sum cannot
// exceed the total (modulo per-stage microsecond truncation), and a
// traced-but-unlimited evaluation installs a counting limiter, so the
// visit count is real.
func TestQueryTraceExplain(t *testing.T) {
	s, _ := newFixture(t, 200, Config{})
	h := s.Handler()

	w := post(t, h, `{"doc":"ms","query":"//w","trace":true}`)
	if w.Code != http.StatusOK {
		t.Fatalf("query: %d %s", w.Code, w.Body.String())
	}
	var resp struct {
		Trace *TraceJSON `json:"trace"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v\n%s", err, w.Body.String())
	}
	tr := resp.Trace
	if tr == nil {
		t.Fatalf("no trace in response: %s", w.Body.String())
	}
	if tr.ID == "" {
		t.Error("trace id empty")
	}
	if tr.TotalUS <= 0 {
		t.Errorf("total_us = %d, want > 0", tr.TotalUS)
	}
	if tr.Visited <= 0 {
		t.Errorf("visited = %d, want > 0 (counting limiter should be installed)", tr.Visited)
	}
	known := map[string]bool{
		"decode": true, "lockWait": true, "load": true,
		"plan": true, "eval": true, "encode": true,
	}
	var sum int64
	seen := map[string]bool{}
	for _, st := range tr.Stages {
		if !known[st.Name] {
			t.Errorf("unknown stage %q", st.Name)
		}
		if seen[st.Name] {
			t.Errorf("stage %q repeated; same-name spans must merge", st.Name)
		}
		seen[st.Name] = true
		sum += st.US
	}
	for _, want := range []string{"decode", "encode", "eval"} {
		if !seen[want] {
			t.Errorf("stage %q missing from %v", want, tr.Stages)
		}
	}
	// Each stage truncates to whole microseconds, so allow one µs of
	// slack per stage plus one for the total.
	if slack := int64(len(tr.Stages)) + 1; sum > tr.TotalUS+slack {
		t.Errorf("stages sum to %dµs > total %dµs", sum, tr.TotalUS)
	}

	// Scalar results travel the buffered path; the trace rides the same
	// response field.
	w = post(t, h, `{"doc":"ms","query":"count(//w)","trace":true}`)
	if w.Code != http.StatusOK {
		t.Fatalf("scalar query: %d %s", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Trace == nil {
		t.Fatalf("scalar response lacks trace (err=%v): %s", err, w.Body.String())
	}

	// Without the flag, no trace key — tracing is strictly opt-in.
	w = post(t, h, `{"doc":"ms","query":"//w"}`)
	if strings.Contains(w.Body.String(), `"trace"`) {
		t.Errorf("untraced response carries a trace: %s", w.Body.String())
	}
}

// metricValue extracts the value of the series named name (with its
// full label set, e.g. `cx_http_requests_total{route="query",class="2xx"}`)
// from a Prometheus text exposition. Returns -1 when absent.
func metricValue(body, name string) float64 {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				return -1
			}
			return v
		}
	}
	return -1
}

// TestMetricsEndpoint: GET /metrics serves the Prometheus text format
// and the per-route series account the requests that were actually
// made, with coherent histogram invariants.
func TestMetricsEndpoint(t *testing.T) {
	s, _ := newFixture(t, 40, Config{Obs: obs.NewRegistry()})
	h := s.Handler()

	for i := 0; i < 3; i++ {
		if w := post(t, h, `{"doc":"ms","query":"count(//w)"}`); w.Code != http.StatusOK {
			t.Fatalf("query: %d %s", w.Code, w.Body.String())
		}
	}
	post(t, h, `{"doc":"nope","query":"//w"}`) // one 404 on the query route

	w := get(t, h, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	body := w.Body.String()

	if v := metricValue(body, `cx_http_requests_total{route="query",class="2xx"}`); v != 3 {
		t.Errorf(`query 2xx = %v, want 3`, v)
	}
	if v := metricValue(body, `cx_http_requests_total{route="query",class="4xx"}`); v != 1 {
		t.Errorf(`query 4xx = %v, want 1`, v)
	}
	if v := metricValue(body, `cx_http_request_seconds_count{route="query"}`); v != 4 {
		t.Errorf(`query latency count = %v, want 4`, v)
	}
	if v := metricValue(body, "cx_requests_total"); v != 4 {
		t.Errorf("cx_requests_total = %v, want 4", v)
	}
	// The catalog registers into the same registry: the cold load of
	// "ms" must be visible.
	if v := metricValue(body, "cx_catalog_loads_total"); v < 1 {
		t.Errorf("cx_catalog_loads_total = %v, want >= 1", v)
	}
	if v := metricValue(body, "cx_catalog_resident_docs"); v < 1 {
		t.Errorf("cx_catalog_resident_docs = %v, want >= 1", v)
	}

	// Histogram invariants on the wire: cumulative buckets, +Inf == count.
	var prev float64
	var infSeen bool
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, `cx_http_request_seconds_bucket{route="query",`) {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Errorf("bucket counts not cumulative at %q", line)
		}
		prev = v
		if strings.Contains(line, `le="+Inf"`) {
			infSeen = true
			if v != 4 {
				t.Errorf("+Inf bucket = %v, want the series count 4", v)
			}
		}
	}
	if !infSeen {
		t.Error("no +Inf bucket for the query route")
	}
}

// TestStatsMatchesMetrics: /stats is reimplemented as reads of the same
// registry /metrics exposes, so the two surfaces agree by construction.
func TestStatsMatchesMetrics(t *testing.T) {
	s, _ := newFixture(t, 40, Config{})
	h := s.Handler()
	for i := 0; i < 5; i++ {
		if w := post(t, h, `{"doc":"ms","query":"//w"}`); w.Code != http.StatusOK {
			t.Fatalf("query: %d", w.Code)
		}
	}
	post(t, h, `{"doc":"ms"}`) // 400: missing query

	var st StatsResponse
	if err := json.Unmarshal(get(t, h, "/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	body := get(t, h, "/metrics").Body.String()

	if v := metricValue(body, "cx_requests_total"); v != float64(st.Requests) {
		t.Errorf("requests: stats=%d metrics=%v", st.Requests, v)
	}
	if v := metricValue(body, "cx_errors_total"); v != float64(st.Errors) {
		t.Errorf("errors: stats=%d metrics=%v", st.Errors, v)
	}
	rl, ok := st.Routes["query"]
	if !ok {
		t.Fatalf("stats has no query route: %+v", st.Routes)
	}
	if v := metricValue(body, `cx_http_request_seconds_count{route="query"}`); v != float64(rl.Count) {
		t.Errorf("query route count: stats=%d metrics=%v", rl.Count, v)
	}
	if rl.P50US <= 0 || rl.P99US < rl.P50US {
		t.Errorf("implausible quantiles: %+v", rl)
	}

	// Plan kinds are engine counters: every kind has its label on
	// /metrics, the span join's included, and each series reads what
	// the engine counted.
	if w := post(t, h, `{"doc":"ms","query":"//line/covered::w","format":"count"}`); w.Code != http.StatusOK {
		t.Fatalf("join query: %d", w.Code)
	}
	body = get(t, h, "/metrics").Body.String()
	kinds := xpath.Counters().PlansByKind
	if kinds["join"] == 0 {
		t.Errorf("engine counted no join plan: %v", kinds)
	}
	for _, kind := range []string{"eval", "scan", "semi-join", "join", "count", "exists"} {
		if v := metricValue(body, `cx_plans_total{kind="`+kind+`"}`); v != float64(kinds[kind]) {
			t.Errorf("plans of kind %s: engine=%d metrics=%v", kind, kinds[kind], v)
		}
	}
}

// TestDebugRequestsRing: slow and errored queries land in the bounded
// ring behind GET /debug/requests, most recent first, with the stage
// breakdown when the server traced them.
func TestDebugRequestsRing(t *testing.T) {
	s, _ := newFixture(t, 40, Config{SlowQuery: time.Nanosecond})
	h := s.Handler()

	if w := post(t, h, `{"doc":"ms","query":"//w"}`); w.Code != http.StatusOK {
		t.Fatalf("query: %d", w.Code)
	}
	post(t, h, `{"doc":"nope","query":"//w"}`) // 404, also recorded

	w := get(t, h, "/debug/requests")
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/requests: %d", w.Code)
	}
	var recs []RequestRecord
	if err := json.Unmarshal(w.Body.Bytes(), &recs); err != nil {
		t.Fatalf("decode: %v\n%s", err, w.Body.String())
	}
	if len(recs) != 2 {
		t.Fatalf("ring has %d records, want 2: %+v", len(recs), recs)
	}
	// Most recent first: the 404 precedes the slow success.
	if recs[0].Doc != "nope" || recs[0].Status != http.StatusNotFound || recs[0].Error == "" {
		t.Errorf("errored record wrong: %+v", recs[0])
	}
	if recs[1].Doc != "ms" || recs[1].Status != http.StatusOK {
		t.Errorf("slow record wrong: %+v", recs[1])
	}
	if recs[1].Stages == "" || !strings.Contains(recs[1].Stages, "eval=") {
		t.Errorf("slow record lacks a stage breakdown: %+v", recs[1])
	}
	if recs[1].ID == "" {
		t.Errorf("slow record lacks a request id: %+v", recs[1])
	}

	// The ring stays bounded under overflow.
	for i := 0; i < 2*ringSize; i++ {
		post(t, h, fmt.Sprintf(`{"doc":"nope%d","query":"//w"}`, i))
	}
	recs = nil
	if err := json.Unmarshal(get(t, h, "/debug/requests").Body.Bytes(), &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != ringSize {
		t.Errorf("overflowed ring has %d records, want %d", len(recs), ringSize)
	}
	if recs[0].Doc != fmt.Sprintf("nope%d", 2*ringSize-1) {
		t.Errorf("ring not most-recent-first: %+v", recs[0])
	}
}

// TestWarmPathAllocBudget is the absolute ceiling behind CI's
// alloc-guard: a warm //w request through the full instrumented stack —
// metrics middleware, per-route histograms, status counters — must stay
// within the streaming path's 35-allocation budget, and so must a
// scalar JSON body, which renders through the same append encoders. TestServeAllocsFlat
// asserts flatness against result size; this asserts the level itself,
// so instrumentation cannot creep allocations in one at a time.
func TestWarmPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; budget holds without -race")
	}
	const budget = 35.5 // 35 allocations, plus headroom for averaging noise
	s, _ := newFixture(t, 2000, Config{})
	h := s.Handler()
	for _, body := range []string{
		`{"doc":"ms","query":"//w","format":"json"}`,
		`{"doc":"ms","query":"//w","format":"text"}`,
		`{"doc":"ms","query":"count(//w)","format":"json"}`,
	} {
		for i := 0; i < 5; i++ {
			if w := post(t, h, body); w.Code != http.StatusOK {
				t.Fatalf("warmup: %d %s", w.Code, w.Body.String())
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				t.Fatalf("query failed: %d", w.Code)
			}
		})
		if allocs > budget {
			t.Errorf("%s: %.1f allocs/request, budget %.1f", body, allocs, budget)
		}
		t.Logf("%s: %.1f allocs/request (budget %.1f)", body, allocs, budget)
	}
}

// TestDebugHandler: the side-listener mux serves pprof, the metrics
// exposition, and the request ring — and is not reachable through the
// serving Handler (profiling stays off the serving port).
func TestDebugHandler(t *testing.T) {
	s, _ := newFixture(t, 40, Config{})
	dh := s.DebugHandler()
	for _, path := range []string{"/debug/pprof/cmdline", "/metrics", "/debug/requests"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		w := httptest.NewRecorder()
		dh.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Errorf("debug %s: %d", path, w.Code)
		}
	}
	if w := get(t, s.Handler(), "/debug/pprof/cmdline"); w.Code == http.StatusOK {
		t.Error("pprof reachable through the serving handler")
	}
}

// TestClassifyRoute pins the path → route mapping the per-route metrics
// depend on.
func TestClassifyRoute(t *testing.T) {
	cases := map[string]int{
		"/query":          routeQuery,
		"/docs":           routeDocs,
		"/docs/ms":        routeDoc,
		"/docs/ms/edit":   routeEdit,
		"/docs/ms/undo":   routeHistory,
		"/docs/ms/redo":   routeHistory,
		"/healthz":        routeHealthz,
		"/stats":          routeStats,
		"/metrics":        routeMetrics,
		"/debug/requests": routeDebug,
		"/favicon.ico":    routeOther,
	}
	for path, want := range cases {
		if got := classifyRoute(path); got != want {
			t.Errorf("classifyRoute(%q) = %s, want %s", path, routeNames[got], routeNames[want])
		}
	}
}
