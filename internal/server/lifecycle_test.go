package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// expensiveQuery is quadratic in //w: every word re-materializes its
// whole preceding::w axis, so a few thousand words yield tens of
// millions of ticked node visits — far past any test deadline or
// budget, with checkpoints throughout.
const expensiveQuery = "//w[count(preceding::w) >= 0]"

// warm loads the document outside any request deadline so the lifecycle
// tests measure evaluation, not the cold parse.
func warm(t testing.TB, srv *Server, id string) {
	t.Helper()
	if _, err := srv.cat.Get(id); err != nil {
		t.Fatal(err)
	}
}

func TestQueryDeadlineReturns504(t *testing.T) {
	const deadline = 100 * time.Millisecond
	srv, _ := newFixture(t, 6000, Config{Timeout: deadline})
	h := srv.Handler()
	warm(t, srv, "ms")

	start := time.Now()
	w := post(t, h, fmt.Sprintf(`{"doc":"ms","query":%q}`, expensiveQuery))
	elapsed := time.Since(start)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("expensive query under %v deadline: %d %s", deadline, w.Code, w.Body.String())
	}
	var e map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e["error"] == "" {
		t.Fatalf("504 body is not an error JSON: %s", w.Body.String())
	}
	// The checkpoint interval is amortized, so detection should land
	// within a fraction of the deadline of the deadline itself; 2x is
	// the contract and already generous for a loaded CI machine.
	if elapsed > 2*deadline {
		t.Errorf("504 took %v, want within 2x the %v deadline", elapsed, deadline)
	}

	sw := get(t, h, "/stats")
	var stats StatsResponse
	if err := json.Unmarshal(sw.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.TimedOut == 0 {
		t.Error("timedOut counter not incremented")
	}
}

// TestQueryClientTimeoutMS: a request-supplied deadline works with no
// server default, and can only tighten a configured one, never loosen.
func TestQueryClientTimeoutMS(t *testing.T) {
	srv, _ := newFixture(t, 6000, Config{}) // no server default
	h := srv.Handler()
	warm(t, srv, "ms")

	w := post(t, h, fmt.Sprintf(`{"doc":"ms","query":%q,"timeoutMS":100}`, expensiveQuery))
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("timeoutMS with no server default: %d %s", w.Code, w.Body.String())
	}

	srv2, _ := newFixture(t, 6000, Config{Timeout: 100 * time.Millisecond})
	h2 := srv2.Handler()
	warm(t, srv2, "ms")
	start := time.Now()
	w = post(t, h2, fmt.Sprintf(`{"doc":"ms","query":%q,"timeoutMS":600000}`, expensiveQuery))
	elapsed := time.Since(start)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("huge timeoutMS against 100ms server cap: %d %s", w.Code, w.Body.String())
	}
	if elapsed > time.Second {
		t.Errorf("clamped request ran %v; client loosened the server deadline", elapsed)
	}
}

func TestQueryBudgetExceededReturns413(t *testing.T) {
	srv, _ := newFixture(t, 300, Config{MaxVisited: 1000})
	h := srv.Handler()
	warm(t, srv, "ms")

	w := post(t, h, fmt.Sprintf(`{"doc":"ms","query":%q}`, expensiveQuery))
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("budget-busting XPath: %d %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "budget") {
		t.Fatalf("413 body does not name the budget: %s", w.Body.String())
	}

	// FLWOR draws from the same cumulative budget.
	w = post(t, h, `{"doc":"ms","flwor":"for $w in //w for $v in //w return name($v)"}`)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("budget-busting FLWOR: %d %s", w.Code, w.Body.String())
	}
	if got := srv.budgetExceeded.Value(); got < 2 {
		t.Errorf("budgetExceeded counter = %d, want >= 2", got)
	}

	// A cheap query on the same server still serves.
	w = post(t, h, `{"doc":"ms","query":"count(//w)","format":"count"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("cheap query after budget errors: %d %s", w.Code, w.Body.String())
	}
}

// TestClientDisconnectCancelsEvaluation: when the client goes away
// mid-evaluation the evaluator unwinds through its checkpoints and the
// request is accounted as cancelled (499), not as a server error.
func TestClientDisconnectCancelsEvaluation(t *testing.T) {
	srv, _ := newFixture(t, 6000, Config{})
	h := srv.Handler()
	warm(t, srv, "ms")

	ctx, cancel := context.WithCancel(context.Background())
	body := fmt.Sprintf(`{"doc":"ms","query":%q}`, expensiveQuery)
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)).WithContext(ctx)
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != statusClientClosedRequest {
		t.Fatalf("disconnected client: %d %s", w.Code, w.Body.String())
	}
	if srv.cancelled.Value() == 0 {
		t.Error("cancelled counter not incremented")
	}
	if w.Body.Len() != 0 {
		t.Errorf("499 carries a body: %q", w.Body.String())
	}
}

// errAfterContext is a request context that reports context.Canceled
// from its (after+1)-th Err call on. Its Done channel never closes, so
// only code that polls Err — the evaluator's checkpoints — sees it go.
type errAfterContext struct {
	context.Context
	done  chan struct{}
	after int64
	calls atomic.Int64
}

func newErrAfterContext(after int64) *errAfterContext {
	return &errAfterContext{Context: context.Background(), done: make(chan struct{}), after: after}
}

func (c *errAfterContext) Done() <-chan struct{} { return c.done }

func (c *errAfterContext) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestCancelledJoinRead: a client that goes away while the span join
// streams //*/covered::* ends the read like any other cancelled read:
// 499, no body, the cancelled counter. The cancellation lands halfway
// through the context polls the whole read makes, which the join's
// limiter ticks dominate.
func TestCancelledJoinRead(t *testing.T) {
	srv, _ := newFixture(t, 8000, Config{})
	h := srv.Handler()
	warm(t, srv, "ms")
	body := `{"doc":"ms","query":"//*/covered::*","format":"count"}`
	serve := func(ctx context.Context) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)).WithContext(ctx)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}

	live := newErrAfterContext(1 << 62)
	if w := serve(live); w.Code != http.StatusOK {
		t.Fatalf("uncancelled join read: %d %s", w.Code, w.Body.String())
	}
	polls := live.calls.Load()
	if polls < 8 {
		t.Fatalf("the join read polled its context %d times, too few to cancel it halfway", polls)
	}

	before := srv.cancelled.Value()
	w := serve(newErrAfterContext(polls / 2))
	if w.Code != statusClientClosedRequest {
		t.Fatalf("join read cancelled halfway: %d %s", w.Code, w.Body.String())
	}
	if w.Body.Len() != 0 {
		t.Errorf("499 carries a body: %q", w.Body.String())
	}
	if got := srv.cancelled.Value(); got != before+1 {
		t.Errorf("cancelled counter %d -> %d, want +1", before, got)
	}
}

// TestCancelledRequestsWriteNoBody: a request whose client is gone
// while it waits — for a cold load, or for the write lock behind a
// reader — is counted as cancelled and answered 499 with no body, on
// the query, edit, undo and redo routes alike.
func TestCancelledRequestsWriteNoBody(t *testing.T) {
	srv, _ := newFixture(t, 2000, Config{})
	h := srv.Handler()
	warm(t, srv, "ms")
	hold, held := make(chan struct{}), make(chan struct{})
	go srv.cat.View("ms", func(*core.Document) error {
		close(held)
		<-hold
		return nil
	})
	<-held
	defer close(hold)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct{ path, body string }{
		{"/query", `{"doc":"standoff","query":"//w"}`}, // cold: waits for the load
		{"/docs/ms/edit", `{"ops":[{"op":"set-attr","hierarchy":"words","index":0,"name":"k","value":"v"}]}`},
		{"/docs/ms/undo", ``},
		{"/docs/ms/redo", ``},
	} {
		before := srv.cancelled.Value()
		req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)).WithContext(ctx)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != statusClientClosedRequest {
			t.Fatalf("%s: status %d %s, want 499", tc.path, w.Code, w.Body.String())
		}
		if w.Body.Len() != 0 {
			t.Errorf("%s: 499 carries a body: %q", tc.path, w.Body.String())
		}
		if got := srv.cancelled.Value(); got != before+1 {
			t.Errorf("%s: cancelled counter %d -> %d, want +1", tc.path, before, got)
		}
	}
}

func TestSlowQueryLoggedAndCounted(t *testing.T) {
	srv, _ := newFixture(t, 2000, Config{SlowQuery: time.Nanosecond})
	h := srv.Handler()
	warm(t, srv, "ms")
	if w := post(t, h, `{"doc":"ms","query":"//w","format":"count"}`); w.Code != http.StatusOK {
		t.Fatalf("query: %d %s", w.Code, w.Body.String())
	}
	if srv.slowQueries.Value() == 0 {
		t.Error("slowQueries counter not incremented")
	}
}

// TestAdversarialBarrage is the robustness acceptance scenario: a storm
// of hostile queries under tight per-request deadlines and a node
// budget, with edit traffic interleaved. Every edit must commit, every
// response must be a deliberate status (no 500s, no panics), and the
// goroutine count must return to baseline — no evaluator, lock waiter,
// or load goroutine may leak.
func TestAdversarialBarrage(t *testing.T) {
	srv, _, _ := newEditFixture(t, 2000, Config{MaxVisited: 5_000_000})
	h := srv.Handler()
	warm(t, srv, "ms")
	lo, hi := firstWordSpan(t, h)

	baseline := runtime.NumGoroutine()
	adversarial := []string{
		// Expensive: dies on the 25ms deadline or the node budget.
		fmt.Sprintf(`{"doc":"ms","query":%q,"timeoutMS":25}`, expensiveQuery),
		// Cheap: must keep succeeding throughout the storm.
		`{"doc":"ms","query":"count(//w)","format":"count","timeoutMS":25}`,
		// Malformed: parser rejections, including a nesting bomb the
		// depth cap must catch without blowing the goroutine stack.
		`{"doc":"ms","query":"//w[","timeoutMS":25}`,
		fmt.Sprintf(`{"doc":"ms","query":%q,"timeoutMS":25}`, strings.Repeat("(", 4000)+"1"),
		// Unknown document.
		`{"doc":"nope","query":"//w","timeoutMS":25}`,
		// FLWOR crossing the node budget.
		`{"doc":"ms","flwor":"for $a in //w for $b in //w return name($b)","timeoutMS":25}`,
	}
	allowed := map[int]bool{
		http.StatusOK: true, http.StatusBadRequest: true, http.StatusNotFound: true,
		http.StatusRequestEntityTooLarge: true, http.StatusUnprocessableEntity: true,
		statusClientClosedRequest: true, http.StatusGatewayTimeout: true,
	}

	const queriers, rounds, writers, edits = 12, 6, 2, 8
	var wg sync.WaitGroup
	errs := make(chan error, queriers+writers)
	for g := 0; g < queriers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				body := adversarial[(g+i)%len(adversarial)]
				w := post(t, h, body)
				if !allowed[w.Code] {
					errs <- fmt.Errorf("querier %d: unexpected %d: %s", g, w.Code, w.Body.String())
					return
				}
			}
		}()
	}
	// Edit traffic rides along with no deadline (timeoutMS is per
	// request, and the server has no default): under the barrage the
	// write path must keep committing, not starve or 504.
	for wr := 0; wr < writers; wr++ {
		wr := wr
		wg.Add(1)
		go func() {
			defer wg.Done()
			hier := fmt.Sprintf("storm%d", wr)
			for i := 0; i < edits; i++ {
				body := fmt.Sprintf(`{"ops":[
					{"op":"insert-markup","hierarchy":%q,"tag":"note","start":%d,"end":%d},
					{"op":"remove-markup","hierarchy":%q,"index":0}
				]}`, hier, lo, hi, hier)
				if w := postPath(t, h, "/docs/ms/edit", body); w.Code != http.StatusOK {
					errs <- fmt.Errorf("writer %d edit %d: %d %s", wr, i, w.Code, w.Body.String())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if srv.panics.Value() != 0 {
		t.Errorf("panics recovered during barrage: %d", srv.panics.Value())
	}
	if srv.timedOut.Value() == 0 && srv.budgetExceeded.Value() == 0 {
		t.Error("barrage tripped neither deadlines nor budgets; it was not adversarial")
	}

	// Goroutine accounting: every request goroutine's helpers (limiter
	// polls, lock waiters, singleflight loads) must have unwound.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+4 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain: baseline %d, now %d", baseline, n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
