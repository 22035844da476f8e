package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/xpath"
)

// BenchmarkServeQuery drives the full handler stack — request decode,
// catalog hit, compiled-query cache hit, concurrent Eval, JSON encode —
// over a warm catalog from parallel goroutines: the serving layer's
// steady-state throughput.
func BenchmarkServeQuery(b *testing.B) {
	for _, q := range []string{"count(//w)", "//dmg/overlapping::w", "//line/covered::w"} {
		b.Run(strings.NewReplacer("/", "_", ":", "_").Replace(q), func(b *testing.B) {
			s, _ := newFixture(b, 2000, Config{})
			h := s.Handler()
			body := fmt.Sprintf(`{"doc":"ms","query":%q}`, q)
			// Warm: catalog load + query compile outside the timer.
			if w := post(b, h, body); w.Code != http.StatusOK {
				b.Fatalf("warmup: %d %s", w.Code, w.Body.String())
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
					w := httptest.NewRecorder()
					h.ServeHTTP(w, req)
					if w.Code != http.StatusOK {
						b.Fatalf("query failed: %d", w.Code)
					}
				}
			})
		})
	}
}

// BenchmarkServeQueryLarge drives the handler with a large node-set
// result (every word element, ~2000 nodes) through the streaming
// encoder. ReportAllocs pins the zero-alloc claim: per-request
// allocations must not scale with the result size.
func BenchmarkServeQueryLarge(b *testing.B) {
	for _, format := range []string{"json", "text"} {
		b.Run(format, func(b *testing.B) {
			s, _ := newFixture(b, 2000, Config{})
			h := s.Handler()
			body := fmt.Sprintf(`{"doc":"ms","query":"//w","format":%q}`, format)
			if w := post(b, h, body); w.Code != http.StatusOK {
				b.Fatalf("warmup: %d %s", w.Code, w.Body.String())
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
					w := httptest.NewRecorder()
					h.ServeHTTP(w, req)
					if w.Code != http.StatusOK {
						b.Fatalf("query failed: %d", w.Code)
					}
				}
			})
		})
	}
}

// TestServeAllocsFlat asserts the streaming path's allocation count is
// independent of the result size: a ~2000-node response must allocate
// about the same number of objects per request as an 8-node response of
// the same query (byte volume differs, object count must not — the
// node encoding reuses pooled scratch, not per-node buffers).
func TestServeAllocsFlat(t *testing.T) {
	s, _ := newFixture(t, 2000, Config{})
	h := s.Handler()
	run := func(body string) float64 {
		// Warm pools, catalog, compiled-query LRU, and plan cache.
		for i := 0; i < 5; i++ {
			if w := post(t, h, body); w.Code != http.StatusOK {
				t.Fatalf("warmup: %d %s", w.Code, w.Body.String())
			}
		}
		return testing.AllocsPerRun(20, func() {
			req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				t.Fatalf("query failed: %d", w.Code)
			}
		})
	}
	for _, tc := range []struct{ name, query string }{
		{"json", `"query":"//w","format":"json"`},
		{"text", `"query":"//w","format":"text"`},
		// A FLWOR's tuples render through the same append encoders: no
		// per-tuple allocation beyond what evaluation itself makes.
		{"flwor json", `"flwor":"for $w in //w return $w","format":"json"`},
	} {
		small := run(fmt.Sprintf(`{"doc":"ms",%s,"limit":8}`, tc.query))
		large := run(fmt.Sprintf(`{"doc":"ms",%s}`, tc.query))
		// ~250x more result nodes must not mean more allocations; allow
		// a small constant of slack for buffer-size-class noise.
		if large > small+25 {
			t.Errorf("%s: allocs scale with result size: %.0f (2000 nodes) vs %.0f (8 nodes)", tc.name, large, small)
		}
		t.Logf("%s: allocs/request: %.0f large, %.0f small", tc.name, large, small)
	}
}

// BenchmarkDirectEval is the floor BenchmarkServeQuery is measured
// against: the same query evaluated straight on the GODDAG, no HTTP, no
// JSON. The difference is the serving layer's overhead.
func BenchmarkDirectEval(b *testing.B) {
	for _, q := range []string{"count(//w)", "//dmg/overlapping::w", "//line/covered::w"} {
		b.Run(strings.NewReplacer("/", "_", ":", "_").Replace(q), func(b *testing.B) {
			s, _ := newFixture(b, 2000, Config{})
			doc, err := s.cat.Get("ms")
			if err != nil {
				b.Fatal(err)
			}
			g := doc.GODDAG()
			cq := xpath.MustCompile(q)
			if _, err := cq.Eval(g); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := cq.Eval(g); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkCatalogColdLoad measures a cold catalog load — parse, index
// pre-warm, footprint accounting — for the binary store and standoff
// source forms.
func BenchmarkCatalogColdLoad(b *testing.B) {
	for _, id := range []string{"ms", "standoff"} {
		b.Run(id, func(b *testing.B) {
			s, _ := newFixture(b, 2000, Config{})
			for i := 0; i < b.N; i++ {
				if _, err := s.cat.Get(id); err != nil {
					b.Fatal(err)
				}
				if !s.cat.Evict(id) {
					b.Fatal("evict failed")
				}
			}
		})
	}
}

// BenchmarkCatalogHit measures the resident fast path: lock, LRU bump,
// pointer return.
func BenchmarkCatalogHit(b *testing.B) {
	s, _ := newFixture(b, 500, Config{})
	if _, err := s.cat.Get("ms"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.cat.Get("ms"); err != nil {
			b.Fatal(err)
		}
	}
}
