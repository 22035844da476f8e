package xpath

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/goddag"
	"repro/internal/sacx"
)

// TestSpanJoinSemantics pins the covered/covering relations the span
// join must reproduce on a document small enough to check by hand:
// words w[0,3) w[3,6), a seg[0,3) coextensive with the first word, and
// two milestones mark[3,3) at the word border. An element never covers
// or is covered by itself, also when the origin and output buckets are
// the same; covered lists a co-located milestone, covering never lists
// an empty container. Every query runs through Eval (the evalStep join
// whenever there are several origins), Stream (the planner's join) and
// the reference evaluator.
func TestSpanJoinSemantics(t *testing.T) {
	doc, err := sacx.Build([]sacx.Source{
		{Hierarchy: "words", Data: []byte(`<r><w>abc</w><w>def</w></r>`)},
		{Hierarchy: "segs", Data: []byte(`<r><seg>abc</seg>def</r>`)},
		{Hierarchy: "marks", Data: []byte(`<r>abc<mark/><mark/>def</r>`)},
	})
	if err != nil {
		t.Fatal(err)
	}
	const (
		w1   = "words:w[0,3)"
		w2   = "words:w[3,6)"
		seg  = "segs:seg[0,3)"
		mark = "marks:mark[3,3)"
	)
	cases := []struct {
		query string
		want  []string
	}{
		{"//w/covered::w", nil},
		{"//w/covering::w", nil},
		{"//*/covered::*", []string{w1, seg, mark, mark}},
		{"//*/covering::*", []string{w1, seg, w2}},
		{"//seg/covered::w", []string{w1}},
		{"//w/covered::seg", []string{seg}},
		{"//w/covering::seg", []string{seg}},
		{"//w/covered::mark", []string{mark, mark}},
		{"//mark/covered::mark", []string{mark, mark}},
		{"//mark/covering::mark", nil},
		{"//mark/covering::*", []string{w1, seg, w2}},
	}
	for _, tc := range cases {
		q := MustCompile(tc.query)
		want := fmt.Sprint(tc.want)
		for _, cfg := range planConfigs {
			v, err := q.EvalWithOptions(doc, cfg.opts)
			if err != nil {
				t.Fatalf("%q %s: %v", tc.query, cfg.name, err)
			}
			if got := fmt.Sprint(joinNames(v.Nodes())); got != want {
				t.Errorf("%q %s eval: %s, want %s", tc.query, cfg.name, got, want)
			}
			if got := fmt.Sprint(joinNames(collectStream(t, q, doc, cfg.opts))); got != want {
				t.Errorf("%q %s stream: %s, want %s", tc.query, cfg.name, got, want)
			}
		}
	}
}

// joinNames is nodeNames with nil for an empty list, so it prints like
// a nil want.
func joinNames(ns []goddag.Node) []string {
	if len(ns) == 0 {
		return nil
	}
	return nodeNames(ns)
}

// TestSpanJoinBudget: a node budget stops //*/covered::* inside the join
// with the budget error, both in the evalStep join (Eval, once the
// origin step has run) and in the planner's streamed join (after some
// nodes were pulled, before the last).
func TestSpanJoinBudget(t *testing.T) {
	doc, err := corpus.Generate(corpus.DefaultConfig(8000))
	if err != nil {
		t.Fatal(err)
	}
	q := MustCompile("//*/covered::*")
	visits := func(qs string) int64 {
		lim := NewCountingLimiter()
		if _, err := MustCompile(qs).EvalWithOptions(doc, Options{Limiter: lim}); err != nil {
			t.Fatal(err)
		}
		return lim.Visited()
	}
	origins, whole := visits("//*"), visits(q.String())
	if whole-origins < 2*cursorTick {
		t.Fatalf("join charged %d visits, too few to stop mid-join", whole-origins)
	}
	_, err = q.EvalWithOptions(doc, Options{Budget: Budget{MaxVisited: int((origins + whole) / 2)}})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Eval under a budget that ends inside the join: %v", err)
	}

	lim := NewCountingLimiter()
	total := len(collectStream(t, q, doc, Options{Limiter: lim}))
	if pl := q.planFor(doc, Options{}); pl.kind != planJoin {
		t.Fatalf("plan %v, want a join", pl.Explain())
	}
	st, err := q.StreamWithOptions(doc, Options{Budget: Budget{MaxVisited: int(lim.Visited() / 2)}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pulled := 0
	for {
		n, err := st.Next()
		if err != nil {
			if !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("stream stopped with %v, want the budget error", err)
			}
			break
		}
		if n == nil {
			t.Fatalf("stream ran to its end (%d nodes) under half its visits", pulled)
		}
		pulled++
	}
	if pulled == 0 || pulled >= total {
		t.Errorf("budget stopped the stream after %d of %d nodes, want mid-stream", pulled, total)
	}
}
