package xpath

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/goddag"
	"repro/internal/sacx"
)

// wordsDoc builds a single-hierarchy document of n <w> elements — big
// enough to cross the limiter's amortized checkpoint interval many
// times, unlike the 24-rune fig1 fragment.
func wordsDoc(t testing.TB, n int) *goddag.Document {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < n; i++ {
		sb.WriteString("<w>a</w>")
	}
	sb.WriteString("</r>")
	doc, err := sacx.Build([]sacx.Source{{Hierarchy: "words", Data: []byte(sb.String())}})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestBudgetMaxVisited(t *testing.T) {
	doc := wordsDoc(t, 2000)
	q := MustCompile("//w")
	_, err := q.EvalContext(context.Background(), doc, Budget{MaxVisited: 100})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Kind != "nodes" || be.Visited <= be.Limit || be.Limit != 100 {
		t.Fatalf("BudgetError = %+v", be)
	}
	// The same query under a sufficient budget succeeds.
	v, err := q.EvalContext(context.Background(), doc, Budget{MaxVisited: 1 << 20})
	if err != nil || len(v.Nodes()) != 2000 {
		t.Fatalf("sufficient budget: %v, %d nodes", err, len(v.Nodes()))
	}
}

// TestContextCancellation: cancellation surfaces as the context's own
// error, NOT as ErrBudgetExceeded — callers distinguish "the client
// gave up" from "the query was too big" by error identity.
func TestContextCancellation(t *testing.T) {
	doc := wordsDoc(t, 2000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MustCompile("//w").EvalContext(ctx, doc, Budget{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrBudgetExceeded) {
		t.Fatal("cancellation must not masquerade as a budget error")
	}
	// A document too small to reach the first amortized checkpoint must
	// still refuse an already-expired context (the limiter pre-polls).
	tiny := wordsDoc(t, 3)
	if _, err := MustCompile("//w").EvalContext(ctx, tiny, Budget{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("tiny doc under a dead context: err = %v, want context.Canceled", err)
	}
	if _, err := MustCompile("//w").StreamContext(ctx, tiny, Budget{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("tiny stream under a dead context: err = %v, want context.Canceled", err)
	}
}

func TestStreamBudget(t *testing.T) {
	doc := wordsDoc(t, 2000)
	st, err := MustCompile("//w").StreamContext(context.Background(), doc, Budget{MaxVisited: 64})
	if err == nil {
		defer st.Close()
		for {
			n, nerr := st.Next()
			if nerr != nil {
				err = nerr
				break
			}
			if n == nil {
				break
			}
		}
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("streamed past a 64-node budget: err = %v", err)
	}
}

func TestStreamCancellationMidPull(t *testing.T) {
	doc := wordsDoc(t, 5000)
	ctx, cancel := context.WithCancel(context.Background())
	st, err := MustCompile("//w").StreamContext(ctx, doc, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cancel()
	for i := 0; i < 5000; i++ {
		n, nerr := st.Next()
		if nerr != nil {
			if !errors.Is(nerr, context.Canceled) {
				t.Fatalf("Next after cancel: %v", nerr)
			}
			return
		}
		if n == nil {
			break
		}
	}
	t.Fatal("stream never observed the cancelled context")
}

// TestLimiterSharedAcrossEvals: the FLWOR seam — one Limiter threaded
// through several evaluations accumulates a single cumulative budget.
func TestLimiterSharedAcrossEvals(t *testing.T) {
	doc := wordsDoc(t, 100)
	lim := NewLimiter(context.Background(), Budget{MaxVisited: 250})
	q := MustCompile("//w")
	var err error
	evals := 0
	for ; evals < 10; evals++ {
		if _, err = q.EvalWithLimiter(doc, doc.Root(), nil, lim); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("10 x 100-node evals under a 250-visit budget: err = %v", err)
	}
	if evals == 0 || evals > 3 {
		t.Fatalf("budget exhausted after %d evals, want 1-3", evals)
	}
}

// TestNilLimiterIsFree: no context, no budget — the fast path the
// default configuration rides — must behave exactly like no limiter.
func TestNilLimiterIsFree(t *testing.T) {
	if lim := NewLimiter(context.Background(), Budget{}); lim != nil {
		t.Fatalf("NewLimiter with no ctx and no budget = %+v, want nil", lim)
	}
	var lim *Limiter
	if err := lim.Visit(1 << 30); err != nil {
		t.Fatalf("nil limiter Visit: %v", err)
	}
}

func TestParserDepthCap(t *testing.T) {
	for _, src := range []string{
		strings.Repeat("(", 600) + "1" + strings.Repeat(")", 600),
		strings.Repeat("-", 2000) + "1",
		strings.Repeat("(", 100000), // unbalanced nesting bomb
	} {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile accepted a %d-byte nesting bomb", len(src))
		}
	}
	// The cap is well above any sane expression.
	if _, err := Compile(strings.Repeat("(", 100) + "1" + strings.Repeat(")", 100)); err != nil {
		t.Errorf("Compile rejected 100-deep parens: %v", err)
	}
}
