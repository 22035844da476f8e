package xpath

import (
	"context"
	"errors"
	"fmt"
)

// This file is the request-lifecycle seam of the evaluator: a Limiter
// carries one evaluation's cancellation context and resource budget and
// is consulted at amortized checkpoints — every visited node increments
// a counter, and every checkInterval visits the context is actually
// polled. The per-node cost is therefore a few arithmetic operations (or
// a single nil check when no limits apply), while a cancelled or
// over-budget evaluation still stops within at most checkInterval node
// visits of the trigger.

// checkInterval is the amortization grain of the cooperative
// checkpoints: ctx.Err() is consulted once per this many visited nodes.
const checkInterval = 1024

// ErrBudgetExceeded is the sentinel matched (via errors.Is) by every
// budget exhaustion. Context cancellation is NOT a budget error: a
// cancelled or expired context surfaces as context.Canceled /
// context.DeadlineExceeded so callers can tell "the client gave up" from
// "the query is too expensive".
var ErrBudgetExceeded = errors.New("evaluation budget exceeded")

// Budget bounds one evaluation's resources. The zero value means
// unlimited. Wall time is bounded by a context deadline instead, which
// reports context.DeadlineExceeded rather than a BudgetError.
type Budget struct {
	// MaxVisited caps the number of nodes the evaluation may visit —
	// candidates enumerated by axis steps, expressions evaluated, nodes
	// pulled from streams — before it aborts with a BudgetError.
	MaxVisited int
}

// BudgetError reports an exhausted node budget.
// errors.Is(err, ErrBudgetExceeded) matches it.
type BudgetError struct {
	Kind    string // "nodes", the only budget dimension
	Visited int64  // nodes visited when the budget tripped
	Limit   int64  // the node cap
}

// Error implements the error interface.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("xpath: evaluation budget exceeded: visited %d of allowed %d nodes", e.Visited, e.Limit)
}

// Is matches the ErrBudgetExceeded sentinel.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExceeded }

// Limiter is the shared cancellation/budget state of one evaluation —
// or of one request spanning several evaluations (the FLWOR layer runs
// every clause of a query against a single Limiter, so the budget is
// cumulative across tuples). A nil Limiter is valid and unlimited;
// Limiters are single-goroutine state, like the evaluator they ride in.
type Limiter struct {
	ctx        context.Context // nil when cancellation cannot occur
	maxVisited int64
	visited    int64
	countdown  int64 // visits until the next ctx poll
	err        error // sticky: first trip, returned ever after
}

// NewLimiter builds the limiter for ctx and b, returning nil — the
// unlimited limiter — when ctx can never be cancelled and b is zero, so
// limit-free evaluations pay only a nil check per visit.
func NewLimiter(ctx context.Context, b Budget) *Limiter {
	hasCtx := ctx != nil && ctx.Done() != nil
	if !hasCtx && b.MaxVisited <= 0 {
		return nil
	}
	l := &Limiter{maxVisited: int64(b.MaxVisited), countdown: checkInterval}
	if hasCtx {
		l.ctx = ctx
	}
	// Pre-poll: a context that is already over makes the limiter start
	// tripped, so even an evaluation too small to reach its first
	// checkpoint refuses to run (entry points check Err before work).
	if l.ctx != nil {
		if err := l.ctx.Err(); err != nil {
			l.err = err
		}
	}
	return l
}

// Visit records n more visited nodes and returns the evaluation's fate:
// nil to continue, or the sticky cancellation/budget error to unwind
// with. The context is polled only every checkInterval visits; the node
// cap is exact.
func (l *Limiter) Visit(n int) error {
	if l == nil {
		return nil
	}
	if l.err != nil {
		return l.err
	}
	l.visited += int64(n)
	if l.maxVisited > 0 && l.visited > l.maxVisited {
		l.err = &BudgetError{Kind: "nodes", Visited: l.visited, Limit: l.maxVisited}
		return l.err
	}
	l.countdown -= int64(n)
	if l.countdown > 0 {
		return nil
	}
	l.countdown = checkInterval
	return l.poll()
}

// poll is the slow path of Visit: consult the context.
func (l *Limiter) poll() error {
	if l.ctx != nil {
		l.err = l.ctx.Err()
	}
	return l.err
}

// Visited returns the number of nodes visited so far.
func (l *Limiter) Visited() int64 {
	if l == nil {
		return 0
	}
	return l.visited
}

// Err returns the sticky cancellation/budget error, nil while the
// evaluation may continue.
func (l *Limiter) Err() error {
	if l == nil {
		return nil
	}
	return l.err
}
