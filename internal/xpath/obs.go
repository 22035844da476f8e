package xpath

import "sync/atomic"

// Process-wide engine counters, exported to the serving layer's metrics
// registry via Counters(). They are package-level atomics rather than
// per-Query state because the interesting rates (plan-cache hit ratio,
// nodes visited per second) are properties of the whole engine, and
// because the hot paths that bump them — planFor and evaluator release —
// must not take locks or chase registry pointers.
var engine struct {
	planHits   atomic.Uint64
	planMisses atomic.Uint64
	planKinds  [planKindCount]atomic.Uint64
	visited    atomic.Uint64
}

// String names a plan kind the way Explain and the metrics labels do.
func (k planKind) String() string {
	switch k {
	case planScan:
		return "scan"
	case planSemiJoin:
		return "semi-join"
	case planJoin:
		return "join"
	case planCount:
		return "count"
	case planExists:
		return "exists"
	default:
		return "eval"
	}
}

// EngineCounters is a snapshot of the engine's process-wide counters.
type EngineCounters struct {
	// PlanCacheHits / PlanCacheMisses count planFor consulting a Query's
	// cached plan slot. A miss replans; the ratio is the planner's
	// amortization.
	PlanCacheHits   uint64
	PlanCacheMisses uint64
	// PlansByKind counts executions by chosen plan shape, keyed by the
	// planKind name ("scan", "semi-join", "join", "count", "exists",
	// "eval").
	PlansByKind map[string]uint64
	// NodesVisited is the cumulative node-visit count of all evaluations
	// that ran with a limiter (deadline, budget, or tracing). Limit-free
	// evaluations do not count visits, by design — counting is what the
	// limiter's amortized checkpoints already pay for.
	NodesVisited uint64
}

// Counters snapshots the engine counters. Scrape-path only; allocates.
func Counters() EngineCounters {
	c := EngineCounters{
		PlanCacheHits:   engine.planHits.Load(),
		PlanCacheMisses: engine.planMisses.Load(),
		NodesVisited:    engine.visited.Load(),
		PlansByKind:     make(map[string]uint64, planKindCount),
	}
	for k := planKind(0); k < planKindCount; k++ {
		c.PlansByKind[k.String()] = engine.planKinds[k].Load()
	}
	return c
}

// NewCountingLimiter returns a limiter with no context and no budget
// that still counts visited nodes — the hook explain-analyze uses when
// a traced evaluation would otherwise run limiter-free.
func NewCountingLimiter() *Limiter {
	return &Limiter{countdown: checkInterval}
}

// ReportVisited folds a caller-owned limiter's visit count into the
// engine counters. The FLWOR layer shares one Limiter across all clause
// evaluations and reports it once here; evaluator-owned limiters are
// reported automatically at release. Nil-safe.
func ReportVisited(l *Limiter) {
	if l != nil && l.visited > 0 {
		engine.visited.Add(uint64(l.visited))
	}
}
