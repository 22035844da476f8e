package xpath

import (
	"context"
	"testing"
	"time"
)

// BenchmarkCheckpointOverhead isolates the cost of the cancellation /
// budget checkpoints by running the same warm queries with no limiter
// (the serving default: no deadline, no budget → NewLimiter returns
// nil) and with a limiter that is active but never trips. The deltas
// between the off and on variants ARE the checkpoint overhead —
// measured in one process, immune to the run-to-run machine drift that
// dominates any comparison across separate runs.
func BenchmarkCheckpointOverhead(b *testing.B) {
	doc := wordsDoc(b, 2000)
	for _, qs := range []string{"//w", "count(//w)"} {
		q := MustCompile(qs)
		b.Run(qs+"/limiter-off", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := q.Eval(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(qs+"/limiter-on", func(b *testing.B) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
			defer cancel()
			budget := Budget{MaxVisited: 1 << 30}
			for i := 0; i < b.N; i++ {
				if _, err := q.EvalContext(ctx, doc, budget); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
