package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it called. Spans of one operation share Op;
// Parent is the index of the enclosing span, -1 for an operation's
// root. Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory; writeFile saves them when the run ends.
// An off tracer records nothing: the workloads still take the composed
// path, which is how a run measures that path untraced.
type tracer struct {
	t0    time.Time
	spans []span
	ops   int
	off   bool
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op starts a new operation and returns its id.
func (t *tracer) op() int {
	t.ops++
	return t.ops
}

func (t *tracer) at(tm time.Time) int64 { return tm.Sub(t.t0).Nanoseconds() }

// begin opens a span now and returns its index, -1 when off.
func (t *tracer) begin(name string, op, parent int) int {
	if t.off {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: t.at(time.Now())})
	return len(t.spans) - 1
}

// end closes span i now.
func (t *tracer) end(i int) {
	if i >= 0 {
		t.spans[i].End = t.at(time.Now())
	}
}

// add records a span whose bounds were observed elsewhere, such as from
// filesystem call timestamps.
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	if t.off {
		return -1
	}
	if end.Before(start) {
		end = start
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: t.at(start), End: t.at(end)})
	return len(t.spans) - 1
}

// merge appends the spans of o, a tracer with the same start that
// recorded another goroutine's operations.
func (t *tracer) merge(o *tracer) {
	base := len(t.spans)
	for _, s := range o.spans {
		s.Op += t.ops
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
	t.ops += o.ops
}

// layerTimes sums the durations of the spans of each name and counts
// them.
type layerTimes struct {
	total map[string]time.Duration
	n     map[string]int
}

func (t *tracer) times() layerTimes {
	lt := layerTimes{total: map[string]time.Duration{}, n: map[string]int{}}
	for _, s := range t.spans {
		lt.total[s.Name] += time.Duration(s.End - s.Start)
		lt.n[s.Name]++
	}
	return lt
}

// perMS is total/n in milliseconds, 0 when n is 0.
func perMS(total time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return ms(total) / float64(n)
}

func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
