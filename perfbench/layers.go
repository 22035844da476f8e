package main

import (
	"math"
	"os"
	"path/filepath"
	"time"
)

// layerMetrics is the per-layer set every traced run reports, in
// BENCHMARK.json order. A layer a workload does not exercise reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"server.self_ms", "ms"},
	{"catalog.load_ms", "ms"},
	{"catalog.hit_ratio", "ratio"},
	{"catalog.evictions_per_op", "count"},
	{"catalog.accounted_ratio", "ratio"},
	{"catalog.lock_wait_ms", "ms"},
	{"catalog.pre_wal_ms", "ms"},
	{"catalog.post_save_ms", "ms"},
	{"store.open_ms", "ms"},
	{"store.mapped_mb", "MiB"},
	{"store.unreleased_mapped_mb", "MiB"},
	{"store.wal_append_ms", "ms"},
	{"store.wal_reset_ms", "ms"},
	{"store.save_ms", "ms"},
	{"store.encode_ms", "ms"},
	{"faultfs.wal_kb_per_commit", "KiB"},
	{"faultfs.gdag_kb_per_commit", "KiB"},
	{"faultfs.syncs_per_commit", "count"},
	{"faultfs.sync_ms_per_commit", "ms"},
	{"faultfs.map_kb_per_load", "KiB"},
	{"editor.apply_ms", "ms"},
	{"goddag.first_touch_ms", "ms"},
	{"goddag.touch_kb_per_load", "KiB"},
	{"goddag.bulk_ms", "ms"},
	{"xpath.compile_ms", "ms"},
	{"xpath.eval_ms", "ms"},
	{"xpath.visited_per_result", "count"},
	{"xquery.eval_ms", "ms"},
	{"cliutil.encode_ms", "ms"},
	{"cliutil.bytes_per_result", "B"},
	{"sacx.stream_ms", "ms"},
	{"sacx.build_ms", "ms"},
	{"xmlscan.scan_ms", "ms"},
	{"side.read_p50_ms", "ms"},
	{"side.read_p90_ms", "ms"},
	{"trace.stage_sum_error", "ratio"},
	{"trace.overhead_ms", "ms"},
	{"trace.crosscheck_error", "ratio"},
}

// stageSumTolerance bounds how far the traced stages of an operation
// may sum away from the untraced end-to-end mean, as a share of it.
const stageSumTolerance = 0.25

// traceError sets metric to |got/want - 1| and, unless c is nil, counts
// a failed check when it exceeds tol.
func traceError(m metrics, c *checks, metric string, got, want time.Duration, tol float64) {
	e := math.Abs(float64(got)/float64(want) - 1)
	m.setLayer(metric, e)
	if e > tol && c != nil {
		c.fail("%s %.3f exceeds the tolerance %.2f", metric, e, tol)
	}
}

// zeroLayers fills m with every per-layer metric at 0.
func zeroLayers(m metrics) {
	for _, l := range layerMetrics {
		m.set(l.name, l.unit, 0)
	}
}

// setLayer sets a per-layer metric, taking its unit from layerMetrics.
func (m metrics) setLayer(name string, v float64) {
	for _, l := range layerMetrics {
		if l.name == name {
			m.set(name, l.unit, v)
			return
		}
	}
	panic("perfbench: unknown per-layer metric " + name) // a bug
}

// stageSum checks the per-op means of the three traced-run phases
// against stages, the mean per-op sum of the disjoint layer stages the
// traced phase recorded. e2e is the principal op through the handler,
// composed the same op through the public calls with tracing off, and
// traced with tracing on.
//
// The server's self time is e2e minus composed: what the composed calls
// do not account for (ingest has no server, so its difference is not
// reported). The tracing overhead is traced minus composed. The stages
// were timed with tracing on, so the overhead comes off their sum, and
// the server's self time plus that must come to e2e. The error is
// therefore the traced time no named stage covers, as a share of e2e.
func stageSum(m metrics, c *checks, server bool, stages, e2e, composed, traced time.Duration) {
	self, overhead := e2e-composed, traced-composed
	traceError(m, c, "trace.stage_sum_error", self+stages-overhead, e2e, stageSumTolerance)
	if server {
		m.setLayer("server.self_ms", ms(self))
	}
	m.setLayer("trace.overhead_ms", ms(overhead))
}

// base holds what every workload records.
type base struct {
	seed      int64
	dir       string // the corpus and everything the run stores
	content   int64  // content bytes of the documents stored in dir
	fs        *countingFS
	lat       []time.Duration // principal op latencies
	done      int
	attempted int
	chk       checks
}

func (b *base) principal() []time.Duration { return b.lat }
func (b *base) counts() (int, int)         { return b.done, b.attempted }
func (b *base) checks() *checks            { return &b.chk }

// storedBytes returns the .gdag and .wal bytes in the workload's
// directory and the content bytes they encode.
func (b *base) storedBytes() (disk, content int64, err error) {
	disk, err = dirBytes(b.dir)
	return disk, b.content, err
}

func (b *base) reset() {
	b.lat = b.lat[:0]
	b.done, b.attempted = 0, 0
}

// dirBytes sums the sizes of the .gdag and .wal files directly in dir.
func dirBytes(dir string) (int64, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, de := range des {
		switch filepath.Ext(de.Name()) {
		case ".gdag", ".wal":
			fi, err := de.Info()
			if err != nil {
				return 0, err
			}
			n += fi.Size()
		}
	}
	return n, nil
}

// repeat runs pass n times, stopping at the first error.
func repeat(n int, pass func() error) error {
	for i := 0; i < n; i++ {
		if err := pass(); err != nil {
			return err
		}
	}
	return nil
}
