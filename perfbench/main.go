// Command perfbench is the repository's benchmark: four seeded
// workloads driven in process through the same layers a deployment
// uses, with correctness checks on every run and a separate traced run
// that splits each operation into per-layer stages from outside the
// program. See README.md for why each workload exists.
//
//	perfbench -workload read-hot -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With -trace 0 the
// metrics are the end-to-end set, with -trace 1 the per-layer set.
// The process exits non-zero on any failed check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one seeded operation mix.
type workload interface {
	// setup generates the inputs under dir, opens what the run uses and
	// performs a fixed warm-up op count.
	setup(dir string) error
	// run sends the op sequence passes times. A non-nil tracer selects
	// the composed path: the layers' public calls issued one by one,
	// each inside a span unless the tracer is off.
	run(passes int, tr *tracer) error
	// principal returns the latencies of the op the workload's p50/p90
	// describe, and all ops completed and attempted so far.
	principal() []time.Duration
	counts() (done, attempted int)
	// reset forgets the samples and counters of earlier phases.
	reset()
	// verify runs the end-of-run correctness checks, recording any
	// failure with the others in checks.
	verify()
	storedBytes() (disk, content int64, err error)
	// clientRequests lists requests that exercise the client loop, for
	// measuring its own cost; nil when no HTTP is involved.
	clientRequests() []*request
	// layers sets the per-layer metrics of a traced phase and returns
	// the mean per-op sum of the disjoint layer stages timed inside the
	// principal op.
	layers(tr *tracer, m metrics) time.Duration
	checks() *checks
}

// workloads maps each name to its constructor and to the time one pass
// of its op sequence takes on the reference host (two cores, see
// README.md). A run of -seconds s sends seconds/passSeconds whole
// passes, but no more than maxPasses when that is set: a fixed op
// sequence, so counts repeat exactly, spread over at least -seconds.
var workloads = map[string]struct {
	mk          func(seed int64) workload
	passSeconds float64
	maxPasses   int
}{
	"read-hot":     {newReadHot, 0.29, 0},
	"cold-churn":   {newColdChurn, 0.01, churnMaxPasses},
	"edit-durable": {newEditDurable, 0.76, 0},
	"ingest":       {newIngest, 0.3, 0},
}

// passes is the number of passes that take about d on the reference
// host, at least one and at most maxPasses when that is set.
func passes(passSeconds float64, maxPasses int, d time.Duration) int {
	n := max(1, int(math.Round(d.Seconds()/passSeconds)))
	if maxPasses > 0 {
		n = min(n, maxPasses)
	}
	return n
}

// setupRuns is how many times a run sets up, to report the median.
const setupRuns = 5

// endToEndMetrics is the set every untraced run reports, in
// BENCHMARK.json order.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"alloc_kb_per_op", "KiB"},
	{"heap_live_mb", "MiB"},
	{"peak_rss_mb", "MiB"},
	{"stored_bytes_ratio", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() { os.Exit(benchmain()) }

// benchmain runs the benchmark and returns the exit code: 2 for bad
// flags, 1 when the run fails or a correctness check fails.
func benchmain() int {
	name := flag.String("workload", "", "workload: "+strings.Join(sortedNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "length of the measured phase on the reference host")
	traced := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		return 2
	}
	root, err := workRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(root)
	d := time.Duration(*seconds) * time.Second
	n := passes(wl.passSeconds, wl.maxPasses, d)
	var res result
	if *traced == 1 {
		res, err = runTraced(wl.mk, *name, *seed, n, root)
	} else {
		res, err = runPlain(wl.mk, *seed, n, d, root)
	}
	var out []byte
	if err == nil {
		out, err = json.Marshal(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// buildDir holds everything a run leaves behind, relative to the
// directory the benchmark runs from.
const buildDir = ".bench_build"

// workRoot makes a fresh scratch directory for this process's corpora.
func workRoot() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(buildDir, "work-")
}

// timedSetup constructs and sets up one workload instance in a fresh
// directory under root.
func timedSetup(mk func(int64) workload, seed int64, root string, i int) (workload, time.Duration, error) {
	dir := filepath.Join(root, fmt.Sprintf("setup%d", i))
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, 0, err
	}
	// Collect first, so that a cycle owed by earlier work, such as the
	// heap cold-churn leaks, is not charged to this set-up.
	runtime.GC()
	start := time.Now()
	w := mk(seed)
	if err := w.setup(dir); err != nil {
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	return w, time.Since(start), nil
}

// runPlain is the untraced run: it sets up, measures n passes spread
// over d, reads the memory figures, verifies, and then sets up again
// setupRuns-1 times so that setup_s is a median. The extra set-ups
// come last so nothing they leave behind reaches the memory metrics.
func runPlain(mk func(int64) workload, seed int64, n int, d time.Duration, root string) (result, error) {
	w, setup0, err := timedSetup(mk, seed, root, 0)
	if err != nil {
		return result{}, err
	}
	var drv clientCost
	if reqs := w.clientRequests(); len(reqs) > 0 {
		drv = measureClient(reqs)
	}
	w.reset()
	runtime.GC()
	resetPeakRSS()
	m0 := readMem()
	wins, err := measureWindows(w, n, d)
	if err != nil {
		return result{}, err
	}
	m1 := readMem()
	rss := peakRSS()
	heap := settledHeap()

	done, attempted := w.counts()
	w.verify()
	c := w.checks()
	disk, content, err := w.storedBytes()
	if err != nil {
		return result{}, err
	}
	fast := fastQuarter(wins)

	setups := []float64{setup0.Seconds()}
	for i := 1; i < setupRuns; i++ {
		_, s, err := timedSetup(mk, seed, root, i)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, s.Seconds())
	}

	nops := float64(done)
	allocs := float64(m1.Mallocs-m0.Mallocs)/nops - drv.Allocs
	bytesPer := float64(m1.TotalAlloc-m0.TotalAlloc)/nops - drv.Bytes
	values := map[string]float64{
		"setup_s":            median(setups),
		"ops_per_s":          fast.opsPerS,
		"p50_ms":             ms(fast.p50),
		"p90_ms":             ms(fast.p90),
		"cpu_ms_per_op":      fast.cpuMSPerOp,
		"allocs_per_op":      max(allocs, 0),
		"alloc_kb_per_op":    max(bytesPer, 0) / 1024,
		"heap_live_mb":       float64(heap) / (1 << 20),
		"peak_rss_mb":        float64(rss) / (1 << 20),
		"stored_bytes_ratio": float64(disk) / float64(content),
	}
	m := metrics{}
	for _, e := range endToEndMetrics {
		m.set(e.name, e.unit, values[e.name])
	}
	if c.first != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", c.first)
	}
	return result{
		Correct:   c.failed == 0,
		Attempted: attempted,
		Failed:    c.failed,
		Metrics:   m,
	}, nil
}

// window is one stretch of whole passes of the measured phase, long
// enough that its principal ops have a p90.
type window struct {
	lat       []time.Duration // principal op latencies
	ops       int             // all ops completed
	busy, cpu time.Duration   // wall and CPU time of its passes
}

// measureWindows sends n passes spread over d: pass i starts no earlier
// than i*d/n after the first, so that a run samples the host over all of
// d even when its passes take less. It cuts the passes into windows of
// the fewest whole passes that give a p90; a short remainder joins the
// last window. A window's times count only its passes, not the pauses.
func measureWindows(w workload, n int, d time.Duration) ([]window, error) {
	type mark struct {
		lat, done int
		busy, cpu time.Duration
	}
	var busy, cpu time.Duration
	now := func() mark {
		done, _ := w.counts()
		return mark{len(w.principal()), done, busy, cpu}
	}
	marks := []mark{now()}
	start := time.Now()
	for i := 0; i < n; i++ {
		time.Sleep(time.Until(start.Add(d * time.Duration(i) / time.Duration(n))))
		t0, c0 := time.Now(), cpuTime()
		if err := w.run(1, nil); err != nil {
			return nil, err
		}
		busy += time.Since(t0)
		cpu += cpuTime() - c0
		m := now()
		if m.lat-marks[len(marks)-1].lat >= minSamples(0.90) {
			marks = append(marks, m)
		} else if i == n-1 {
			if len(marks) == 1 {
				return nil, fmt.Errorf("%d principal samples: p90 needs at least %d", m.lat, minSamples(0.90))
			}
			marks[len(marks)-1] = m
		}
	}
	wins := make([]window, len(marks)-1)
	for i := range wins {
		a, b := marks[i], marks[i+1]
		wins[i] = window{
			lat:  w.principal()[a.lat:b.lat],
			ops:  b.done - a.done,
			busy: b.busy - a.busy,
			cpu:  b.cpu - a.cpu,
		}
	}
	return wins, nil
}

// timings are the figures a run reports from its windows.
type timings struct {
	opsPerS, cpuMSPerOp float64
	p50, p90            time.Duration
}

// fastQuarter pools the quarter of the windows (at least one) that ran
// fastest per op and takes every timing over the pool. The reference
// host alternates, over seconds, between its own speed and one about
// 1.7 times slower while a neighbour shares its cores. Every window is
// the same work, so the fastest ones are those the neighbour left
// alone, and pooling them keeps the percentiles' sampling noise low.
func fastQuarter(wins []window) timings {
	perOp := func(w window) float64 { return w.busy.Seconds() / float64(w.ops) }
	sort.Slice(wins, func(i, j int) bool { return perOp(wins[i]) < perOp(wins[j]) })
	var lat []time.Duration
	var ops int
	var busy, cpu time.Duration
	for _, w := range wins[:max(1, len(wins)/4)] {
		lat = append(lat, w.lat...)
		ops += w.ops
		busy += w.busy
		cpu += w.cpu
	}
	p50, _ := percentile(lat, 0.50)
	p90, _ := percentile(lat, 0.90)
	return timings{
		opsPerS:    float64(ops) / busy.Seconds(),
		cpuMSPerOp: ms(cpu) / float64(ops),
		p50:        p50,
		p90:        p90,
	}
}

// runTraced is the per-layer run, in three phases of n/3 passes: the
// ops through the handler, for the end-to-end mean; the composed public
// calls with tracing off; and the same calls traced.
func runTraced(mk func(int64) workload, name string, seed int64, n int, root string) (result, error) {
	w, _, err := timedSetup(mk, seed, root, 0)
	if err != nil {
		return result{}, err
	}
	var means [3]time.Duration
	tr := newTracer()
	for i, t := range []*tracer{nil, {t0: tr.t0, off: true}, tr} {
		w.reset()
		if err := w.run(max(1, n/3), t); err != nil {
			return result{}, err
		}
		means[i] = mean(w.principal())
	}
	m := metrics{}
	zeroLayers(m)
	c := w.checks()
	stages := w.layers(tr, m)
	stageSum(m, c, w.clientRequests() != nil, stages, means[0], means[1], means[2])
	_, attempted := w.counts()
	w.verify()
	if err := tr.writeFile(filepath.Join(buildDir, "spans-"+name+".json")); err != nil {
		return result{}, err
	}
	if c.first != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", c.first)
	}
	return result{Correct: c.failed == 0, Attempted: attempted, Failed: c.failed, Metrics: m}, nil
}

// sortedNames lists the workload names, for usage and tests.
func sortedNames() []string {
	var out []string
	for name := range workloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
