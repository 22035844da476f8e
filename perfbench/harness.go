package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// respWriter is a reusable http.ResponseWriter: it keeps the status and
// body of one response in buffers that survive across requests, so the
// client loop allocates nothing per request after warm-up.
type respWriter struct {
	hdr    http.Header
	status int
	body   []byte
}

func newRespWriter() *respWriter { return &respWriter{hdr: make(http.Header)} }

func (w *respWriter) Header() http.Header { return w.hdr }

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

func (w *respWriter) reset() {
	w.status = 0
	w.body = w.body[:0]
	clear(w.hdr)
}

// elapsedKey starts the one field of a JSON response that differs
// between two identical requests: the server's own timing.
var elapsedKey = []byte(`,"elapsed_us":`)

// hash is the CRC-32C of the body with any trailing elapsed_us field
// cut off, so identical results hash identically.
func (w *respWriter) hash() uint32 {
	b := w.body
	if i := bytes.LastIndex(b, elapsedKey); i >= 0 {
		b = b[:i]
	}
	return crc32.Checksum(b, castagnoli)
}

// reqBody is a request body that can be rewound and sent again.
type reqBody struct{ bytes.Reader }

func (*reqBody) Close() error { return nil }

// request is one prebuilt POST whose body is rewound before each send.
type request struct {
	r    *http.Request
	body *reqBody
	data []byte
}

func newRequest(path string, data []byte) *request {
	rb := &reqBody{}
	r, err := http.NewRequest(http.MethodPost, path, rb)
	if err != nil {
		panic(err) // constant method and path: a bug
	}
	return &request{r: r, body: rb, data: data}
}

// serve sends the request to h and returns how long h took to write
// its last byte.
func (q *request) serve(h http.Handler, w *respWriter) time.Duration {
	q.body.Reset(q.data)
	q.r.ContentLength = int64(len(q.data))
	w.reset()
	start := time.Now()
	h.ServeHTTP(w, q.r)
	return time.Since(start)
}

// noopHandler stands in for the server when the client loop measures
// its own cost: it drains the body and writes a small fixed response.
type noopHandler struct{ buf [512]byte }

func (h *noopHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	for {
		if _, err := r.Body.Read(h.buf[:]); err != nil {
			break
		}
	}
	w.WriteHeader(http.StatusOK)
	w.Write(h.buf[:8])
}

// clientCost is the client loop's own share of one request: allocations and
// bytes allocated while sending a prebuilt request and hashing its
// response, measured against noopHandler.
type clientCost struct {
	Allocs float64
	Bytes  float64
}

func measureClient(reqs []*request) clientCost {
	h := &noopHandler{}
	w := newRespWriter()
	const n = 20000
	for i := 0; i < 100; i++ { // warm the writer's buffers
		reqs[i%len(reqs)].serve(h, w)
	}
	m0 := readMem()
	for i := 0; i < n; i++ {
		reqs[i%len(reqs)].serve(h, w)
		_ = w.hash()
	}
	m1 := readMem()
	return clientCost{
		Allocs: float64(m1.Mallocs-m0.Mallocs) / n,
		Bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / n,
	}
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// settledHeap forces collections until the live heap stops shrinking
// and returns it in bytes. Finalizers queued by one cycle run before
// the next, so releases they trigger are counted.
func settledHeap() uint64 {
	var last uint64 = math.MaxUint64
	for i := 0; i < 4; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond) // let queued finalizers run
		h := readMem().HeapAlloc
		if h >= last {
			return h
		}
		last = h
	}
	return last
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed memory to the kernel and restarts its
// peak-RSS counter, so that peakRSS covers only what follows. It
// reports false where the kernel offers no reset.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSS is the process's peak resident set size in bytes since the
// last resetPeakRSS (VmHWM), or since start where that is unavailable.
func peakRSS() int64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb int64
				if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%d kB", &kb); err == nil {
					return kb << 10
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss << 10 // Linux reports KiB
}

// percentile returns the q-quantile (0<q<1) of samples by the nearest
// rank, but only when at least ten samples lie beyond it; otherwise the
// run is too short to report that percentile and ok is false. It sorts
// samples in place.
func percentile(samples []time.Duration, q float64) (d time.Duration, ok bool) {
	n := len(samples)
	rank := int(math.Ceil(q*float64(n))) - 1 // 0-based nearest rank
	if rank < 0 || n-1-rank < 10 {
		return 0, false
	}
	if !sort.SliceIsSorted(samples, func(i, j int) bool { return samples[i] < samples[j] }) {
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	}
	return samples[rank], true
}

// minSamples is the smallest sample count percentile accepts for q.
func minSamples(q float64) int {
	for n := 1; ; n++ {
		rank := int(math.Ceil(q*float64(n))) - 1
		if rank >= 0 && n-1-rank >= 10 {
			return n
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s / time.Duration(len(ds))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// checks counts failed correctness checks and keeps the first.
type checks struct {
	failed int
	first  error
}

func (c *checks) fail(format string, args ...any) {
	c.failed++
	if c.first == nil {
		c.first = fmt.Errorf(format, args...)
	}
}
