package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/store"
)

// opsDigest hashes everything a workload will send, in order: the
// request bodies of one pass, or for ingest the sources and the order.
func opsDigest(t *testing.T, w workload) [32]byte {
	t.Helper()
	h := sha256.New()
	switch w := w.(type) {
	case *readHot:
		for _, op := range w.seq {
			h.Write(op.req.data)
		}
	case *coldChurn:
		for _, d := range w.seq {
			h.Write(w.reqs[d].data)
		}
	case *editDurable:
		for _, b := range w.batches {
			h.Write(b.req.data)
		}
		for _, op := range w.reads {
			h.Write(op.req.data)
		}
	case *ingest:
		for _, d := range w.order {
			for _, src := range w.docs[d].sources {
				h.Write([]byte(src.Hierarchy))
				h.Write(src.Data)
			}
		}
	default:
		t.Fatalf("no digest for %T", w)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestSameSeedSameOps(t *testing.T) {
	for _, name := range sortedNames() {
		t.Run(name, func(t *testing.T) {
			digest := func(seed int64) [32]byte {
				w := workloads[name].mk(seed)
				if err := w.setup(t.TempDir()); err != nil {
					t.Fatal(err)
				}
				return opsDigest(t, w)
			}
			a, b, c := digest(7), digest(7), digest(8)
			if a != b {
				t.Error("the same seed produced different op sequences")
			}
			if a == c {
				t.Error("different seeds produced the same op sequence")
			}
		})
	}
}

func TestPercentileSampleRule(t *testing.T) {
	if got := minSamples(0.50); got != 20 {
		t.Errorf("minSamples(0.50) = %d, want 20", got)
	}
	if got := minSamples(0.90); got != 100 {
		t.Errorf("minSamples(0.90) = %d, want 100", got)
	}
	samples := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[n-1-i] = time.Duration(i + 1) // reversed: percentile sorts
		}
		return s
	}
	if _, ok := percentile(samples(99), 0.90); ok {
		t.Error("p90 of 99 samples accepted: only 9 lie beyond it")
	}
	if d, ok := percentile(samples(100), 0.90); !ok || d != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", d, ok)
	}
	if d, ok := percentile(samples(20), 0.50); !ok || d != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10, true", d, ok)
	}
}

// passWork is a workload whose every pass completes perPass ops of
// latency 1..perPass.
type passWork struct {
	base
	perPass int
}

func (p *passWork) setup(string) error { return nil }
func (p *passWork) run(passes int, _ *tracer) error {
	for ; passes > 0; passes-- {
		for i := 1; i <= p.perPass; i++ {
			p.lat = append(p.lat, time.Duration(i))
			p.done++
		}
	}
	return nil
}
func (p *passWork) verify()                               {}
func (p *passWork) clientRequests() []*request            { return nil }
func (p *passWork) layers(*tracer, metrics) time.Duration { return 0 }

func TestMeasureWindows(t *testing.T) {
	// 40 ops a pass: a p90 needs 100 samples, so windows of three passes,
	// and the seventh pass joins the second window.
	wins, err := measureWindows(&passWork{perPass: 40}, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 2 || len(wins[0].lat) != 120 || len(wins[1].lat) != 160 || wins[1].ops != 160 {
		t.Fatalf("windows of %d and %d samples, want 120 and 160", len(wins[0].lat), len(wins[len(wins)-1].lat))
	}
	if tm := fastQuarter(wins); tm.p50 != 20 || tm.p90 != 36 {
		t.Errorf("p50 %v, p90 %v; want 20, 36", tm.p50, tm.p90)
	}
	if _, err := measureWindows(&passWork{perPass: 40}, 2, 0); err == nil {
		t.Error("80 samples gave a window")
	}
}

func TestCountingFSWALAppend(t *testing.T) {
	cfs := &countingFS{}
	path := filepath.Join(t.TempDir(), "d.wal")
	w, _, err := store.OpenWAL(cfs, path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	opened := cfs.counts()
	if opened.WALBytes != store.WALHeaderLen || opened.Syncs != 1 {
		t.Fatalf("opening a fresh log: %d bytes, %d syncs; want %d, 1", opened.WALBytes, opened.Syncs, store.WALHeaderLen)
	}
	payload := bytes.Repeat([]byte("x"), 200)
	if err := w.Append(store.RecordOps, 42, payload); err != nil {
		t.Fatal(err)
	}
	got := cfs.counts().sub(opened)
	// kind + pre-state fingerprint + uvarint length + payload + CRC
	want := int64(1 + 4 + binary.PutUvarint(make([]byte, binary.MaxVarintLen64), 200) + 200 + 4)
	if got.WALBytes != want || got.Syncs != 1 || got.GdagBytes != 0 || got.Renames != 0 {
		t.Errorf("one append: %+v; want %d WAL bytes and 1 sync", got, want)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != store.WALHeaderLen+want {
		t.Errorf("log on disk: %v, %v; want %d bytes", fi.Size(), err, store.WALHeaderLen+want)
	}
}

// TestSmoke runs each workload briefly, untraced and traced, and
// requires every check to pass and every layer metric to be reported.
func TestSmoke(t *testing.T) {
	for _, name := range sortedNames() {
		t.Run(name, func(t *testing.T) {
			w := workloads[name].mk(1)
			if err := w.setup(t.TempDir()); err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			for _, phase := range []*tracer{nil, {t0: tr.t0, off: true}, tr} {
				w.reset()
				if err := w.run(1, phase); err != nil {
					t.Fatal(err)
				}
				if done, _ := w.counts(); done == 0 || len(w.principal()) == 0 {
					t.Fatalf("phase %v completed no ops", phase)
				}
			}
			m := metrics{}
			zeroLayers(m)
			if stages := w.layers(tr, m); stages <= 0 {
				t.Errorf("stage sum %v", stages)
			}
			if len(m) != len(layerMetrics) {
				t.Errorf("%d per-layer metrics, want %d", len(m), len(layerMetrics))
			}
			w.verify()
			c := w.checks()
			if c.failed > 0 {
				t.Fatalf("%d checks failed, first: %v", c.failed, c.first)
			}
			if disk, content, err := w.storedBytes(); err != nil || disk <= 0 || content <= 0 {
				t.Errorf("stored bytes %d / %d: %v", disk, content, err)
			}
		})
	}
}

// TestBenchmarkJSON pins BENCHMARK.json, one directory up, to the
// metric lists the runs print and to the workloads they accept.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var b struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := fmt.Sprint(names), fmt.Sprint(sortedNames()); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark runs %s", got, want)
	}
	same := func(kind string, got []named, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), printed %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndMetrics)
	same("per_layer", b.PerLayer, layerMetrics)
}
