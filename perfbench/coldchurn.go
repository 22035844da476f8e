package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/catalog"
	"repro/internal/cliutil"
	"repro/internal/corpus"
	"repro/internal/faultfs"
	"repro/internal/goddag"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/xpath"
)

// cold-churn: one closed-loop client counts words in many small v3
// documents, Zipf-skewed, under a catalog budget several times smaller
// than the corpus, so store opens, first-touch materialization and LRU
// eviction dominate.
const (
	churnDocs   = 400
	churnWords  = 100
	churnPass   = 500 // ops per pass
	churnZipfS  = 1.1 // Zipf exponent of the document choice
	churnBudget = 5   // the corpus's touched bytes over the catalog budget
	churnQuery  = "count(//w)"

	// churnMaxPasses caps a run whatever -seconds asks for. Evicted v3
	// documents are never released (see README.md), so memory grows with
	// every cold load, about 300 of them per pass.
	churnMaxPasses = 48
)

type coldChurn struct {
	base
	cat   *catalog.Catalog
	h     http.Handler
	w     *respWriter
	comp  *composer
	ids   []string
	reqs  []*request // per document
	wants []uint32   // per document: hash of the oracle's answer
	seq   []int      // document of each op in a pass

	// traced-phase accumulators
	stats0                        catalog.Stats
	fs0                           fsCounts
	cold, hot                     int
	loadTime, openTime, touchTime time.Duration
	hotEval, hotWait              time.Duration
	touched                       int64
}

func newColdChurn(seed int64) workload { return &coldChurn{base: base{seed: seed}} }

// writeV3 encodes g in the v3 store format to path. Corpus files need
// no durability, so this skips the fsyncs of store.Save.
func writeV3(path string, g *goddag.Document) error {
	var buf bytes.Buffer
	if err := store.EncodeV3(&buf, g); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func (c *coldChurn) setup(dir string) error {
	c.dir = dir
	c.fs = &countingFS{}
	q := xpath.MustCompile(churnQuery)
	var probe string
	for i := 0; i < churnDocs; i++ {
		cfg := corpus.DefaultConfig(churnWords)
		cfg.Seed = c.seed*100000 + int64(i)
		g, err := corpus.Generate(cfg)
		if err != nil {
			return err
		}
		id := fmt.Sprintf("c%04d", i)
		path := filepath.Join(dir, id+".gdag")
		if err := writeV3(path, g); err != nil {
			return err
		}
		v, err := q.Eval(g)
		if err != nil {
			return err
		}
		var want bytes.Buffer
		cliutil.WriteValue(&want, v, true, 0)
		c.ids = append(c.ids, id)
		c.wants = append(c.wants, crc32.Checksum(want.Bytes(), castagnoli))
		c.reqs = append(c.reqs, newRequest("/query", queryClass{query: churnQuery, format: "count"}.body(id, false)))
		c.content += int64(g.Stats().ContentLen)
		probe = path
	}
	perDoc, err := touchedBytes(probe, q)
	if err != nil {
		return err
	}
	if err := emptyLogs(dir, c.ids); err != nil {
		return err
	}
	cat, err := catalog.Open(dir, catalog.Options{FS: c.fs, Budget: perDoc * churnDocs / churnBudget})
	if err != nil {
		return err
	}
	c.cat = cat
	c.h = server.New(cat, server.Config{}).Handler()
	c.w = newRespWriter()
	c.comp = newComposer(cat)

	c.seq = zipfPass(rand.New(rand.NewSource(c.seed)))
	// Warm-up: every document once, checking it against the oracle, then
	// one pass.
	for d := range c.ids {
		c.serve(d)
	}
	if c.chk.failed > 0 {
		return c.chk.first
	}
	return c.pass(nil)
}

// zipfPass returns the documents of one pass. Each popularity rank gets
// exactly its Zipf share of the pass (largest remainders rounded up), so
// every seed sends the same mix; the seed picks which document holds
// each rank and the order of the ops.
func zipfPass(rng *rand.Rand) []int {
	weights := make([]float64, churnDocs)
	var total float64
	for k := range weights {
		weights[k] = 1 / math.Pow(float64(k+1), churnZipfS)
		total += weights[k]
	}
	counts := make([]int, churnDocs)
	rems := make([]int, churnDocs)
	left := churnPass
	for k, w := range weights {
		counts[k] = int(w / total * churnPass)
		left -= counts[k]
		rems[k] = k
	}
	frac := func(k int) float64 { return weights[k]/total*churnPass - float64(counts[k]) }
	sort.SliceStable(rems, func(i, j int) bool { return frac(rems[i]) > frac(rems[j]) })
	for _, k := range rems[:left] {
		counts[k]++
	}
	docOf := rng.Perm(churnDocs)
	seq := make([]int, 0, churnPass)
	for k, n := range counts {
		for ; n > 0; n-- {
			seq = append(seq, docOf[k])
		}
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// emptyLogs gives each document in dir the empty write-ahead log its
// first load would create, as if the corpus had been served before. A
// load creates a missing log with an fsync, and on a shared disk the
// latency of hundreds of those decided the set-up time. The header is
// taken from one log created by store.OpenWAL; the copies are written
// without fsync, like the corpus.
func emptyLogs(dir string, ids []string) error {
	first := filepath.Join(dir, ids[0]+".wal")
	wal, _, err := store.OpenWAL(faultfs.OS, first)
	if err != nil {
		return err
	}
	if err := wal.Close(); err != nil {
		return err
	}
	hdr, err := os.ReadFile(first)
	if err != nil {
		return err
	}
	for _, id := range ids[1:] {
		if err := os.WriteFile(filepath.Join(dir, id+".wal"), hdr, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// touchedBytes is the resident footprint one query leaves on a freshly
// opened mapped document: what the catalog charges against its budget.
func touchedBytes(path string, q *xpath.Query) (int64, error) {
	g, m, err := store.OpenMappedDoc(faultfs.OS, path)
	if err != nil {
		return 0, err
	}
	defer m.Close()
	if _, err := q.Eval(g); err != nil {
		return 0, err
	}
	n, _ := g.ResidentFootprint()
	return n, nil
}

// serve sends the read of document d through the handler and checks it.
func (c *coldChurn) serve(d int) {
	c.attempted++
	lat := c.reqs[d].serve(c.h, c.w)
	if c.w.status != http.StatusOK || c.w.hash() != c.wants[d] {
		c.chk.fail("count on %s: status %d: %q", c.ids[d], c.w.status, c.w.body)
		return
	}
	c.lat = append(c.lat, lat)
	c.done++
}

func (c *coldChurn) run(passes int, tr *tracer) error {
	if tr != nil {
		c.stats0, c.fs0 = c.cat.Stats(), c.fs.counts()
	}
	return repeat(passes, func() error { return c.pass(tr) })
}

func (c *coldChurn) pass(tr *tracer) error {
	for _, d := range c.seq {
		if tr == nil {
			c.serve(d)
			continue
		}
		c.tracedOp(tr, d)
	}
	return nil
}

// tracedOp composes one read from the public calls and splits a cold
// load by the filesystem calls it made: the catalog's load is the time
// before the read's closure ran, the store's open the part of it from
// the mapping on, less the write-ahead-log work.
func (c *coldChurn) tracedOp(tr *tracer, d int) {
	c.attempted++
	id := tr.op()
	c.fs.startRecording()
	start := time.Now()
	root := tr.begin("read", id, -1)
	rs, err := c.comp.read(tr, id, root, c.ids[d], queryClass{query: churnQuery, format: "count"})
	tr.end(root)
	lat := time.Since(start)
	events := c.fs.takeEvents()
	if err != nil {
		c.chk.fail("traced count on %s: %v", c.ids[d], err)
		return
	}
	if crc32.Checksum(c.comp.out.Bytes(), castagnoli) != c.wants[d] {
		c.chk.fail("traced count on %s differs from the oracle", c.ids[d])
		return
	}
	c.lat = append(c.lat, lat)
	c.done++
	if tr.off {
		return
	}
	lt := tr.spans[rs.view+1:] // the spans the composer opened inside the view
	var eval time.Duration
	for _, s := range lt {
		if s.Name == "xpath.eval" {
			eval += time.Duration(s.End - s.Start)
		}
	}
	var mapStart, walStart, walEnd time.Time
	for _, e := range events {
		switch {
		case e.op == faultfs.OpMap && mapStart.IsZero():
			mapStart = e.start
		case e.kind == kindWAL:
			if walStart.IsZero() {
				walStart = e.start
			}
			walEnd = e.end
		}
	}
	if mapStart.IsZero() {
		c.hot++
		c.hotEval += eval
		c.hotWait += rs.lockWait
		return
	}
	c.cold++
	viewStart := tr.t0.Add(time.Duration(tr.spans[rs.view].Start))
	fnEntry := viewStart.Add(rs.lockWait)
	load := tr.add("catalog.load", id, rs.view, viewStart, fnEntry)
	open := fnEntry.Sub(mapStart) - walEnd.Sub(walStart)
	tr.add("store.open", id, load, mapStart, mapStart.Add(open))
	c.loadTime += rs.lockWait
	c.openTime += open
	c.touchTime += eval
	if ds, ok := c.cat.Doc(c.ids[d]); ok {
		c.touched += ds.Bytes
	}
}

func (c *coldChurn) reset() {
	c.base.reset()
	c.cold, c.hot = 0, 0
	c.loadTime, c.openTime, c.touchTime, c.hotEval, c.hotWait, c.touched = 0, 0, 0, 0, 0, 0
}

func (c *coldChurn) verify() {}

func (c *coldChurn) clientRequests() []*request { return c.reqs }

func (c *coldChurn) layers(tr *tracer, m metrics) time.Duration {
	lt := tr.times()
	n := lt.n["read"]
	m.setLayer("cliutil.encode_ms", perMS(lt.total["cliutil.encode"], n))
	m.setLayer("xpath.eval_ms", perMS(c.hotEval, c.hot))
	m.setLayer("catalog.load_ms", perMS(c.loadTime, c.cold))
	m.setLayer("store.open_ms", perMS(c.openTime, c.cold))
	m.setLayer("goddag.first_touch_ms", perMS(c.touchTime, c.cold))
	if c.cold > 0 {
		m.setLayer("goddag.touch_kb_per_load", float64(c.touched)/float64(c.cold)/1024)
	}
	fc := c.fs.counts().sub(c.fs0)
	if fc.Maps > 0 {
		m.setLayer("faultfs.map_kb_per_load", float64(fc.MapBytes)/float64(fc.Maps)/1024)
	}
	m.setLayer("xpath.compile_ms", compileMS([]queryClass{{query: churnQuery}}))
	catalogLayers(m, c.cat, c.stats0, n)
	// A read's stages: the wait for its view (a cold load on a miss),
	// then evaluation and encoding.
	return (c.loadTime + c.hotWait + evalEncode(lt)) / time.Duration(n)
}
