package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/catalog"
	"repro/internal/cliutil"
	"repro/internal/corpus"
	"repro/internal/goddag"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/xpath"
	"repro/internal/xquery"
)

// read-hot: one closed-loop client on warm, fully resident documents.
// The mix is the E4/E5 axis queries plus one FLWOR in json, text and
// count formats; see README.md for how the weights were chosen.
const (
	readHotDocs  = 4
	readHotWords = 8000
	flagship     = `for $d in //dmg for $w in $d/overlapping::w return concat(name($d), ' damages ', string($w))`
)

// readHotMix weights, per document and pass, sum to 40. Sorted by cost
// on a 2-core host the classes fall into tiers: under 0.1 ms (32.5%),
// //line/covered::w counts at about 0.75 ms (the next 35%, where p50
// lands), 0.85-2.5 ms (12.5%), and the //w and //w[7]/covering::* json
// reads at 3-10 ms (the last 20%, where p90 lands), whose costs overlap
// — so neither percentile sits at a jump between tiers.
var readHotMix = []queryClass{
	{query: "count(//w)", format: "count", weight: 3},
	{query: "count(//dmg/overlapping::w)", format: "count", weight: 3},
	{query: "//dmg/overlapping::w", format: "json", weight: 3},
	{query: "//dmg/overlapping::w", format: "text", weight: 2},
	{query: flagship, flwor: true, format: "json", weight: 1},
	{query: flagship, flwor: true, format: "text", weight: 1},
	{query: "count(//s/descendant::w)", format: "count", weight: 1},
	{query: "//line/covered::w", format: "count", weight: 13},
	{query: "count(//w/ancestor::*)", format: "count", weight: 2},
	{query: "//line/covered::w", format: "text", weight: 3},
	{query: "//w", format: "json", weight: 4},
	{query: "//w[7]/covering::*", format: "json", weight: 4},
}

// crossCheckEvery is the sampling interval, in traced reads, of the
// comparison against the server's own "trace": true breakdown. It is
// prime, so that over several passes the samples cover the whole mix.
const crossCheckEvery = 31

// crossCheckReps is how many times each side of a cross-check runs.
const crossCheckReps = 3

// crossCheckTolerance bounds how far the outside-timed read stages may
// differ from the server's own breakdown, as a share of the latter. It
// is wider than stageSumTolerance: the two sides time different reads,
// and on the reference host the collector's share of a large json read
// moved the error between 0.10 and 0.17 from run to run.
const crossCheckTolerance = 0.4

// crossCheckMinSamples is the fewest cross-checked reads whose total is
// held to crossCheckTolerance; a traced run of --seconds 20 takes about
// 110.
const crossCheckMinSamples = 30

type readHot struct {
	base
	cat    *catalog.Catalog
	h      http.Handler
	w      *respWriter
	comp   *composer
	mix    []queryClass
	seq    []readOp   // one pass, shuffled by seed
	traced []*request // "trace": true twin of each seq entry

	// traced-phase accumulators
	results, xpathResults int
	visited               int64
	bytesOut              int64
	lockWait              time.Duration
	outside, inside       time.Duration
	crossChecked          int
	stats0                catalog.Stats
}

func newReadHot(seed int64) workload {
	return &readHot{base: base{seed: seed}, mix: readHotMix}
}

func (r *readHot) setup(dir string) error {
	r.dir = dir
	r.fs = &countingFS{}
	oracle := map[string]*goddag.Document{}
	var ids []string
	for i := 0; i < readHotDocs; i++ {
		cfg := corpus.DefaultConfig(readHotWords)
		cfg.Seed = r.seed*1000 + int64(i)
		g, err := corpus.Generate(cfg)
		if err != nil {
			return err
		}
		id := fmt.Sprintf("doc%d", i)
		if err := writeV3(filepath.Join(dir, id+".gdag"), g); err != nil {
			return err
		}
		oracle[id] = g
		ids = append(ids, id)
		r.content += int64(g.Stats().ContentLen)
	}
	cat, err := catalog.Open(dir, catalog.Options{FS: r.fs})
	if err != nil {
		return err
	}
	r.cat = cat
	r.h = server.New(cat, server.Config{}).Handler()
	r.w = newRespWriter()
	r.comp = newComposer(cat)
	ops, traced, err := prepareReads(r.h, r.w, oracle, ids, r.mix)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	perm := rng.Perm(len(ops))
	r.seq = make([]readOp, len(ops))
	r.traced = make([]*request, len(ops))
	for i, j := range perm {
		r.seq[i], r.traced[i] = ops[j], traced[j]
	}
	// Warm-up: one pass, so every column the mix touches is resident.
	return r.pass(nil)
}

// prepareReads builds the weighted read ops of mix over docs, checking
// each against an oracle evaluated on the generator's heap document and
// recording the hash of the server's answer. It returns the ops of one
// pass (unshuffled) and a "trace": true twin of each.
func prepareReads(h http.Handler, w *respWriter, oracle map[string]*goddag.Document, ids []string, mix []queryClass) ([]readOp, []*request, error) {
	var ops []readOp
	var traced []*request
	for ci, q := range mix {
		for _, id := range ids {
			req := newRequest("/query", q.body(id, false))
			req.serve(h, w)
			if w.status != http.StatusOK {
				return nil, nil, fmt.Errorf("%s on %s: status %d: %s", q, id, w.status, w.body)
			}
			if err := checkOracle(oracle[id], q, w.body); err != nil {
				return nil, nil, fmt.Errorf("%s on %s: %w", q, id, err)
			}
			want := w.hash()
			op := readOp{doc: id, class: ci, req: req, want: want}
			jq := q
			jq.format = "json"
			tr := newRequest("/query", jq.body(id, true))
			for k := 0; k < q.weight; k++ {
				ops = append(ops, op)
				traced = append(traced, tr)
			}
		}
	}
	return ops, traced, nil
}

// checkOracle compares a server response with the same query evaluated
// by the materializing evaluator on a heap-built document and rendered
// by the cliutil writers, or by encoding/json for json responses.
func checkOracle(g *goddag.Document, q queryClass, body []byte) error {
	var want bytes.Buffer
	if q.flwor {
		vals, err := xquery.MustCompile(q.query).Eval(g)
		if err != nil {
			return err
		}
		if q.format != "json" {
			cliutil.WriteFLWOR(&want, vals, q.format == "count", maxResults)
			return sameBytes(body, want.Bytes())
		}
		enc := make([]cliutil.ValueJSON, len(vals))
		for i, v := range vals {
			enc[i] = cliutil.EncodeValue(v, maxResults)
		}
		var resp server.QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if len(enc) == 0 && len(resp.Results) == 0 {
			return nil // "results" is omitted when no tuple survives
		}
		return sameJSON(resp.Results, enc)
	}
	v, err := xpath.MustCompile(q.query).Eval(g)
	if err != nil {
		return err
	}
	if q.format != "json" {
		cliutil.WriteValue(&want, v, q.format == "count", maxResults)
		return sameBytes(body, want.Bytes())
	}
	var resp server.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	return sameJSON(resp.Result, cliutil.EncodeValue(v, maxResults))
}

func sameBytes(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("response differs from the oracle (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}

func sameJSON(got, want any) error {
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	return sameBytes(g, w)
}

func (r *readHot) run(passes int, tr *tracer) error {
	if tr != nil {
		r.stats0 = r.cat.Stats()
	}
	return repeat(passes, func() error { return r.pass(tr) })
}

// pass sends one pass of the sequence: through the handler, or with a
// tracer through the composed public calls.
func (r *readHot) pass(tr *tracer) error {
	for i, op := range r.seq {
		r.attempted++
		if tr == nil {
			d := op.req.serve(r.h, r.w)
			if r.w.status != http.StatusOK || r.w.hash() != op.want {
				r.chk.fail("read %s on %s: status %d, hash mismatch=%v", r.mix[op.class], op.doc, r.w.status, r.w.hash() != op.want)
				continue
			}
			r.lat = append(r.lat, d)
			r.done++
			continue
		}
		q := r.mix[op.class]
		id := tr.op()
		start := time.Now()
		root := tr.begin("read", id, -1)
		rs, err := r.comp.read(tr, id, root, op.doc, q)
		tr.end(root)
		lat := time.Since(start)
		if err != nil {
			r.chk.fail("traced read %s on %s: %v", q, op.doc, err)
			continue
		}
		if q.format != "json" && crc32.Checksum(r.comp.out.Bytes(), castagnoli) != op.want {
			r.chk.fail("traced read %s on %s differs from the handler's", q, op.doc)
			continue
		}
		r.lat = append(r.lat, lat)
		r.done++
		r.results += rs.results
		r.bytesOut += int64(rs.bytes)
		r.lockWait += rs.lockWait
		if !q.flwor {
			r.xpathResults += rs.results
			r.visited += rs.visited
		}
		if !tr.off && r.attempted%crossCheckEvery == 0 && !q.flwor {
			out, in, err := r.comp.crossCheck(r.h, r.w, r.traced[i], op.doc, q)
			if err != nil {
				r.chk.fail("cross-check: %v", err)
				continue
			}
			r.outside += out
			r.inside += in
			r.crossChecked++
		}
	}
	return nil
}

func (r *readHot) reset() {
	r.base.reset()
	r.results, r.xpathResults, r.visited, r.bytesOut = 0, 0, 0, 0
	r.lockWait, r.outside, r.inside, r.crossChecked = 0, 0, 0, 0
}

func (r *readHot) verify() {}

func (r *readHot) clientRequests() []*request {
	reqs := make([]*request, len(r.seq))
	for i, op := range r.seq {
		reqs[i] = op.req
	}
	return reqs
}

func (r *readHot) layers(tr *tracer, m metrics) time.Duration {
	lt := tr.times()
	n := lt.n["read"]
	readLayers(m, lt, n)
	m.setLayer("catalog.lock_wait_ms", perMS(r.lockWait, n))
	m.setLayer("xpath.compile_ms", compileMS(r.mix))
	if r.xpathResults > 0 {
		m.setLayer("xpath.visited_per_result", float64(r.visited)/float64(r.xpathResults))
	}
	if r.results > 0 {
		m.setLayer("cliutil.bytes_per_result", float64(r.bytesOut)/float64(r.results))
	}
	if r.inside > 0 {
		chk := &r.chk
		if r.crossChecked < crossCheckMinSamples {
			chk = nil // too few samples to hold to the tolerance
		}
		traceError(m, chk, "trace.crosscheck_error", r.outside, r.inside, crossCheckTolerance)
	}
	catalogLayers(m, r.cat, r.stats0, n)
	return (r.lockWait + evalEncode(lt)) / time.Duration(n)
}

// readLayers sets the per-op evaluation and encoding times of n traced
// reads.
func readLayers(m metrics, lt layerTimes, n int) {
	m.setLayer("xpath.eval_ms", perMS(lt.total["xpath.eval"], n))
	m.setLayer("xquery.eval_ms", perMS(lt.total["xquery.eval"], n))
	m.setLayer("cliutil.encode_ms", perMS(lt.total["cliutil.encode"], n))
}

// evalEncode is the total evaluation and encoding time of the reads lt
// holds: every stage of a read after its view lock is granted.
func evalEncode(lt layerTimes) time.Duration {
	return lt.total["xpath.eval"] + lt.total["xquery.eval"] + lt.total["cliutil.encode"]
}

// compileMS is the mean cost of compiling one XPath query of the mix
// without the server's compiled-query cache.
func compileMS(mix []queryClass) float64 {
	const reps = 200
	var qs []string
	for _, q := range mix {
		if !q.flwor {
			qs = append(qs, q.query)
		}
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		for _, q := range qs {
			if _, err := xpath.Compile(q); err != nil {
				return 0
			}
		}
	}
	return ms(time.Since(start)) / float64(reps*len(qs))
}

// catalogLayers sets the catalog and store residency metrics over the
// traced phase: hit ratio and evictions since s0, and, after forced
// collections, the bytes the catalog accounts against the live heap
// and the mapped bytes no resident document explains.
func catalogLayers(m metrics, cat *catalog.Catalog, s0 catalog.Stats, ops int) {
	s1 := cat.Stats()
	hits, loads := s1.Hits-s0.Hits, s1.Loads-s0.Loads
	if hits+loads > 0 {
		m.setLayer("catalog.hit_ratio", float64(hits)/float64(hits+loads))
	}
	if ops > 0 {
		m.setLayer("catalog.evictions_per_op", float64(s1.Evictions-s0.Evictions)/float64(ops))
	}
	heap := settledHeap()
	s1 = cat.Stats()
	m.setLayer("catalog.accounted_ratio", float64(s1.Bytes)/float64(heap))
	var resident int64
	for _, d := range s1.Docs {
		if d.Resident && d.Mapped && len(d.Paths) == 1 {
			if fi, err := os.Stat(d.Paths[0]); err == nil {
				resident += fi.Size()
			}
		}
	}
	mapped := store.MappedBytes()
	m.setLayer("store.mapped_mb", float64(mapped)/(1<<20))
	m.setLayer("store.unreleased_mapped_mb", float64(mapped-resident)/(1<<20))
}
