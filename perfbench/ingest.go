package main

import (
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/corpus"
	"repro/internal/faultfs"
	"repro/internal/goddag"
	"repro/internal/sacx"
	"repro/internal/store"
	"repro/internal/xmlscan"
)

// ingest: one client turns distributed XML documents into durable .gdag
// files with sacx.Build and store.SaveFS, as cxparse -save does. The
// documents are a fixed grid of sizes, hierarchy counts and overlap
// densities; the seed picks their text and the order of the pass.
var (
	ingestWords     = []int{500, 1000, 2000, 4000, 8000}
	ingestHiers     = []int{2, 5, 8}
	ingestDensities = []float64{0.1, 0.5, 0.9}
)

// ingestMultibyteEvery makes every n-th document of the grid use
// corpus.MultibyteVocabulary.
const ingestMultibyteEvery = 3

type ingestDoc struct {
	sources []sacx.Source
	stats   goddag.Stats
	out     string
}

type ingest struct {
	base
	docs  []ingestDoc
	order []int // one pass
}

func newIngest(seed int64) workload { return &ingest{base: base{seed: seed}} }

func (in *ingest) setup(dir string) error {
	in.dir = dir
	in.fs = &countingFS{}
	i := 0
	for _, w := range ingestWords {
		for _, h := range ingestHiers {
			for _, dens := range ingestDensities {
				cfg := corpus.DefaultConfig(w)
				cfg.Seed = in.seed*1000 + int64(i)
				cfg.Hierarchies = h
				cfg.OverlapDensity = dens
				if i%ingestMultibyteEvery == 0 {
					cfg.Vocabulary = corpus.MultibyteVocabulary
				}
				src, err := corpus.GenerateSources(cfg)
				if err != nil {
					return err
				}
				g, err := sacx.Build(src)
				if err != nil {
					return err
				}
				st := g.Stats()
				in.content += int64(st.ContentLen)
				in.docs = append(in.docs, ingestDoc{
					sources: src, stats: st,
					out: filepath.Join(dir, fmt.Sprintf("in%02d.gdag", i)),
				})
				i++
			}
		}
	}
	in.order = rand.New(rand.NewSource(in.seed)).Perm(len(in.docs))
	return nil
}

func (in *ingest) run(passes int, tr *tracer) error {
	return repeat(passes, func() error {
		for _, d := range in.order {
			in.attempted++
			var lat time.Duration
			var err error
			if tr == nil {
				lat, err = in.ingestOne(&in.docs[d])
			} else {
				lat, err = in.tracedOne(tr, &in.docs[d])
			}
			if err != nil {
				in.chk.fail("ingest %s: %v", in.docs[d].out, err)
				continue
			}
			in.lat = append(in.lat, lat)
			in.done++
		}
		return nil
	})
}

// ingestOne parses d and saves it durably.
func (in *ingest) ingestOne(d *ingestDoc) (time.Duration, error) {
	start := time.Now()
	g, err := sacx.Build(d.sources)
	if err != nil {
		return 0, err
	}
	if err := store.SaveFS(in.fs, d.out, g); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// tracedOne is ingestOne with spans, split at the filesystem calls of
// the save. It then times the tokenizer and the SACX merge alone on the
// same sources, under a separate root, so the bulk build's share is the
// build minus the stream.
func (in *ingest) tracedOne(tr *tracer, d *ingestDoc) (time.Duration, error) {
	id := tr.op()
	start := time.Now()
	root := tr.begin("ingest", id, -1)
	s := tr.begin("sacx.build", id, root)
	g, err := sacx.Build(d.sources)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	in.fs.startRecording()
	s = tr.begin("store.save", id, root)
	err = store.SaveFS(in.fs, d.out, g)
	tr.end(s)
	events := in.fs.takeEvents()
	tr.end(root)
	if err != nil {
		return 0, err
	}
	var createEnd, tmpSync time.Time
	for _, ev := range events {
		switch {
		case ev.op == faultfs.OpCreate && createEnd.IsZero():
			createEnd = ev.end
		case ev.kind == kindGdag && ev.op == faultfs.OpSync && tmpSync.IsZero():
			tmpSync = ev.start
		}
	}
	lat := time.Since(start)
	if tr.off {
		return lat, nil
	}
	tr.add("store.encode", id, s, createEnd, tmpSync)

	parts := tr.begin("parts", id, -1)
	s = tr.begin("xmlscan.scan", id, parts)
	for _, src := range d.sources {
		if err := scanAll(src.Data); err != nil {
			return 0, err
		}
	}
	tr.end(s)
	s = tr.begin("sacx.stream", id, parts)
	st, err := sacx.NewStream(d.sources, sacx.Options{})
	if err == nil {
		for {
			if _, err = st.Next(); err != nil {
				break
			}
		}
	}
	tr.end(s)
	tr.end(parts)
	if err != io.EOF {
		return 0, err
	}
	return lat, nil
}

// scanAll tokenizes one XML source to its end.
func scanAll(data []byte) error {
	sc := xmlscan.New(data, xmlscan.Options{})
	var tok xmlscan.Token
	for {
		if err := sc.NextInto(&tok); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

func (in *ingest) reset() { in.base.reset() }

// verify reopens every output mapped, validates it in full and compares
// its statistics with the build of the same sources during setup.
func (in *ingest) verify() {
	c := &in.chk
	for _, d := range in.docs {
		g, m, err := store.OpenMappedDoc(faultfs.OS, d.out)
		if err != nil {
			c.fail("reopen %s: %v", d.out, err)
			continue
		}
		if err := m.Validate(); err != nil {
			c.fail("validate %s: %v", d.out, err)
		} else if st := g.Stats(); st != d.stats {
			c.fail("%s: stats %+v, built %+v", d.out, st, d.stats)
		}
		m.Close()
	}
}

func (in *ingest) clientRequests() []*request { return nil }

func (in *ingest) layers(tr *tracer, m metrics) time.Duration {
	lt := tr.times()
	n := lt.n["ingest"]
	build, stream := perMS(lt.total["sacx.build"], n), perMS(lt.total["sacx.stream"], n)
	m.setLayer("sacx.build_ms", build)
	m.setLayer("sacx.stream_ms", stream)
	m.setLayer("goddag.bulk_ms", build-stream)
	m.setLayer("xmlscan.scan_ms", perMS(lt.total["xmlscan.scan"], n))
	m.setLayer("store.save_ms", perMS(lt.total["store.save"], n))
	m.setLayer("store.encode_ms", perMS(lt.total["store.encode"], n))
	m.setLayer("store.mapped_mb", float64(store.MappedBytes())/(1<<20))
	return (lt.total["sacx.build"] + lt.total["store.save"]) / time.Duration(n)
}
