// Benchmarks regenerating the reproduction's experiments (E3–E7 parsing,
// querying, validation, and conversion; A1/A2 ablations) under
// `go test -bench`. They are the experiments' only form: run one with
// e.g. `go test -run '^$' -bench BenchmarkSACXParse -benchmem -count 5`
// and compare medians. E6 reports its veto share and E7 its size
// overhead as extra benchmark metrics. The end-to-end serving, editing
// and ingest workloads are measured by perfbench (BENCHMARK.json).
package repro_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/corpus"
	"repro/internal/document"
	"repro/internal/drivers"
	"repro/internal/dtd"
	"repro/internal/goddag"
	"repro/internal/sacx"
	"repro/internal/store"
	"repro/internal/validate"
	"repro/internal/xpath"
)

// ---- E3: SACX parsing -------------------------------------------------

func BenchmarkSACXParse(b *testing.B) {
	for _, words := range []int{1000, 8000} {
		for _, h := range []int{1, 2, 4, 8} {
			cfg := corpus.DefaultConfig(words)
			cfg.Hierarchies = h
			srcs, err := corpus.GenerateSources(cfg)
			if err != nil {
				b.Fatal(err)
			}
			total := 0
			for _, s := range srcs {
				total += len(s.Data)
			}
			b.Run(fmt.Sprintf("words=%d/h=%d", words, h), func(b *testing.B) {
				b.SetBytes(int64(total))
				for i := 0; i < b.N; i++ {
					if _, err := sacx.Build(srcs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkSACXParseDensity(b *testing.B) {
	for _, d := range []float64{0.1, 0.5, 0.9} {
		cfg := corpus.DefaultConfig(4000)
		cfg.OverlapDensity = d
		srcs, err := corpus.GenerateSources(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("density=%.1f", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sacx.Build(srcs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E4: overlap queries, GODDAG vs baselines -------------------------

func e4Fixtures(b *testing.B, words, hierarchies int, density float64) (*goddag.Document, *baseline.Node, *baseline.Node) {
	b.Helper()
	cfg := corpus.DefaultConfig(words)
	cfg.Hierarchies = hierarchies
	cfg.OverlapDensity = density
	doc, err := corpus.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	frag, err := drivers.EncodeFragmentation(doc, drivers.EncodeOptions{Dominant: "physical"})
	if err != nil {
		b.Fatal(err)
	}
	ms, err := drivers.EncodeMilestones(doc, drivers.EncodeOptions{Dominant: "physical"})
	if err != nil {
		b.Fatal(err)
	}
	fragDOM, err := baseline.ParseDOM(frag)
	if err != nil {
		b.Fatal(err)
	}
	msDOM, err := baseline.ParseDOM(ms)
	if err != nil {
		b.Fatal(err)
	}
	return doc, fragDOM, msDOM
}

func BenchmarkOverlapQuery_GODDAG(b *testing.B) {
	for _, words := range []int{1000, 8000} {
		for _, h := range []int{4, 8} {
			doc, _, _ := e4Fixtures(b, words, h, 0.5)
			q := xpath.MustCompile("//dmg/overlapping::w")
			b.Run(fmt.Sprintf("words=%d/h=%d", words, h), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := q.Eval(doc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkOverlapQuery_FragmentJoin(b *testing.B) {
	for _, words := range []int{1000, 8000} {
		_, fragDOM, _ := e4Fixtures(b, words, 4, 0.5)
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.OverlappingFragmentJoin(fragDOM, "dmg", "w")
			}
		})
	}
}

func BenchmarkOverlapQuery_MilestonePair(b *testing.B) {
	for _, words := range []int{1000, 8000} {
		_, _, msDOM := e4Fixtures(b, words, 4, 0.5)
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.OverlappingMilestonePair(msDOM, "dmg", "w")
			}
		})
	}
}

// ---- E5: axis micro-benchmarks ----------------------------------------

func BenchmarkAxis(b *testing.B) {
	queries := map[string]string{
		"child":       "count(/line)",
		"descendant":  "count(//w)",
		"childname":   "count(//s/w)",
		"covering":    "count(//w[17]/covering::*)",
		"covered":     "count(//line/covered::w)",
		"overlapping": "count(//dmg/overlapping::w)",
		"following":   "count(//res/following::w)",
		"preceding":   "count(//res/preceding::w)",
		"ancestor":    "count(//dmg/ancestor::*)",
		"union":       "count(//w | //line)",
		"predicate":   "count(//w[@n='100'])",
	}
	for _, size := range []struct{ words, h int }{{4000, 4}, {8000, 8}} {
		cfg := corpus.DefaultConfig(size.words)
		cfg.Hierarchies = size.h
		doc, err := corpus.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for name, qs := range queries {
			q := xpath.MustCompile(qs)
			b.Run(fmt.Sprintf("words=%d/h=%d/%s", size.words, size.h, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := q.Eval(doc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkOverlappingAxisOnly isolates one overlapping-axis evaluation
// (context fixed), the unit the D3 design decision optimizes.
func BenchmarkOverlappingAxisOnly(b *testing.B) {
	doc, err := corpus.Generate(corpus.DefaultConfig(8000))
	if err != nil {
		b.Fatal(err)
	}
	dmg := doc.Hierarchy("damage").Elements()[0]
	q := xpath.MustCompile("overlapping::w")
	b.Run("interval-index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := q.EvalFromWithOptions(doc, dmg, xpath.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("graph-walk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := q.EvalFromWithOptions(doc, dmg, xpath.Options{OverlapByWalk: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- E6: prevalidation -------------------------------------------------

func BenchmarkPrevalidate(b *testing.B) {
	wordsDTD := dtd.MustParse("words", `
<!ELEMENT r (#PCDATA|s|w)*>
<!ELEMENT s (#PCDATA|w)*>
<!ELEMENT w (#PCDATA)>
`)
	for _, words := range []int{1000, 8000} {
		doc, err := corpus.Generate(corpus.DefaultConfig(words))
		if err != nil {
			b.Fatal(err)
		}
		h := doc.Hierarchy("words")
		rng := rand.New(rand.NewSource(7))
		n := doc.Content().Len()
		spans := make([]document.Span, 512)
		vetoed := 0
		for i := range spans {
			lo := rng.Intn(n - 21)
			spans[i] = runeSpan(doc.Content(), lo, lo+1+rng.Intn(20))
			if validate.CheckInsertion(doc, h, wordsDTD, "w", spans[i]) != nil {
				vetoed++
			}
		}
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = validate.CheckInsertion(doc, h, wordsDTD, "w", spans[i%len(spans)])
			}
			// Vetoes are random spans nesting inside an existing <w>
			// ((#PCDATA) content) or overlapping one.
			b.ReportMetric(float64(vetoed)/float64(len(spans)), "vetoed-share")
		})
	}
}

func BenchmarkValidateFull(b *testing.B) {
	doc, err := corpus.Generate(corpus.DefaultConfig(4000))
	if err != nil {
		b.Fatal(err)
	}
	d := dtd.MustParse("words", `
<!ELEMENT r (#PCDATA|s|w)*>
<!ELEMENT s (#PCDATA|w)*>
<!ELEMENT w (#PCDATA)>
<!ATTLIST w n CDATA #IMPLIED>
`)
	h := doc.Hierarchy("words")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		validate.Hierarchy(h, d, validate.Full)
	}
}

// ---- E7: representation conversion -------------------------------------

// BenchmarkConvert times each representation's encoder and decoder and
// reports its size overhead: encoded bytes per content byte (for the
// distributed form, summed over its per-hierarchy files).
func BenchmarkConvert(b *testing.B) {
	doc, err := corpus.Generate(corpus.DefaultConfig(4000))
	if err != nil {
		b.Fatal(err)
	}
	opts := drivers.EncodeOptions{}
	// Each encode closure keeps its last output for the matching decode.
	var dist map[string][]byte
	var ms, fr, so []byte
	codecs := []struct {
		name   string
		encode func() (int, error)
		decode func() error
	}{
		{"distributed", func() (n int, err error) {
			dist, err = drivers.EncodeDistributed(doc, opts)
			for _, data := range dist {
				n += len(data)
			}
			return n, err
		}, func() error { _, err := drivers.DecodeDistributed(dist); return err }},
		{"milestones", func() (n int, err error) {
			ms, err = drivers.EncodeMilestones(doc, opts)
			return len(ms), err
		}, func() error { _, err := drivers.DecodeMilestones(ms); return err }},
		{"fragmentation", func() (n int, err error) {
			fr, err = drivers.EncodeFragmentation(doc, opts)
			return len(fr), err
		}, func() error { _, err := drivers.DecodeFragmentation(fr); return err }},
		{"standoff", func() (n int, err error) {
			so, err = drivers.EncodeStandoff(doc, opts)
			return len(so), err
		}, func() error { _, err := drivers.DecodeStandoff(so); return err }},
	}
	contentBytes := float64(doc.Content().Len())
	for _, c := range codecs {
		size, err := c.encode()
		if err != nil {
			b.Fatal(err)
		}
		b.Run("encode/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.encode(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(size)/contentBytes, "bytes/content-byte")
		})
		b.Run("decode/"+c.name, func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if err := c.decode(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- A1: SACX merge strategies ------------------------------------------

func BenchmarkMergeHeap(b *testing.B)   { benchMerge(b, sacx.MergeHeap) }
func BenchmarkMergeRescan(b *testing.B) { benchMerge(b, sacx.MergeRescan) }

func benchMerge(b *testing.B, strategy sacx.MergeStrategy) {
	for _, h := range []int{2, 8, 16} {
		cfg := corpus.DefaultConfig(2000)
		cfg.Hierarchies = h
		srcs, err := corpus.GenerateSources(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, err := sacx.NewStream(srcs, sacx.Options{Strategy: strategy})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := st.Events(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- A2: overlap evaluation strategies ----------------------------------

func BenchmarkOverlapInterval(b *testing.B) { benchOverlap(b, xpath.Options{}) }
func BenchmarkOverlapWalk(b *testing.B) {
	benchOverlap(b, xpath.Options{OverlapByWalk: true})
}

func benchOverlap(b *testing.B, opts xpath.Options) {
	for _, density := range []float64{0.1, 0.9} {
		cfg := corpus.DefaultConfig(2000)
		cfg.OverlapDensity = density
		doc, err := corpus.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		dmgs := doc.Hierarchy("damage").Elements()
		q := xpath.MustCompile("overlapping::w")
		b.Run(fmt.Sprintf("density=%.1f", density), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, dmg := range dmgs {
					if _, err := q.EvalFromWithOptions(doc, dmg, opts); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// ---- editing throughput (supporting E8) ---------------------------------

func BenchmarkInsertElement(b *testing.B) {
	cfg := corpus.DefaultConfig(2000)
	cfg.Hierarchies = 2
	base, err := corpus.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	n := base.Content().Len()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		doc := base.Clone()
		h := doc.AddHierarchy("bench")
		rng := rand.New(rand.NewSource(int64(i)))
		b.StartTimer()
		lastEnd := 0
		for k := 0; k < 100; k++ {
			lo := lastEnd + rng.Intn(20)
			span := runeSpan(doc.Content(), lo, lo+1+rng.Intn(10))
			if span.End >= n {
				break
			}
			if _, err := doc.InsertElement(h, "ann", nil, span); err != nil {
				b.Fatal(err)
			}
			lastEnd = span.End
		}
	}
}

// runeSpan snaps the byte range [lo,hi) forward to rune boundaries of c,
// keeping it non-empty: the corpus content is multibyte, and a span that
// splits a character is rejected before any work the benchmark measures.
func runeSpan(c *document.Content, lo, hi int) document.Span {
	for !c.IsRuneBoundary(lo) {
		lo++
	}
	hi = max(hi, lo+1)
	for !c.IsRuneBoundary(hi) {
		hi++
	}
	return document.NewSpan(lo, hi)
}

// ---- persistent storage (S15) --------------------------------------------

// BenchmarkStoreSave times the v3 encoder that Save writes.
func BenchmarkStoreSave(b *testing.B) {
	doc, err := corpus.Generate(corpus.DefaultConfig(4000))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := store.EncodeV3(&buf, doc); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := store.EncodeV3(&buf, doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreLoad times the catalog's v3 open, minus the mmap itself:
// header and section checks, then the lazily materializing document
// (element columns are validated on first structural access). The v2
// sub-benchmark times the decode that legacy files still load through.
func BenchmarkStoreLoad(b *testing.B) {
	doc, err := corpus.Generate(corpus.DefaultConfig(4000))
	if err != nil {
		b.Fatal(err)
	}
	var v3, v2 bytes.Buffer
	if err := store.EncodeV3(&v3, doc); err != nil {
		b.Fatal(err)
	}
	if err := store.Encode(&v2, doc); err != nil {
		b.Fatal(err)
	}
	b.Run("v3", func(b *testing.B) {
		data := v3.Bytes()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			m, err := store.OpenMappedBytes(data)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Document(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("v2", func(b *testing.B) {
		data := v2.Bytes()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := store.Decode(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
