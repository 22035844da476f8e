// Package corpus provides the workloads for the reproduction: a bundled
// Old English manuscript fragment matching the structure of the paper's
// Figure 1, and a parameterised generator of synthetic manuscripts with
// concurrent hierarchies.
//
// Substitution note: the paper demonstrates on images
// and transcriptions of British Library MS Cotton Otho A. vi (Boethius,
// folio 36v), which are not redistributable. The bundled fragment is a
// public-domain Old English passage encoded with exactly the hierarchies
// of Figure 1 — physical layout (line), words (w), editorial restorations
// (res), and damage (dmg) — arranged so that the same overlap patterns
// occur (word/line, word/restoration, word/damage conflicts). The
// generator scales those patterns to arbitrary sizes for the performance
// experiments.
package corpus

import (
	"fmt"
	"math/rand"
	"strings"
	"unicode/utf8"

	"repro/internal/document"
	"repro/internal/goddag"
	"repro/internal/sacx"
)

// Fig1Sources returns the paper's Figure 1 distributed document: four XML
// encodings of the same manuscript content with mutually overlapping
// markup.
func Fig1Sources() []sacx.Source {
	return []sacx.Source{
		{Hierarchy: "physical", Data: []byte(`<r><line n="1">swa hwæt swa</line><line n="2"> he us sægde</line></r>`)},
		{Hierarchy: "words", Data: []byte(`<r><w>swa</w> <w>hwæt</w> <w>swa</w> <w>he</w> <w>us</w> <w>sægde</w></r>`)},
		{Hierarchy: "restoration", Data: []byte(`<r>swa hwæt s<res resp="ed">wa he u</res>s sægde</r>`)},
		{Hierarchy: "damage", Data: []byte(`<r>swa hw<dmg type="stain">æt sw</dmg>a he us sægde</r>`)},
	}
}

// Fig1Document parses Fig1Sources into a GODDAG.
func Fig1Document() (*goddag.Document, error) {
	return sacx.Build(Fig1Sources())
}

// oldEnglishWords is the vocabulary the generator samples; drawn from the
// opening of the Old English Boethius (public domain).
var oldEnglishWords = []string{
	"on", "ðære", "tide", "ðe", "gotan", "of", "sciððiu", "mægðe", "wið",
	"romana", "rice", "gewin", "up", "ahofon", "and", "mid", "heora",
	"cyningum", "rædgota", "eallerica", "wæron", "hatne", "romane",
	"burig", "abræcon", "eall", "italia", "rice", "þæt", "is",
	"betwux", "þam", "muntum", "sicilia", "þam", "ealonde", "in",
	"anwald", "gerehton", "æfter", "þam", "foresprecenan", "cyningum",
	"þeodric", "feng", "to", "þam", "ilcan", "rice", "se", "wæs",
	"amulinga", "he", "wæs", "cristen", "þeah", "þurhwunode", "gedwolan",
	"swa", "hwæt", "us", "sægde", "boethius", "wisdom", "gemynd",
}

// Config parameterises the synthetic manuscript generator. The zero value
// is not useful; see DefaultConfig.
type Config struct {
	// Seed makes generation deterministic.
	Seed int64
	// Words is the number of words of content to generate.
	Words int
	// Hierarchies is the number of concurrent hierarchies (>= 1):
	// hierarchy 1 is the physical layout (page/line), hierarchy 2 the
	// word/sentence structure, and hierarchies 3..n are annotation
	// layers (damage, restoration, additions, ...).
	Hierarchies int
	// OverlapDensity in [0,1] is the probability that an annotation span
	// deliberately crosses a structural boundary (producing overlapping
	// markup); at 0 annotations nest cleanly inside words.
	OverlapDensity float64
	// AnnotationRate is the expected number of annotations per 100 words
	// in each annotation layer (default 10).
	AnnotationRate float64
	// WordsPerLine controls the physical layout (default 8).
	WordsPerLine int
	// LinesPerPage controls the physical layout (default 20).
	LinesPerPage int
	// WordsPerSentence controls the words hierarchy (default 12).
	WordsPerSentence int
	// Vocabulary overrides the sampled word list (default: the bundled
	// Old English vocabulary). Multibyte-heavy vocabularies (CJK, emoji,
	// combining marks) exercise the byte-span pipeline's UTF-8 handling.
	Vocabulary []string
}

// MultibyteVocabulary is a vocabulary of CJK words, emoji (including
// astral-plane code points), and combining-mark sequences, used by the
// differential tests to drive the corpus grid over non-ASCII content.
var MultibyteVocabulary = []string{
	"文書", "重なり", "構造", "階層", "検索", "編集", "木構造", "注釈",
	"🌲", "📚🔥", "𝔾𝕠", "🧪", "étude", "ño", "åb̈",
	"æðel", "świa", "đồng", "ﬁn",
}

// DefaultConfig returns a workable configuration for n words.
func DefaultConfig(n int) Config {
	return Config{
		Seed:             1,
		Words:            n,
		Hierarchies:      4,
		OverlapDensity:   0.5,
		AnnotationRate:   10,
		WordsPerLine:     8,
		LinesPerPage:     20,
		WordsPerSentence: 12,
	}
}

// annotationTags names the annotation layers, cycled for hierarchies 3+.
var annotationTags = []struct{ hier, tag string }{
	{"damage", "dmg"},
	{"restoration", "res"},
	{"addition", "add"},
	{"deletion", "del"},
	{"unclear", "unclear"},
	{"note", "note"},
}

// Generate builds a synthetic multihierarchical manuscript as a GODDAG.
func Generate(cfg Config) (*goddag.Document, error) {
	if cfg.Words <= 0 {
		return nil, fmt.Errorf("corpus: Words must be positive")
	}
	if cfg.Hierarchies < 1 {
		return nil, fmt.Errorf("corpus: need at least one hierarchy")
	}
	if cfg.WordsPerLine <= 0 {
		cfg.WordsPerLine = 8
	}
	if cfg.LinesPerPage <= 0 {
		cfg.LinesPerPage = 20
	}
	if cfg.WordsPerSentence <= 0 {
		cfg.WordsPerSentence = 12
	}
	if cfg.AnnotationRate <= 0 {
		cfg.AnnotationRate = 10
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	vocab := cfg.Vocabulary
	if len(vocab) == 0 {
		vocab = oldEnglishWords
	}

	// Content: words separated by single spaces; remember byte spans.
	var b strings.Builder
	wordSpans := make([]document.Span, 0, cfg.Words)
	pos := 0
	for i := 0; i < cfg.Words; i++ {
		w := vocab[rng.Intn(len(vocab))]
		if i > 0 {
			b.WriteString(" ")
			pos++
		}
		wordSpans = append(wordSpans, document.NewSpan(pos, pos+len(w)))
		b.WriteString(w)
		pos += len(w)
	}
	doc := goddag.New("r", b.String())
	content := b.String()

	// Hierarchy 1: physical (pages of lines of words).
	if cfg.Hierarchies >= 1 {
		phys := doc.AddHierarchy("physical")
		lineNo, pageNo := 0, 0
		for lo := 0; lo < len(wordSpans); lo += cfg.WordsPerLine * cfg.LinesPerPage {
			hi := min(lo+cfg.WordsPerLine*cfg.LinesPerPage, len(wordSpans))
			pageNo++
			span := document.NewSpan(wordSpans[lo].Start, wordSpans[hi-1].End)
			page, err := doc.InsertElement(phys, "page", []goddag.Attr{{Name: "n", Value: fmt.Sprint(pageNo)}}, span)
			if err != nil {
				return nil, fmt.Errorf("corpus: page: %w", err)
			}
			_ = page
			for llo := lo; llo < hi; llo += cfg.WordsPerLine {
				lhi := min(llo+cfg.WordsPerLine, hi)
				lineNo++
				lspan := document.NewSpan(wordSpans[llo].Start, wordSpans[lhi-1].End)
				if _, err := doc.InsertElement(phys, "line", []goddag.Attr{{Name: "n", Value: fmt.Sprint(lineNo)}}, lspan); err != nil {
					return nil, fmt.Errorf("corpus: line: %w", err)
				}
			}
		}
	}

	// Hierarchy 2: words and sentences.
	if cfg.Hierarchies >= 2 {
		words := doc.AddHierarchy("words")
		for lo := 0; lo < len(wordSpans); lo += cfg.WordsPerSentence {
			hi := min(lo+cfg.WordsPerSentence, len(wordSpans))
			sspan := document.NewSpan(wordSpans[lo].Start, wordSpans[hi-1].End)
			if _, err := doc.InsertElement(words, "s", nil, sspan); err != nil {
				return nil, fmt.Errorf("corpus: sentence: %w", err)
			}
		}
		for i, ws := range wordSpans {
			attrs := []goddag.Attr{{Name: "n", Value: fmt.Sprint(i + 1)}}
			if _, err := doc.InsertElement(words, "w", attrs, ws); err != nil {
				return nil, fmt.Errorf("corpus: word: %w", err)
			}
		}
	}

	// Hierarchies 3..n: annotation layers with controlled overlap.
	for hi := 3; hi <= cfg.Hierarchies; hi++ {
		layer := annotationTags[(hi-3)%len(annotationTags)]
		name := layer.hier
		if hi-3 >= len(annotationTags) {
			name = fmt.Sprintf("%s%d", layer.hier, (hi-3)/len(annotationTags)+1)
		}
		h := doc.AddHierarchy(name)
		n := int(float64(cfg.Words) * cfg.AnnotationRate / 100)
		if n < 1 {
			n = 1
		}
		lastEnd := 0
		// Place annotations left to right to keep the layer conflict-free
		// within itself while overlapping other hierarchies.
		for k := 0; k < n; k++ {
			wi := rng.Intn(len(wordSpans))
			ws := wordSpans[wi]
			var span document.Span
			if rng.Float64() < cfg.OverlapDensity {
				// Deliberately cross word boundaries: start inside this
				// word, end inside one of the next two words. Cut points
				// are drawn from the words' interior rune boundaries, so
				// byte spans never split a multibyte character.
				endWord := min(wi+1+rng.Intn(2), len(wordSpans)-1)
				startOff := innerCut(content, ws, rng, ws.Start)
				endSpan := wordSpans[endWord]
				endOff := innerCut(content, endSpan, rng, endSpan.End)
				span = document.NewSpan(startOff, endOff)
			} else {
				// Nest cleanly inside one word.
				span = ws
			}
			if span.Start < lastEnd {
				continue // keep the layer itself conflict-free
			}
			if span.End <= span.Start {
				continue
			}
			if _, err := doc.InsertElement(h, layer.tag, nil, span); err != nil {
				return nil, fmt.Errorf("corpus: %s: %w", layer.tag, err)
			}
			lastEnd = span.End
		}
	}
	return doc, nil
}

// innerCut picks a uniformly random rune boundary strictly inside the
// word span ws (byte offsets). Single-rune words have no interior
// boundary; fallback is returned instead (the word's start for span
// starts — keeping the annotation anchored in its start word — and its
// end for span ends).
func innerCut(content string, ws document.Span, rng *rand.Rand, fallback int) int {
	var cuts []int
	for i := ws.Start; i < ws.End; {
		_, size := utf8.DecodeRuneInString(content[i:ws.End])
		i += size
		if i < ws.End {
			cuts = append(cuts, i)
		}
	}
	if len(cuts) == 0 {
		return fallback
	}
	return cuts[rng.Intn(len(cuts))]
}

// GenerateSources builds a synthetic manuscript and returns it as a
// distributed document (one XML document per hierarchy), the input format
// of the SACX parser — used by the parsing benchmarks.
func GenerateSources(cfg Config) ([]sacx.Source, error) {
	doc, err := Generate(cfg)
	if err != nil {
		return nil, err
	}
	var out []sacx.Source
	for _, h := range doc.HierarchyNames() {
		data, err := sacx.Split(doc, h)
		if err != nil {
			return nil, err
		}
		out = append(out, sacx.Source{Hierarchy: h, Data: data})
	}
	return out, nil
}

// CountOverlaps reports how many element pairs properly overlap in doc —
// the workload's "conflict density" statistic reported by cxparse -stats.
func CountOverlaps(doc *goddag.Document) int {
	els := doc.Elements()
	n := 0
	for i := 0; i < len(els); i++ {
		for j := i + 1; j < len(els); j++ {
			if els[j].Span().Start >= els[i].Span().End {
				break // sorted by start; no further j can overlap i
			}
			if els[i].Span().Overlaps(els[j].Span()) {
				n++
			}
		}
	}
	return n
}
