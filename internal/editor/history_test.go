package editor

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/document"
	"repro/internal/goddag"
	"repro/internal/store"
	"repro/internal/validate"
	"repro/internal/xpath"
)

// historyQueries run after every step of TestHistoryProperty under the
// planner and the reference evaluator.
var historyQueries = []string{
	"//edit",
	"count(//*)",
	"//*[@k]",
	"//edit/overlapping::*",
	"//*/@k",
}

// TestHistoryProperty drives seeded random histories of op batches
// (valid and vetoed), undos and redos through one session and holds it
// against a model: a list of v3 images with a cursor. After every step
// the session's document must encode to exactly the image the model
// recorded for that point in the history. Each batch's expected
// post-state is computed independently, by applying the batch to a
// fresh decode of the recorded pre-state, so a restore that drifts from
// the state it snapshotted (element order, attributes, indexes) shows
// as a mismatch at the next batch. Every step also holds the planner
// against the reference evaluator on the live document.
func TestHistoryProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := corpus.DefaultConfig(80)
			cfg.Seed = seed
			cfg.Hierarchies = 2 + int(seed)%3
			if seed%2 == 0 {
				cfg.Vocabulary = corpus.MultibyteVocabulary
			}
			doc, err := corpus.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			limit := 3 + int(seed)%4
			s := NewSession(doc, validate.NewSchema(), Options{HistoryLimit: limit})
			rng := rand.New(rand.NewSource(seed))

			hist := [][]byte{encodeImage(t, s.Document())}
			cur := 0
			var valid, vetoed, undos, redos int
			for step := 0; step < 80; step++ {
				var what string
				switch r := rng.Intn(10); {
				case r < 6:
					ops := randomBatch(rng, s.Document(), step)
					what = fmt.Sprintf("batch %v", ops)
					want, wantErr := replayBatch(t, hist[cur], ops)
					err := s.ApplyBatch(ops)
					if (err == nil) != (wantErr == nil) {
						t.Fatalf("step %d %s: session err %v, replay err %v", step, what, err, wantErr)
					}
					if err != nil {
						var be *BatchError
						if !errors.As(err, &be) {
							t.Fatalf("step %d %s: veto is %T, want *BatchError", step, what, err)
						}
						vetoed++
						break
					}
					valid++
					hist = append(hist[:cur+1], want)
					cur++
					for cur > limit {
						hist, cur = hist[1:], cur-1
					}
				case r < 8:
					what = "undo"
					err := s.Undo()
					if cur == 0 {
						if !errors.Is(err, ErrNothingToUndo) {
							t.Fatalf("step %d: undo past the history limit: err %v", step, err)
						}
						break
					}
					if err != nil {
						t.Fatalf("step %d: undo: %v", step, err)
					}
					cur--
					undos++
				default:
					what = "redo"
					err := s.Redo()
					if cur == len(hist)-1 {
						if !errors.Is(err, ErrNothingToRedo) {
							t.Fatalf("step %d: redo with nothing undone: err %v", step, err)
						}
						break
					}
					if err != nil {
						t.Fatalf("step %d: redo: %v", step, err)
					}
					cur++
					redos++
				}
				if got := encodeImage(t, s.Document()); !bytes.Equal(got, hist[cur]) {
					t.Fatalf("step %d (%s): session image differs from the recorded history image", step, what)
				}
				if s.CanUndo() != (cur > 0) || s.CanRedo() != (cur < len(hist)-1) {
					t.Fatalf("step %d (%s): CanUndo/CanRedo = %v/%v, model cursor %d of %d",
						step, what, s.CanUndo(), s.CanRedo(), cur, len(hist))
				}
				for _, q := range historyQueries {
					plan := evalRendered(t, s.Document(), q, xpath.Options{})
					ref := evalRendered(t, s.Document(), q, xpath.Options{Reference: true})
					if plan != ref {
						t.Fatalf("step %d (%s): %q planner %s != reference %s", step, what, q, plan, ref)
					}
				}
			}
			if valid == 0 || vetoed == 0 || undos == 0 || redos == 0 {
				t.Fatalf("history did not exercise every move: %d valid, %d vetoed, %d undos, %d redos",
					valid, vetoed, undos, redos)
			}
		})
	}
}

// randomBatch draws one to three wire ops against doc's current shape.
// Indices run one past the end and remove-attr names an attribute that
// may be missing, so some batches veto.
func randomBatch(rng *rand.Rand, doc *goddag.Document, step int) []Op {
	c := doc.Content()
	runes := c.RuneLen()
	hiers := append(doc.HierarchyNames(), "edits")
	ops := make([]Op, 1+rng.Intn(3))
	for i := range ops {
		hn := hiers[rng.Intn(len(hiers))]
		n := 0
		if h := doc.Hierarchy(hn); h != nil {
			n = h.Len()
		}
		switch rng.Intn(4) {
		case 0:
			lo := rng.Intn(runes)
			sp := c.ByteSpan(document.NewSpan(lo, min(runes, lo+1+rng.Intn(6))))
			ops[i] = Op{Op: "insert-markup", Hierarchy: hn, Tag: "edit", Start: sp.Start, End: sp.End,
				Attrs: map[string]string{"n": fmt.Sprint(step)}}
		case 1:
			ops[i] = Op{Op: "remove-markup", Hierarchy: hn, Index: rng.Intn(n + 1)}
		case 2:
			ops[i] = Op{Op: "set-attr", Hierarchy: hn, Index: rng.Intn(n + 1), Name: "k", Value: fmt.Sprint(step)}
		default:
			ops[i] = Op{Op: "remove-attr", Hierarchy: hn, Index: rng.Intn(n + 1), Name: "k"}
		}
	}
	return ops
}

// replayBatch applies ops to a fresh decode of the image pre and
// returns the image of the result, or the batch's veto.
func replayBatch(t *testing.T, pre []byte, ops []Op) ([]byte, error) {
	t.Helper()
	g, err := store.Decode(bytes.NewReader(pre))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(g, validate.NewSchema(), Options{})
	if err := s.ApplyBatch(ops); err != nil {
		return nil, err
	}
	return encodeImage(t, s.Document()), nil
}

func encodeImage(t *testing.T, doc *goddag.Document) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := store.EncodeV3(&buf, doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// evalRendered evaluates q and renders the value without pointers, so
// results from different document values compare as text.
func evalRendered(t *testing.T, doc *goddag.Document, q string, opts xpath.Options) string {
	t.Helper()
	cq, err := xpath.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	v, err := cq.EvalWithOptions(doc, opts)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	if !v.IsNodeSet() {
		return v.Kind() + ":" + v.String()
	}
	var b strings.Builder
	for _, n := range v.Nodes() {
		if el, ok := n.(*goddag.Element); ok {
			b.WriteString(el.String())
		} else {
			fmt.Fprintf(&b, "%v%v", n.Kind(), n.Span())
		}
		b.WriteByte(';')
	}
	for _, a := range v.Attrs() {
		fmt.Fprintf(&b, "%v@%s=%s;", a.Owner, a.Name, a.Value)
	}
	return b.String()
}

// TestRestoreKeepsIncrementalRepair: every restore — a vetoed batch's
// rollback, undo, redo — yields a new document value, which must keep
// the session document's incremental-repair setting.
func TestRestoreKeepsIncrementalRepair(t *testing.T) {
	s := newSession(t, false)
	s.Document().SetIncrementalRepair(false)
	insert := []Op{{Op: "insert-markup", Hierarchy: "words", Tag: "w", Start: 0, End: 3}}
	if err := s.ApplyBatch(insert); err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name string
		run  func() error
	}{
		{"vetoed batch", func() error {
			if err := s.ApplyBatch([]Op{insert[0], {Op: "remove-markup", Hierarchy: "words", Index: 9}}); err == nil {
				t.Fatal("batch not vetoed")
			}
			return nil
		}},
		{"undo", s.Undo},
		{"redo", s.Redo},
	}
	for _, st := range steps {
		before := s.Document()
		if err := st.run(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if s.Document() == before {
			t.Fatalf("%s: document not restored", st.name)
		}
		if s.Document().IncrementalRepair() {
			t.Fatalf("%s: restored document repairs incrementally", st.name)
		}
	}
}
