package catalog

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/editor"
	"repro/internal/faultfs"
	"repro/internal/goddag"
	"repro/internal/store"
	"repro/internal/validate"
	"repro/internal/xpath"
)

// historySource is the document FuzzHistory edits: ASCII, so every byte
// offset is a rune boundary.
const historySource = `<r><w>swa</w> <w>hwaet</w> <w>swa</w> <w>he</w> <w>us</w> <w>saegde</w></r>`

// historyQueries are compared between the catalog's document (planner)
// and the model's (reference evaluator).
var historyQueries = []string{"//edit", "count(//*)", "//*[@k]", "//edit/overlapping::w"}

// historyModel is FuzzHistory's oracle: the v3 images of the states the
// session can reach, with a cursor at the current one. History is not
// durable, so eviction and reopen reset it to the current image.
type historyModel struct {
	hist [][]byte
	cur  int
}

func (m *historyModel) state() []byte { return m.hist[m.cur] }

func (m *historyModel) reset(img []byte) { m.hist, m.cur = [][]byte{img}, 0 }

// commit records a batch's post-state: the redo branch is dropped.
func (m *historyModel) commit(img []byte) {
	m.hist = append(m.hist[:m.cur+1], img)
	m.cur++
	for m.cur > editor.DefaultHistoryLimit {
		m.hist, m.cur = m.hist[1:], m.cur-1
	}
}

// target is the state an undo (dir -1) or redo (+1) moves to, nil when
// there is none.
func (m *historyModel) target(dir int) []byte {
	if i := m.cur + dir; i >= 0 && i < len(m.hist) {
		return m.hist[i]
	}
	return nil
}

// historyInput reads a fuzz input one byte at a time; an exhausted
// input reads zeros.
type historyInput struct {
	data []byte
	pos  int
}

func (in *historyInput) more() bool { return in.pos < len(in.data) }

func (in *historyInput) next() int {
	if in.pos >= len(in.data) {
		return 0
	}
	in.pos++
	return int(in.data[in.pos-1])
}

// FuzzHistory decodes its input into a history of op batches (valid
// and vetoed), undos, redos, evictions with a cold reload, clean
// reopens, queries, and crashes: a fault (failed or torn operation) on
// the k-th filesystem call of the next batch, undo or redo, after which
// the catalog is dropped and the directory reopened. A model of v3
// images is checked after every step, byte for byte against the
// catalog's document. At a crash, an acknowledged batch, undo or redo
// must survive; an unacknowledged one is all-or-nothing (the recovered
// document is the pre-state or the post-state). Undo and redo are
// logged as snapshots after they apply, so a crash before that append
// may lose one — the documented window, which is why only the
// acknowledged ones are held to survival.
func FuzzHistory(f *testing.F) {
	// Seeds: random histories, long enough for every step kind to occur
	// several times.
	for seed := int64(1); seed <= 8; seed++ {
		b := make([]byte, 160)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runHistory(t, data)
	})
}

func runHistory(t *testing.T, data []byte) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "doc.xml"), []byte(historySource), 0o644); err != nil {
		t.Fatal(err)
	}
	open := func() (*Catalog, *faultfs.Injector) {
		inj := faultfs.NewInjector(faultfs.OS)
		c, err := Open(dir, fastOpts(inj))
		if err != nil {
			t.Fatal(err)
		}
		return c, inj
	}
	c, inj := open()
	var m historyModel
	m.reset(catalogImage(t, c))

	in := &historyInput{data: data}
	for step := 0; step < 24 && in.more(); step++ {
		switch kind := in.next() % 8; kind {
		case 0, 1, 2:
			ops := historyBatch(t, in, m.state())
			want, veto := replayHistoryBatch(t, m.state(), ops)
			err := c.UpdateBatch("doc", ops, nil)
			if veto != nil {
				var be *editor.BatchError
				if !errors.As(err, &be) {
					t.Fatalf("step %d %v: model vetoes (%v), catalog returned %v", step, ops, veto, err)
				}
			} else if err != nil {
				t.Fatalf("step %d %v: %v", step, ops, err)
			} else {
				m.commit(want)
			}
		case 3, 4:
			dirn := map[int]int{3: -1, 4: 1}[kind]
			err := historyMove(c, dirn)
			if want := m.target(dirn); want == nil {
				if !errors.Is(err, editor.ErrNothingToUndo) && !errors.Is(err, editor.ErrNothingToRedo) {
					t.Fatalf("step %d: history move %+d with nothing to move to: %v", step, dirn, err)
				}
			} else if err != nil {
				t.Fatalf("step %d: history move %+d: %v", step, dirn, err)
			} else {
				m.cur += dirn
			}
		case 5:
			if c.Evict("doc") {
				m.reset(m.state())
			}
		case 6:
			c, inj = open()
			m.reset(m.state())
		default:
			k, torn := 1+in.next()%24, in.next()
			pre := m.state()
			var post []byte
			var err error
			inj.SetHook(nthFault(k, torn))
			switch in.next() % 3 {
			case 0:
				ops := historyBatch(t, in, pre)
				want, veto := replayHistoryBatch(t, pre, ops)
				post = want
				if veto != nil {
					post = pre
				}
				err = c.UpdateBatch("doc", ops, nil)
			case 1:
				post = m.target(-1)
				err = historyMove(c, -1)
			default:
				post = m.target(1)
				err = historyMove(c, 1)
			}
			if post == nil {
				post = pre
			}
			// Crash: drop the catalog and reopen on a healthy disk.
			c, inj = open()
			got := catalogImage(t, c)
			switch {
			case err == nil && !bytes.Equal(got, post):
				t.Fatalf("step %d: acknowledged change lost at a crash on call %d (torn=%d)", step, k, torn)
			case !bytes.Equal(got, post) && !bytes.Equal(got, pre):
				t.Fatalf("step %d: unacknowledged change (%v) recovered partially at a crash on call %d", step, err, k)
			}
			m.reset(got)
		}
		if got := catalogImage(t, c); !bytes.Equal(got, m.state()) {
			t.Fatalf("step %d: catalog document differs from the model's", step)
		}
		if err := c.View("doc", func(doc *core.Document) error {
			model := decodeImage(t, m.state())
			for _, q := range historyQueries {
				plan := renderQuery(t, doc.GODDAG(), q, xpath.Options{})
				ref := renderQuery(t, model, q, xpath.Options{Reference: true})
				if plan != ref {
					return fmt.Errorf("%q: catalog %s, model %s", q, plan, ref)
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// historyMove undoes (dir -1) or redoes (+1) the catalog's last move.
func historyMove(c *Catalog, dir int) error {
	if dir < 0 {
		return c.Undo(context.Background(), "doc", nil)
	}
	return c.Redo(context.Background(), "doc", nil)
}

// nthFault fails the k-th filesystem call — tearing it when it is a
// write and torn is odd — and every call after it: the disk is gone.
// Unmaps are neither counted nor failed: a dropped mapped document is
// released on the finalizer goroutine whenever the GC gets to it, so
// counting them would move the fault points from run to run.
func nthFault(k, torn int) faultfs.Hook {
	var mu sync.Mutex
	n := 0
	errFault := errors.New("injected: EIO")
	return func(op faultfs.Op, _ string) error {
		if op == faultfs.OpUnmap {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		n++
		switch {
		case n < k:
			return nil
		case n == k && op == faultfs.OpWrite && torn%2 == 1:
			return &faultfs.Torn{N: torn / 2, Err: errFault}
		default:
			return errFault
		}
	}
}

// historyBatch decodes one to three ops against the shape of the state
// image. Indices run one past the end and remove-attr may name a
// missing attribute, so some batches veto.
func historyBatch(t *testing.T, in *historyInput, state []byte) []editor.Op {
	doc := decodeImage(t, state)
	n := doc.Content().Len()
	hiers := append(doc.HierarchyNames(), "edits")
	ops := make([]editor.Op, 1+in.next()%3)
	for i := range ops {
		b := in.next()
		hn := hiers[(b>>2)%len(hiers)]
		size := 0
		if h := doc.Hierarchy(hn); h != nil {
			size = h.Len()
		}
		idx := in.next() % (size + 1)
		switch b % 4 {
		case 0:
			lo := in.next() % n
			ops[i] = editor.Op{Op: "insert-markup", Hierarchy: hn, Tag: "edit", Start: lo, End: min(n, lo+1+idx%6)}
		case 1:
			ops[i] = editor.Op{Op: "remove-markup", Hierarchy: hn, Index: idx}
		case 2:
			ops[i] = editor.Op{Op: "set-attr", Hierarchy: hn, Index: idx, Name: "k", Value: fmt.Sprint(in.pos)}
		default:
			ops[i] = editor.Op{Op: "remove-attr", Hierarchy: hn, Index: idx, Name: "k"}
		}
	}
	return ops
}

// replayHistoryBatch applies ops to a fresh decode of the image pre and
// returns the image of the result, or the batch's veto.
func replayHistoryBatch(t *testing.T, pre []byte, ops []editor.Op) ([]byte, error) {
	s := editor.NewSession(decodeImage(t, pre), validate.NewSchema(), editor.Options{})
	if err := s.ApplyBatch(ops); err != nil {
		return nil, err
	}
	return imageOf(t, s.Document()), nil
}

// catalogImage is the v3 image of the catalog's current document.
func catalogImage(t *testing.T, c *Catalog) []byte {
	t.Helper()
	var img []byte
	if err := c.View("doc", func(doc *core.Document) error {
		img = imageOf(t, doc.GODDAG())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return img
}

func imageOf(t *testing.T, doc *goddag.Document) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := store.EncodeV3(&buf, doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decodeImage(t *testing.T, img []byte) *goddag.Document {
	t.Helper()
	doc, err := store.Decode(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// renderQuery evaluates q and renders the value without pointers, so
// results from different document values compare as text.
func renderQuery(t *testing.T, doc *goddag.Document, q string, opts xpath.Options) string {
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
	return b.String()
}

// TestLegacyV2SnapshotRecordReplays writes a WAL segment whose snapshot
// record carries a v2-encoded document, as the closure-based write path
// of earlier versions logged after an undo or redo, and requires that
// reopening the directory recovers that document and converges it.
func TestLegacyV2SnapshotRecordReplays(t *testing.T) {
	dir := writePlainDir(t, "plain")
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := c.Get("plain")
	if err != nil {
		t.Fatal(err)
	}
	want := decodeImage(t, imageOf(t, doc.GODDAG()))
	s := editor.NewSession(want, validate.NewSchema(), editor.Options{})
	if err := s.ApplyBatch([]editor.Op{
		{Op: "insert-markup", Hierarchy: "edits", Tag: "edit", Start: 4, End: 9, Attrs: map[string]string{"k": "v2"}},
	}); err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := store.Encode(&v2, s.Document()); err != nil {
		t.Fatal(err)
	}
	w, _, err := store.OpenWAL(faultfs.OS, filepath.Join(dir, "plain.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(store.RecordSnapshot, 0, v2.Bytes()); err != nil {
		t.Fatal(err)
	}
	w.Close()

	c2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.Get("plain")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(imageOf(t, got.GODDAG()), imageOf(t, s.Document())) {
		t.Fatalf("recovered document differs from the v2 snapshot:\n%s", goddag.Dump(got.GODDAG()))
	}
	if st := c2.Stats(); st.Replayed != 1 {
		t.Fatalf("replayed %d records, want 1", st.Replayed)
	}
	if fi, err := os.Stat(filepath.Join(dir, "plain.wal")); err != nil || fi.Size() != store.WALHeaderLen {
		t.Fatalf("log not reset after converging: %v %v", fi, err)
	}
}
