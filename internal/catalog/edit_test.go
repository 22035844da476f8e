package catalog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/document"
	"repro/internal/editor"
	"repro/internal/store"
)

// editOps inserts one "edit" element over [0, 4).
var editOps = []editor.Op{{Op: "insert-markup", Hierarchy: "edits", Tag: "edit", Start: 0, End: 4}}

func countEdits(doc *core.Document) int {
	return len(doc.GODDAG().ElementsNamed("edit"))
}

func TestUpdatePersistsAndSurvivesReload(t *testing.T) {
	dir := writeCorpusDir(t, 60)
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Edit a document whose source form is standoff XML: the commit must
	// write standoff.gdag and repoint the entry to it.
	if err := c.UpdateBatch("standoff", editOps, nil); err != nil {
		t.Fatal(err)
	}
	saved := filepath.Join(dir, "standoff.gdag")
	data, err := os.ReadFile(saved)
	if err != nil {
		t.Fatalf("save-on-commit did not write the .gdag: %v", err)
	}
	ds, _ := c.Doc("standoff")
	if ds.Dirty || ds.Edits != 1 {
		t.Fatalf("stats after commit: dirty=%v edits=%d", ds.Dirty, ds.Edits)
	}
	if len(ds.Paths) != 1 || ds.Paths[0] != saved {
		t.Fatalf("entry not repointed to saved file: %v", ds.Paths)
	}

	// Reload from the saved file and require byte-identical persistence:
	// re-encoding the reloaded document (saves write v3) reproduces the
	// file exactly.
	if !c.Evict("standoff") {
		t.Fatal("clean edited document refused eviction")
	}
	doc, err := c.Get("standoff")
	if err != nil {
		t.Fatal(err)
	}
	if got := countEdits(doc); got != 1 {
		t.Fatalf("reloaded document has %d edit elements, want 1", got)
	}
	var buf bytes.Buffer
	if err := store.EncodeV3(&buf, doc.GODDAG()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("reloaded document does not re-encode byte-identically to the saved file")
	}

	// A fresh catalog over the same directory must prefer the edited
	// .gdag over the stale standoff.xml source.
	c2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc2, err := c2.Get("standoff")
	if err != nil {
		t.Fatal(err)
	}
	if got := countEdits(doc2); got != 1 {
		t.Fatalf("re-opened catalog lost the edit: %d edit elements", got)
	}
}

func TestUpdateFailureRollsBackAndSkipsSave(t *testing.T) {
	dir := writeCorpusDir(t, 60)
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The second op's index is out of range: the batch vetoes after its
	// first op applied.
	err = c.UpdateBatch("ms", append(editOps[:1:1],
		editor.Op{Op: "set-attr", Hierarchy: "edits", Index: 9, Name: "k", Value: "v"}), nil)
	var be *editor.BatchError
	if !errors.As(err, &be) || be.Index != 1 {
		t.Fatalf("vetoed batch error = %v", err)
	}
	ds, _ := c.Doc("ms")
	if ds.Dirty || ds.Edits != 0 {
		t.Fatalf("failed update left dirty=%v edits=%d", ds.Dirty, ds.Edits)
	}
	doc, err := c.Get("ms")
	if err != nil {
		t.Fatal(err)
	}
	if got := countEdits(doc); got != 0 {
		t.Fatalf("rolled-back update left %d edit elements", got)
	}
	// ms.gdag pre-existed (source form); it must still decode to the
	// unedited document.
	if !c.Evict("ms") {
		t.Fatal("evict failed")
	}
	doc, err = c.Get("ms")
	if err != nil {
		t.Fatal(err)
	}
	if got := countEdits(doc); got != 0 {
		t.Fatalf("source file gained %d edit elements from a failed update", got)
	}
}

func TestFailedSaveMarksDirtyAndBlocksEviction(t *testing.T) {
	dir := writeCorpusDir(t, 60)
	// Without the WAL the save is the commit, so its failure is reported.
	c, err := Open(dir, Options{DisableWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	// Make the save's rename fail: occupy standoff.gdag with a non-empty
	// directory (os.Rename cannot replace it).
	block := filepath.Join(dir, "standoff.gdag")
	if err := os.MkdirAll(filepath.Join(block, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	err = c.UpdateBatch("standoff", editOps, nil)
	if err == nil || !strings.Contains(err.Error(), "not persisted") {
		t.Fatalf("UpdateBatch with blocked save: %v", err)
	}
	ds, _ := c.Doc("standoff")
	if !ds.Dirty {
		t.Fatal("failed save did not mark the entry dirty")
	}
	// The edit is live in memory and must not be evictable.
	if c.Evict("standoff") {
		t.Fatal("dirty document was evicted")
	}
	doc, err := c.Get("standoff")
	if err != nil {
		t.Fatal(err)
	}
	if got := countEdits(doc); got != 1 {
		t.Fatalf("in-memory edit lost: %d edit elements", got)
	}
	// Unblock and commit another edit: the save succeeds and clears dirty.
	if err := os.RemoveAll(block); err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateBatch("standoff", editOps, nil); err != nil {
		t.Fatal(err)
	}
	ds, _ = c.Doc("standoff")
	if ds.Dirty || ds.Edits != 2 {
		t.Fatalf("after recovery: dirty=%v edits=%d", ds.Dirty, ds.Edits)
	}
	if !c.Evict("standoff") {
		t.Fatal("clean document refused eviction")
	}
}

// TestConcurrentViewUpdate hammers one document with parallel readers
// (queries over the repaired indexes) and writers (insert/remove
// transactions); run under -race it proves the per-document RW lock
// keeps readers on consistent snapshots during edits.
func TestConcurrentViewUpdate(t *testing.T) {
	dir := writeCorpusDir(t, 120)
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := c.Get("ms")
	if err != nil {
		t.Fatal(err)
	}
	cn := doc.GODDAG().Content() // markup edits leave the content alone
	const readers, writers, rounds = 8, 2, 20
	var wg sync.WaitGroup
	errs := make(chan error, readers+writers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Rune-aligned spans: the corpus vocabulary is multibyte.
				lo := 4 * (w*rounds + i)
				sp := cn.ByteSpan(document.NewSpan(lo, lo+3))
				err := c.UpdateBatch("ms", []editor.Op{{
					Op: "insert-markup", Hierarchy: fmt.Sprintf("writer%d", w), Tag: "edit", Start: sp.Start, End: sp.End,
				}}, nil)
				if err != nil {
					errs <- fmt.Errorf("writer %d round %d: %w", w, i, err)
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds*4; i++ {
				err := c.View("ms", func(doc *core.Document) error {
					if _, err := doc.Query("//w"); err != nil {
						return err
					}
					_, err := doc.QueryValue("count(//edit)")
					return err
				})
				if err != nil {
					errs <- fmt.Errorf("reader: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	doc, err = c.Get("ms")
	if err != nil {
		t.Fatal(err)
	}
	if got := countEdits(doc); got != writers*rounds {
		t.Fatalf("committed %d edit elements, want %d", got, writers*rounds)
	}
}
