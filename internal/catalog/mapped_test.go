package catalog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/editor"
	"repro/internal/faultfs"
	"repro/internal/goddag"
	"repro/internal/store"
)

// writeGdagDir builds a catalog directory of n .gdag documents
// (doc0..doc<n-1>), encoded with enc.
func writeGdagDir(t testing.TB, n, words int, enc func(f *os.File, doc *goddag.Document) error) string {
	t.Helper()
	dir := t.TempDir()
	for i := 0; i < n; i++ {
		cfg := corpus.DefaultConfig(words)
		cfg.Seed = int64(i + 1)
		doc, err := corpus.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("doc%d.gdag", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := enc(f, doc); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func encodeV3File(f *os.File, doc *goddag.Document) error { return store.EncodeV3(f, doc) }
func encodeV2File(f *os.File, doc *goddag.Document) error { return store.Encode(f, doc) }

// TestMappedLoadServesAndRecharges opens a v3 file through the catalog:
// the load must come up mapped with a small resident charge, queries
// must work (materializing lazily), and the charge must grow once the
// document is touched.
func TestMappedLoadServesAndRecharges(t *testing.T) {
	dir := writeGdagDir(t, 1, 400, encodeV3File)
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := c.Get("doc0")
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := c.Doc("doc0")
	if !ds.Resident || !ds.Mapped {
		t.Fatalf("v3 load not mapped: %+v", ds)
	}
	coldBytes := ds.Bytes
	if coldBytes <= 0 {
		t.Fatalf("mapped doc charged %d bytes", coldBytes)
	}

	// Query: materializes off the mapping; results must match a heap
	// decode of the same file.
	n := len(doc.GODDAG().ElementsNamed("w"))
	heap, err := store.Decode(mustOpen(t, filepath.Join(dir, "doc0.gdag")))
	if err != nil {
		t.Fatal(err)
	}
	if hn := len(heap.ElementsNamed("w")); n != hn {
		t.Fatalf("mapped query found %d w elements, heap decode %d", n, hn)
	}

	ds, _ = c.Doc("doc0")
	if !ds.Mapped {
		t.Fatalf("read-only touch should not unmap: %+v", ds)
	}
	if ds.Bytes <= coldBytes {
		t.Fatalf("materialization did not grow the charge: %d -> %d", coldBytes, ds.Bytes)
	}
	if s := c.Stats(); s.Bytes != ds.Bytes {
		t.Fatalf("catalog bytes %d != doc bytes %d", s.Bytes, ds.Bytes)
	}
}

func mustOpen(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestMappedEditPromotesAndStaysV3 edits a mapped document: the edit
// promotes it to the heap (Mapped clears, the charge becomes a heap
// estimate) and the save keeps the file v3.
func TestMappedEditPromotesAndStaysV3(t *testing.T) {
	dir := writeGdagDir(t, 1, 200, encodeV3File)
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateBatch("doc0", patchAll(t, c, "doc0"), nil); err != nil {
		t.Fatal(err)
	}
	ds, _ := c.Doc("doc0")
	if ds.Mapped {
		t.Fatalf("edited document still reports mapped: %+v", ds)
	}
	if ds.Dirty {
		t.Fatalf("save failed: %+v", ds)
	}
	data, err := os.ReadFile(filepath.Join(dir, "doc0.gdag"))
	if err != nil {
		t.Fatal(err)
	}
	if data[4] != 3 {
		t.Fatalf("saved file version %d, want 3", data[4])
	}
	// The saved (still v3) file reloads mapped.
	if !c.Evict("doc0") {
		t.Fatal("eviction refused")
	}
	if _, err := c.Get("doc0"); err != nil {
		t.Fatal(err)
	}
	if ds, _ := c.Doc("doc0"); !ds.Mapped {
		t.Fatalf("reload of saved v3 not mapped: %+v", ds)
	}
}

// TestV2FileFallsBackAndMigratesOnSave loads a v2 .gdag (heap decode
// fallback) and checks the first committed edit rewrites it as v3.
func TestV2FileFallsBackAndMigratesOnSave(t *testing.T) {
	dir := writeGdagDir(t, 1, 200, encodeV2File)
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("doc0"); err != nil {
		t.Fatal(err)
	}
	ds, _ := c.Doc("doc0")
	if !ds.Resident || ds.Mapped {
		t.Fatalf("v2 load should be heap-resident, not mapped: %+v", ds)
	}
	c.mu.Lock()
	fb := c.v2Fallbacks
	c.mu.Unlock()
	if fb != 1 {
		t.Fatalf("v2 fallback counter = %d, want 1", fb)
	}
	if err := c.UpdateBatch("doc0", patchAll(t, c, "doc0"), nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "doc0.gdag"))
	if err != nil {
		t.Fatal(err)
	}
	if data[4] != 3 {
		t.Fatalf("migrated file version %d, want 3", data[4])
	}
}

// TestMapFaultFailsLoad vetoes the mmap through the fault seam: the
// load must surface the error rather than serve a partial document.
func TestMapFaultFailsLoad(t *testing.T) {
	dir := writeGdagDir(t, 1, 100, encodeV3File)
	inj := faultfs.NewInjector(faultfs.OS)
	bang := errors.New("mmap vetoed")
	inj.SetHook(func(op faultfs.Op, path string) error {
		if op == faultfs.OpMap {
			return bang
		}
		return nil
	})
	c, err := Open(dir, Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("doc0"); !errors.Is(err, bang) {
		t.Fatalf("vetoed map: got %v, want %v", err, bang)
	}
	if got := inj.Count(faultfs.OpMap); got == 0 {
		t.Fatal("map operation never reached the injector")
	}
	// Clearing the hook and the cached failure heals the document.
	inj.SetHook(nil)
	c.Evict("doc0")
	if _, err := c.Get("doc0"); err != nil {
		t.Fatalf("load after fault cleared: %v", err)
	}
}

// TestMappedResidencyUnderBudget holds N mapped documents against the
// same byte budget that evicts their heap-decoded twins: mapped opens
// charge only touched bytes, so far more documents stay resident.
func TestMappedResidencyUnderBudget(t *testing.T) {
	const docs = 8
	// Budget sized to roughly two heap-resident copies.
	heapDir := writeGdagDir(t, docs, 300, encodeV2File)
	probe, err := Open(heapDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Get("doc0"); err != nil {
		t.Fatal(err)
	}
	ds, _ := probe.Doc("doc0")
	budget := 2*ds.Bytes + ds.Bytes/2

	heapCat, err := Open(heapDir, Options{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	mapDir := writeGdagDir(t, docs, 300, encodeV3File)
	mapCat, err := Open(mapDir, Options{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < docs; i++ {
		id := fmt.Sprintf("doc%d", i)
		if _, err := heapCat.Get(id); err != nil {
			t.Fatal(err)
		}
		if _, err := mapCat.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	hs, ms := heapCat.Stats(), mapCat.Stats()
	if hs.Resident >= docs {
		t.Fatalf("heap catalog held all %d docs under budget %d — budget too loose to test", docs, budget)
	}
	if ms.Resident != docs {
		t.Fatalf("mapped catalog resident %d of %d under budget %d (bytes %d)",
			ms.Resident, docs, budget, ms.Bytes)
	}
	if ms.Bytes > hs.Bytes {
		t.Fatalf("mapped resident bytes %d exceed heap resident bytes %d", ms.Bytes, hs.Bytes)
	}
}

// patchAll is an op batch inserting a <patch> over the whole content of
// id's first hierarchy.
func patchAll(t *testing.T, c *Catalog, id string) []editor.Op {
	t.Helper()
	doc, err := c.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	g := doc.GODDAG()
	return []editor.Op{{Op: "insert-markup", Hierarchy: g.HierarchyNames()[0], Tag: "patch", Start: 0, End: g.Content().Len()}}
}

// v3Sections reads a v3 image's section directory: id → [off, off+n).
func v3Sections(t *testing.T, data []byte) map[int][2]int {
	t.Helper()
	const headerLen, entryLen = 16, 24
	nsec := int(binary.LittleEndian.Uint32(data[8:]))
	secs := make(map[int][2]int, nsec)
	for i := 0; i < nsec; i++ {
		e := data[headerLen+i*entryLen:]
		id, n, off := binary.LittleEndian.Uint32(e), binary.LittleEndian.Uint32(e[4:]), binary.LittleEndian.Uint64(e[8:])
		secs[int(id)] = [2]int{int(off), int(off) + int(n)}
	}
	return secs
}

// TestDamagedV3FailsLoad flips the first byte of each section after the
// content, one section at a time. The damaged document must fail its
// load: View returns an error without running its reader (never an
// empty result), an edit is refused, and the file keeps its bytes.
func TestDamagedV3FailsLoad(t *testing.T) {
	const contentSec, lastSec = 2, 19
	doc, err := corpus.Generate(corpus.DefaultConfig(400))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := store.EncodeV3(&buf, doc); err != nil {
		t.Fatal(err)
	}
	image := buf.Bytes()
	secs := v3Sections(t, image)
	op := editor.Op{Op: "insert-markup", Hierarchy: doc.HierarchyNames()[0], Tag: "patch", Start: 0, End: doc.Content().Len()}
	for id := contentSec + 1; id <= lastSec; id++ {
		sec, ok := secs[id]
		if !ok || sec[1] == sec[0] {
			t.Fatalf("section %d missing or empty in a 400-word image", id)
		}
		damaged := bytes.Clone(image)
		damaged[sec[0]] ^= 0xff
		dir := t.TempDir()
		path := filepath.Join(dir, "doc0.gdag")
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ran := false
		if err := c.View("doc0", func(*core.Document) error { ran = true; return nil }); err == nil || ran {
			t.Fatalf("section %d damaged: View err=%v ran=%v, want an error before the reader", id, err, ran)
		}
		c.Evict("doc0") // clear the cached failure so the edit loads again
		if err := c.UpdateBatch("doc0", []editor.Op{op}, nil); err == nil {
			t.Fatalf("section %d damaged: edit succeeded", id)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, damaged) {
			t.Fatalf("section %d damaged: the file changed on disk", id)
		}
	}
}

// TestCommitKeepsHistoryCharge edits a mapped document and then hits
// it: the commit charges the document plus its edit history, and the
// hit must not recharge it at the document's footprint alone.
func TestCommitKeepsHistoryCharge(t *testing.T) {
	dir := writeGdagDir(t, 1, 2000, encodeV3File)
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateBatch("doc0", patchAll(t, c, "doc0"), nil); err != nil {
		t.Fatal(err)
	}
	doc, err := c.Get("doc0")
	if err != nil {
		t.Fatal(err)
	}
	want := doc.GODDAG().Footprint() + doc.Edit().HistoryFootprint()
	if ds, _ := c.Doc("doc0"); ds.Bytes != want {
		t.Fatalf("charge after commit and hit = %d, want footprint + history = %d", ds.Bytes, want)
	}
	if s := c.Stats(); s.Bytes != want {
		t.Fatalf("catalog bytes %d, want %d", s.Bytes, want)
	}
}

// TestV2LoadReadsThroughCatalogFS loads a v2 file through a fault
// injector: the load maps the file once and opens it once, both through
// the catalog's FS, so a failed open fails the load.
func TestV2LoadReadsThroughCatalogFS(t *testing.T) {
	dir := writeGdagDir(t, 1, 200, encodeV2File)
	inj := faultfs.NewInjector(faultfs.OS)
	counts := map[faultfs.Op]int{}
	inj.SetHook(func(op faultfs.Op, path string) error {
		if strings.HasSuffix(path, ".gdag") {
			counts[op]++
		}
		return nil
	})
	c, err := Open(dir, Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	clear(counts)
	if _, err := c.Get("doc0"); err != nil {
		t.Fatal(err)
	}
	if counts[faultfs.OpMap] != 1 || counts[faultfs.OpOpen] != 1 {
		t.Fatalf("v2 load made %d maps and %d opens of the file, want 1 and 1", counts[faultfs.OpMap], counts[faultfs.OpOpen])
	}

	bang := errors.New("open vetoed")
	inj.SetHook(func(op faultfs.Op, path string) error {
		if op == faultfs.OpOpen && strings.HasSuffix(path, ".gdag") {
			return bang
		}
		return nil
	})
	c, err = Open(dir, Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("doc0"); !errors.Is(err, bang) {
		t.Fatalf("vetoed open: got %v, want %v", err, bang)
	}
}
