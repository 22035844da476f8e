package xpath

import (
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/faultfs"
	"repro/internal/store"
)

// TestPlanSlotReleasesMappedDoc plans a query against a mapped document,
// keeps the compiled query (as the server's query cache does) and drops
// the document: the query's plan slot must not keep the document, or
// the file mapping behind it, alive.
func TestPlanSlotReleasesMappedDoc(t *testing.T) {
	doc, err := corpus.Generate(corpus.DefaultConfig(200))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.gdag")
	if err := store.SaveFS(faultfs.OS, path, doc); err != nil {
		t.Fatal(err)
	}
	q := MustCompile("count(//w)")
	runtime.GC() // run pending finalizers before taking the baseline
	runtime.GC()
	base := store.MappedBytes()
	if planOnce(t, q, path) == base {
		t.Fatal("the open mapped nothing")
	}
	if q.plan.Load() == nil {
		t.Fatal("the query cached no plan")
	}
	for i := 0; i < 200 && store.MappedBytes() != base; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := store.MappedBytes(); got != base {
		t.Fatalf("MappedBytes %d after the document was dropped, want %d: the cached plan pins it", got, base)
	}
	runtime.KeepAlive(q)
}

// planOnce opens path mapped and streams q over it, which plans it, and
// returns store.MappedBytes as read while the document is reachable:
// once it returns, the document is not, and a background collection may
// release its mapping at any moment.
func planOnce(t *testing.T, q *Query, path string) int64 {
	t.Helper()
	doc, _, err := store.OpenMappedDoc(faultfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := q.Stream(doc)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if v, _ := s.Value(); v.Number() == 0 {
		t.Fatal("count(//w) = 0")
	}
	mapped := store.MappedBytes()
	runtime.KeepAlive(doc)
	return mapped
}
