package store

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"repro/internal/corpus"
	"repro/internal/faultfs"
	"repro/internal/xpath"
)

// protectFS maps files like faultfs.OS, but releasing a mapping revokes
// access to its pages (mprotect PROT_NONE) instead of unmapping them,
// so a later read of a released mapping faults deterministically rather
// than reading whatever the address range holds next. The pages are
// never unmapped; that is acceptable in a test.
type protectFS struct {
	faultfs.FS
	released atomic.Int64

	mu   sync.Mutex
	last []byte // the most recent mapping's bytes
}

func (p *protectFS) Map(name string) (*faultfs.Mapping, error) {
	mp, err := faultfs.OS.(faultfs.Mapper).Map(name)
	if err != nil || !mp.Mapped() {
		return mp, err
	}
	data := mp.Data
	p.mu.Lock()
	p.last = data
	p.mu.Unlock()
	return faultfs.NewMapping(data, func() error {
		p.released.Add(1)
		return syscall.Mprotect(data, syscall.PROT_NONE)
	}), nil
}

// collectUntil runs the garbage collector until done reports true, and
// reports whether it did. Finalizers run on their own goroutine after
// the cycle that found their object unreachable, hence the pauses.
func collectUntil(done func() bool) bool {
	for i := 0; i < 200 && !done(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	return done()
}

// readKept reads every byte of every kept string with faults turned
// into panics, and reports the first fault.
func readKept(kept []string) (sum int, err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("fault reading a kept string: %v", r)
		}
	}()
	for _, s := range kept {
		for i := 0; i < len(s); i++ {
			sum += int(s[i])
		}
	}
	return sum, nil
}

// writeFig1V3 saves the Figure 1 document as a v3 file.
func writeFig1V3(t *testing.T) string {
	t.Helper()
	doc, err := corpus.Fig1Document()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fig1.gdag")
	if err := SaveFS(faultfs.OS, path, doc); err != nil {
		t.Fatal(err)
	}
	return path
}

// keepStrings opens path through fsys, materializes the document and
// returns one string of every kind it hands out: root tag, hierarchy
// names, element names, attribute names and values, content slices and
// an xpath string value. It also returns MappedBytes as read while the
// document is still reachable: once it returns, the document is not, and
// a background collection may release its mapping at any moment.
func keepStrings(t *testing.T, fsys faultfs.FS, path string) (kept []string, mapped int64) {
	t.Helper()
	doc, _, err := OpenMappedDoc(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	kept = []string{doc.RootTag(), doc.Content().String()}
	kept = append(kept, doc.HierarchyNames()...)
	attrs := 0
	for _, e := range doc.Elements() {
		kept = append(kept, e.Name(), doc.Content().Slice(e.Span()))
		for _, a := range e.Attrs() {
			kept = append(kept, a.Name, a.Value)
			attrs++
		}
	}
	if attrs == 0 {
		t.Fatal("test document has no attributes")
	}
	v, err := xpath.MustCompile("string(//w[2])").Eval(doc)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() == "" {
		t.Fatal("empty xpath string value")
	}
	mapped = MappedBytes()
	runtime.KeepAlive(doc)
	return append(kept, v.String()), mapped
}

// TestReleasedMappingNeverRead drops a mapped document, collects until
// its mapping is released, and reads every string the document handed
// out: none may alias the released mapping. The control keeps a slice
// of the mapping itself, which must fault, so the harness can see a
// stale read.
func TestReleasedMappingNeverRead(t *testing.T) {
	path := writeFig1V3(t)
	size := fileSize(t, path)

	t.Run("strings", func(t *testing.T) {
		fsys := &protectFS{FS: faultfs.OS}
		runtime.GC() // run pending finalizers before taking the baseline
		runtime.GC()
		base := MappedBytes()
		kept, mapped := keepStrings(t, fsys, path)
		if got := mapped - base; got != size {
			t.Fatalf("open maps %d bytes, file has %d", got, size)
		}
		if !collectUntil(func() bool { return fsys.released.Load() == 1 }) {
			t.Fatal("the dropped document's mapping was never released")
		}
		if got := MappedBytes(); got != base {
			t.Fatalf("MappedBytes %d after release, want %d", got, base)
		}
		if _, err := readKept(kept); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("control", func(t *testing.T) {
		fsys := &protectFS{FS: faultfs.OS}
		keepStrings(t, fsys, path)
		fsys.mu.Lock()
		raw := fsys.last
		fsys.mu.Unlock()
		stale := unsafe.String(unsafe.SliceData(raw), len(raw))
		if _, err := readKept([]string{stale}); err != nil {
			t.Fatalf("reading a live mapping: %v", err)
		}
		if !collectUntil(func() bool { return fsys.released.Load() == 1 }) {
			t.Fatal("the dropped document's mapping was never released")
		}
		if _, err := readKept([]string{stale}); err == nil {
			t.Fatal("reading a released mapping did not fault: the harness cannot see a stale read")
		}
	})
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
