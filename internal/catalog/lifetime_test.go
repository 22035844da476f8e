package catalog

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

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/store"
	"repro/internal/xpath"
)

// protectFS maps files like faultfs.OS, but releasing a mapping revokes
// access to its pages (mprotect PROT_NONE) instead of unmapping them,
// so a read of a released mapping faults deterministically. live counts
// the bytes of mappings not yet released.
type protectFS struct {
	faultfs.FS
	live, released atomic.Int64
}

func (p *protectFS) Map(name string) (*faultfs.Mapping, error) {
	mp, err := faultfs.OS.(faultfs.Mapper).Map(name)
	if err != nil || !mp.Mapped() {
		return mp, err
	}
	data := mp.Data
	p.live.Add(int64(len(data)))
	return faultfs.NewMapping(data, func() error {
		p.live.Add(-int64(len(data)))
		p.released.Add(1)
		return syscall.Mprotect(data, syscall.PROT_NONE)
	}), nil
}

// TestEvictedMappingsReleasedUnderLoad runs concurrent readers over a
// catalog of mapped documents whose budget holds only a few of them, so
// their cold loads evict one another. Every mapping is released by
// revoking access to its pages: a read of an evicted document's mapping
// (during a query, or later through a string a query kept) faults. No
// read may fault, and once the GC has run, exactly the mappings of the
// resident mapped documents remain.
func TestEvictedMappingsReleasedUnderLoad(t *testing.T) {
	const docs, readers, views = 6, 4, 30
	dir := writeGdagDir(t, docs, 200, encodeV3File)
	qCount, qNodes := xpath.MustCompile("count(//w)"), xpath.MustCompile("//w")

	// Budget: about two documents as one query leaves them.
	probe, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.View("doc0", func(d *core.Document) error {
		_, err := qNodes.Eval(d.GODDAG())
		return err
	}); err != nil {
		t.Fatal(err)
	}
	ds, _ := probe.Doc("doc0")

	// Baseline: collect until the mappings of earlier tests' dropped
	// catalogs (and the probe's) have all been released.
	base := store.MappedBytes()
	for stable, i := 0, 0; stable < 3 && i < 200; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		if cur := store.MappedBytes(); cur != base {
			base, stable = cur, 0
		} else {
			stable++
		}
	}
	fsys := &protectFS{FS: faultfs.OS}
	c, err := Open(dir, Options{FS: fsys, Budget: 2 * ds.Bytes})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var kept []string
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("reader %d: %v", r, p)
				}
			}()
			var mine []string
			for i := 0; i < views; i++ {
				id := fmt.Sprintf("doc%d", (r+3*i)%docs)
				err := c.View(id, func(d *core.Document) error {
					g := d.GODDAG()
					s, err := qCount.Stream(g)
					if err != nil {
						return err
					}
					v, _ := s.Value()
					s.Close()
					nodes, err := qNodes.Eval(g)
					if err != nil {
						return err
					}
					if float64(len(nodes.Nodes())) != v.Number() {
						return fmt.Errorf("%s: count(//w) %v, //w %d nodes", id, v.Number(), len(nodes.Nodes()))
					}
					for _, n := range nodes.Nodes()[:3] {
						mine = append(mine, n.Text())
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
			mu.Lock()
			kept = append(kept, mine...)
			mu.Unlock()
		}(r)
	}
	wg.Wait()
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions under budget %d: %+v", 2*ds.Bytes, st)
	}

	var want int64
	for _, d := range c.Stats().Docs {
		if d.Resident && d.Mapped {
			fi, err := os.Stat(filepath.Join(dir, d.ID+".gdag"))
			if err != nil {
				t.Fatal(err)
			}
			want += fi.Size()
		}
	}
	for i := 0; i < 200 && (fsys.live.Load() != want || store.MappedBytes()-base != want); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := fsys.live.Load(); got != want {
		t.Fatalf("%d bytes still mapped after GC, resident mapped documents hold %d", got, want)
	}
	if got := store.MappedBytes() - base; got != want {
		t.Fatalf("MappedBytes grew by %d, resident mapped documents hold %d", got, want)
	}
	if fsys.released.Load() == 0 {
		t.Fatal("no mapping was released")
	}

	func() {
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("reading a kept string after release: %v", p)
			}
		}()
		sum := 0
		for _, s := range kept {
			for i := 0; i < len(s); i++ {
				sum += int(s[i])
			}
		}
		if sum == 0 {
			t.Error("kept strings are empty")
		}
	}()
	runtime.KeepAlive(c)
}
