package faultfs

import (
	"fmt"
	"io"
	"sync"
	"syscall"
)

// The memory-mapping operations. OpMap is the open-without-decode read
// path of the v3 store; OpUnmap fires when a mapping is released: by an
// explicit close, or by the store's finalizer on the Mapping once the
// garbage collector has found the document built over it unreachable
// (an evicted catalog document whose last query has finished).
const (
	OpMap   Op = "map"
	OpUnmap Op = "unmap"
)

// Mapping is a read-only view of a file's contents. Data stays valid
// until Close. For memory-mapped backings the bytes alias the page
// cache and writing through them faults; fallback (heap) backings are
// plain buffers and Close is a no-op.
type Mapping struct {
	Data []byte

	once  sync.Once
	unmap func() error
	err   error
}

// NewMapping wraps data, read-only bytes that release frees, as a
// Mapping; release runs once, on the first Close. It lets a Mapper
// outside this package back mappings its own way.
func NewMapping(data []byte, release func() error) *Mapping {
	return &Mapping{Data: data, unmap: release}
}

// Close releases the mapping. Safe to call more than once; after the
// first call Data must no longer be referenced.
func (m *Mapping) Close() error {
	m.once.Do(func() {
		if m.unmap != nil {
			m.err = m.unmap()
			m.unmap = nil
		}
		m.Data = nil
	})
	return m.err
}

// Mapped reports whether the bytes are a true memory mapping (as
// opposed to a heap fallback read).
func (m *Mapping) Mapped() bool { return m.unmap != nil }

// Mapper is the optional FS extension for zero-copy reads. OS
// implements it with mmap; the Injector implements it so the crash
// matrix can veto map/unmap like any other operation.
type Mapper interface {
	// Map returns a read-only view of the file's current contents.
	Map(name string) (*Mapping, error)
}

// Map returns a read-only view of name's contents through fsys. When
// fsys implements Mapper the view is zero-copy (mmap on OS); otherwise
// the file is read into memory through the seam, so fault hooks on the
// plain read path still apply.
func Map(fsys FS, name string) (*Mapping, error) {
	if m, ok := fsys.(Mapper); ok {
		return m.Map(name)
	}
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("faultfs: map fallback read %s: %w", name, err)
	}
	return &Mapping{Data: data}, nil
}

// Map implements Mapper: a shared read-only mmap of the whole file. The
// descriptor is closed immediately — the mapping keeps the pages alive.
func (osFS) Map(name string) (*Mapping, error) {
	f, err := OS.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := OS.Stat(name)
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return &Mapping{}, nil
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("faultfs: map %s: file too large (%d bytes)", name, size)
	}
	fd, ok := f.(interface{ Fd() uintptr })
	if !ok {
		return nil, fmt.Errorf("faultfs: map %s: no file descriptor", name)
	}
	data, err := syscall.Mmap(int(fd.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("faultfs: mmap %s: %w", name, err)
	}
	return &Mapping{Data: data, unmap: func() error { return syscall.Munmap(data) }}, nil
}

// Map implements Mapper for the Injector: the hook can veto the map
// itself (OpMap) and, later, the release (OpUnmap). A vetoed unmap
// still releases the pages — leaking a mapping is never a useful
// failure mode — but surfaces the injected error.
func (in *Injector) Map(name string) (*Mapping, error) {
	if err := in.check(OpMap, name); err != nil {
		return nil, err
	}
	m, err := Map(in.inner, name)
	if err != nil {
		return nil, err
	}
	inner := m.unmap
	m.unmap = func() error {
		err := in.check(OpUnmap, name)
		if inner != nil {
			if uerr := inner(); err == nil {
				err = uerr
			}
		}
		return err
	}
	return m, nil
}
