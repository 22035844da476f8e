package main

import (
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/faultfs"
)

// fileKind classifies the files the durability layer touches.
type fileKind uint8

const (
	kindOther fileKind = iota
	kindWAL            // <id>.wal
	kindGdag           // .gdag-tmp-* (a save in progress) or <id>.gdag
	kindDir            // a directory opened for its fsync
)

func classify(name string) fileKind {
	base := filepath.Base(name)
	switch {
	case strings.HasSuffix(base, ".wal"):
		return kindWAL
	case strings.HasPrefix(base, ".gdag-tmp-") || strings.HasSuffix(base, ".gdag"):
		return kindGdag
	case filepath.Ext(base) == "":
		return kindDir
	}
	return kindOther
}

// fsCounts are the cumulative totals of a countingFS.
type fsCounts struct {
	WALBytes  int64 // bytes written to write-ahead logs
	GdagBytes int64 // bytes written to .gdag files (temp images)
	Syncs     int64 // fsyncs of any file or directory
	SyncNS    int64 // time spent in those fsyncs
	Renames   int64
	Maps      int64 // zero-copy opens through faultfs.Mapper
	MapBytes  int64 // bytes those maps exposed
}

func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{
		WALBytes: a.WALBytes - b.WALBytes, GdagBytes: a.GdagBytes - b.GdagBytes,
		Syncs: a.Syncs - b.Syncs, SyncNS: a.SyncNS - b.SyncNS, Renames: a.Renames - b.Renames,
		Maps: a.Maps - b.Maps, MapBytes: a.MapBytes - b.MapBytes,
	}
}

// fsEvent is one timestamped filesystem call, recorded while a commit
// or a cold load is being split into stages.
type fsEvent struct {
	op         faultfs.Op
	kind       fileKind
	start, end time.Time
}

// countingFS is a faultfs.FS that forwards to faultfs.OS and counts what
// the durability layer does: bytes written per file kind, fsyncs and
// their time, renames, and the bytes of every mapped load. It forwards
// Map to faultfs.Map(faultfs.OS, …), so v3 loads stay mmap-backed. With
// recording on, every call is also timestamped, which lets the
// benchmark split an UpdateBatch or a cold load into stages from
// outside the program.
type countingFS struct {
	mu     sync.Mutex
	c      fsCounts
	record bool
	events []fsEvent

	// walSeek, when set, receives a token (if none is pending) at each
	// seek on a write-ahead log: the start of an append, made while
	// the committing batch holds the document's write lock.
	walSeek chan struct{}
}

var _ faultfs.Mapper = (*countingFS)(nil)

func (c *countingFS) counts() fsCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.c
}

// startRecording clears the event log and turns timestamping on.
func (c *countingFS) startRecording() {
	c.mu.Lock()
	c.record = true
	c.events = c.events[:0]
	c.mu.Unlock()
}

// takeEvents returns the events recorded since startRecording and stops
// recording. The slice is reused by the next recording.
func (c *countingFS) takeEvents() []fsEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.record = false
	return c.events
}

func (c *countingFS) note(op faultfs.Op, kind fileKind, start time.Time, update func(*fsCounts)) {
	end := time.Now()
	c.mu.Lock()
	if update != nil {
		update(&c.c)
	}
	if c.record {
		c.events = append(c.events, fsEvent{op: op, kind: kind, start: start, end: end})
	}
	c.mu.Unlock()
}

func (c *countingFS) wrap(f faultfs.File, err error) (faultfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{fs: c, f: f, kind: classify(f.Name())}, nil
}

func (c *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	start := time.Now()
	f, err := c.wrap(faultfs.OS.OpenFile(name, flag, perm))
	c.note(faultfs.OpOpen, classify(name), start, nil)
	return f, err
}

func (c *countingFS) Open(name string) (faultfs.File, error) {
	start := time.Now()
	f, err := c.wrap(faultfs.OS.Open(name))
	c.note(faultfs.OpOpen, classify(name), start, nil)
	return f, err
}

func (c *countingFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	start := time.Now()
	f, err := c.wrap(faultfs.OS.CreateTemp(dir, pattern))
	c.note(faultfs.OpCreate, classify(pattern), start, nil)
	return f, err
}

func (c *countingFS) Rename(oldpath, newpath string) error {
	start := time.Now()
	err := faultfs.OS.Rename(oldpath, newpath)
	c.note(faultfs.OpRename, classify(newpath), start, func(k *fsCounts) { k.Renames++ })
	return err
}

func (c *countingFS) Remove(name string) error {
	start := time.Now()
	err := faultfs.OS.Remove(name)
	c.note(faultfs.OpRemove, classify(name), start, nil)
	return err
}

func (c *countingFS) Truncate(name string, size int64) error {
	start := time.Now()
	err := faultfs.OS.Truncate(name, size)
	c.note(faultfs.OpTruncate, classify(name), start, nil)
	return err
}

func (c *countingFS) Stat(name string) (fs.FileInfo, error) {
	start := time.Now()
	fi, err := faultfs.OS.Stat(name)
	c.note(faultfs.OpStat, classify(name), start, nil)
	return fi, err
}

// Map implements faultfs.Mapper by forwarding to the real mmap path.
func (c *countingFS) Map(name string) (*faultfs.Mapping, error) {
	start := time.Now()
	m, err := faultfs.Map(faultfs.OS, name)
	var n int64
	if err == nil {
		n = int64(len(m.Data))
	}
	c.note(faultfs.OpMap, classify(name), start, func(k *fsCounts) {
		k.Maps++
		k.MapBytes += n
	})
	return m, err
}

// countingFile counts the writes and fsyncs of one open file.
type countingFile struct {
	fs   *countingFS
	f    faultfs.File
	kind fileKind
}

func (cf *countingFile) Read(p []byte) (int, error) { return cf.f.Read(p) }

func (cf *countingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := cf.f.Write(p)
	cf.fs.note(faultfs.OpWrite, cf.kind, start, func(k *fsCounts) {
		switch cf.kind {
		case kindWAL:
			k.WALBytes += int64(n)
		case kindGdag:
			k.GdagBytes += int64(n)
		}
	})
	return n, err
}

// Seek is recorded because it opens every WAL append: its timestamp is
// where the catalog's pre-log work ends.
func (cf *countingFile) Seek(offset int64, whence int) (int64, error) {
	start := time.Now()
	off, err := cf.f.Seek(offset, whence)
	cf.fs.note("seek", cf.kind, start, nil)
	if cf.kind == kindWAL && cf.fs.walSeek != nil {
		select {
		case cf.fs.walSeek <- struct{}{}:
		default:
		}
	}
	return off, err
}

func (cf *countingFile) Close() error {
	start := time.Now()
	err := cf.f.Close()
	cf.fs.note(faultfs.OpClose, cf.kind, start, nil)
	return err
}

func (cf *countingFile) Sync() error {
	start := time.Now()
	err := cf.f.Sync()
	cf.fs.note(faultfs.OpSync, cf.kind, start, func(k *fsCounts) {
		k.Syncs++
		k.SyncNS += time.Since(start).Nanoseconds()
	})
	return err
}

func (cf *countingFile) Name() string { return cf.f.Name() }
