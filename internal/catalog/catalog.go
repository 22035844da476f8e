// Package catalog is a thread-safe manager for a *corpus* of concurrent
// XML documents — the collection layer the paper's framework assumes when
// it positions itself as infrastructure for document-centric collections
// (persistent storage is "ongoing work" in §1; package store supplies the
// format, this package supplies the serving-side manager over it).
//
// A Catalog maps document ids to source files under one directory:
//
//   - name.gdag           — binary GODDAG (package store)
//   - name.xml            — single-file representation, sniffed (standoff,
//     milestones, fragmentation, or plain single-hierarchy XML)
//   - name/ (directory)   — a distributed document: one XML file per
//     hierarchy, each hierarchy named after its file
//
// Documents load lazily on first Get. Three mechanisms make the catalog
// safe and predictable under concurrent query traffic:
//
//   - Singleflight loads: N concurrent Gets of a cold document trigger
//     exactly one parse; the others block on the in-flight load and share
//     its result.
//   - Index pre-warming: heap loads call (*goddag.Document).Warm before
//     publishing, so the index snapshot (element list, span index,
//     ordinals, name buckets) is resident before the first query — cold
//     documents never serialize their first wave of queries on a lazy
//     index rebuild. Mapped .gdag documents (format v3) are the
//     deliberate exception: they open without decoding — mmap plus the
//     full checksum and structural validation of the image, where a
//     damaged file fails its load — and materialize nodes lazily off the
//     validated columns, so pre-warming would forfeit the cheap open.
//   - A byte-budgeted LRU: each resident document is charged its
//     estimated footprint (goddag.Footprint; for mapped documents only
//     the resident bytes actually materialized, rechecked on hits);
//     when the total exceeds the budget, least-recently-used documents
//     are dropped. Eviction only forgets the catalog's reference:
//     queries still running against an evicted document keep a
//     consistent snapshot and remain valid; memory (and the file
//     mapping) is reclaimed when they finish. Documents with unsaved
//     edits (dirty) or an edit in flight are never evicted.
//
// Documents are editable. Each entry carries a read/write lock: View
// runs a reader under the read lock (any number in parallel), while
// UpdateBatch (an op batch) and Undo/Redo (a history move) run under
// the write lock (writers serialize, readers see either the pre- or
// post-edit state, never a torn one). Every write is write-ahead logged
// (see durable.go) and persisted immediately — the session's v3 image
// of the committed state is written to <id>.gdag in the catalog
// directory via an atomic temp-file + rename (store.SaveImageFS) and
// the entry repoints to that file, so a later eviction and reload
// reproduces the edited document. The dirty flag is visible in stats
// only in the window where a save failed.
//
// Get remains for read-only deployments and statistics: it returns the
// document without read-locking it, so callers that run concurrently
// with writes must use View instead. All Catalog methods are safe for
// concurrent use.
//
// Every blocking method bounds its *waiting* — for the per-document
// lock, or for a cold load — by a context (GetContext, ViewContext,
// UpdateBatchContext, Undo, Redo). Shared work is never aborted on a
// waiter's behalf: an in-flight load finishes and publishes for the
// remaining waiters, and a write past its commit point persists in
// full. The context-free names delegate with context.Background().
package catalog

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/goddag"
	"repro/internal/obs"
	"repro/internal/store"
)

// Options configure a Catalog.
type Options struct {
	// Budget is the resident-byte budget for loaded documents
	// (goddag.Footprint estimates). Zero means unlimited. The most
	// recently used document is never evicted, so a single document
	// larger than the budget still serves.
	Budget int64

	// FS is the filesystem the durability layer (saves and write-ahead
	// logs) runs on. Nil means the real one; tests inject faults through
	// a faultfs.Injector.
	FS faultfs.FS

	// DisableWAL turns off per-document write-ahead logging. With the
	// WAL on (the default), every committed edit is durable once its
	// log record is fsynced — before the document's indexes are even
	// repaired — and a crash replays the log tail on the next open.
	// Disabled, durability reverts to save-on-commit alone: an edit
	// whose save fails survives only in memory.
	DisableWAL bool

	// SaveRetries is the number of attempts each commit's save gets
	// before it is declared failed (default 3). Retries back off
	// exponentially from RetryBase (default 5ms) capped at RetryCap
	// (default 250ms).
	SaveRetries int
	RetryBase   time.Duration
	RetryCap    time.Duration

	// FailThreshold is the number of consecutive failed persists after
	// which a document degrades to read-only; the whole catalog degrades
	// at twice that. Default 3. Degradation is sticky until restart.
	FailThreshold int

	// NegCacheTTL bounds how long a failed load is served from the
	// negative cache before the source is retried; repeated failures
	// back off exponentially (capped at 64x). Zero means the 1s
	// default; negative caches failures until Evict, the pre-WAL
	// behavior.
	NegCacheTTL time.Duration

	// Obs, when non-nil, receives the catalog's metrics: load/hit/
	// eviction counters, resident-set gauges, and latency histograms
	// for cold loads, lock waits, WAL appends, and saves. Nil disables
	// instrumentation at zero cost.
	Obs *obs.Registry
}

// Durability defaults (see Options).
const (
	defaultSaveRetries   = 3
	defaultRetryBase     = 5 * time.Millisecond
	defaultRetryCap      = 250 * time.Millisecond
	defaultFailThreshold = 3
	defaultNegCacheTTL   = time.Second
)

// Catalog serves documents from a directory. Create one with Open.
type Catalog struct {
	dir    string
	budget int64

	// Durability configuration, fixed at Open.
	fsys          faultfs.FS
	walOn         bool
	saveRetries   int
	retryBase     time.Duration
	retryCap      time.Duration
	failThreshold int
	negTTL        time.Duration

	// now and sleep are the clock seams: tests pin them to step time
	// through negative-cache TTLs and retry backoffs instantly.
	now   func() time.Time
	sleep func(time.Duration)

	mu       sync.Mutex
	entries  map[string]*entry
	ids      []string   // sorted
	lru      *list.List // of *entry: resident entries, most recent first
	resident int64

	loads       uint64
	hits        uint64
	evictions   uint64
	v2Fallbacks uint64 // .gdag opens that fell back to the v2 decode path

	// Durability counters and catalog-wide degradation (guarded by mu).
	recovered    uint64 // documents that replayed at least one WAL record
	replayed     uint64 // WAL records applied across all recoveries
	saveFailures uint64 // commits whose save failed after retries
	failStreak   int    // consecutive failed persists, catalog-wide
	readOnly     bool   // degraded: persistent storage failures

	// onLoad, when set (tests), runs inside each document load, after the
	// load has been registered as in-flight and before its result is
	// published.
	onLoad func(id string)

	// met holds the pre-resolved metric handles (see obs.go); zero-value
	// (all-nil) when no registry was supplied.
	met catMetrics
}

// entry is one catalogued document. The resident fields are guarded by
// Catalog.mu; id is immutable after Open; paths/format repoint (under
// Catalog.mu) to the saved .gdag file after the first committed edit.
type entry struct {
	id     string
	paths  []string // source files (several for a distributed directory)
	format string   // cliutil.Load format, known from the Open scan

	doc    *core.Document // nil when not resident
	bytes  int64
	mapped bool          // resident copy is backed by a file mapping (v3 open)
	elem   *list.Element // position in Catalog.lru, valid while resident

	loads   uint64
	hits    uint64
	lastErr error // failed load, negative-cached until retryAt (or Evict)

	// Negative-cache state: a failed load is served from lastErr until
	// retryAt, then retried; errCount drives the exponential backoff.
	retryAt  time.Time
	errCount int

	flight *flight // in-progress load, nil otherwise

	// rw orders readers and writers of the resident document: View holds
	// the read side for the whole evaluation, a write the write side for
	// the whole edit + save. It outlives evictions (entries are never
	// deleted), so a reload under a held lock stays ordered. Acquisition
	// is context-bounded (ctxRWMutex): a request whose deadline expires
	// while queued behind a long edit or read barrage gives up its place
	// instead of pinning a goroutine until the lock frees.
	rw      ctxRWMutex
	editing int    // writes in flight or queued (guards eviction)
	dirty   bool   // edited state not yet persisted (save failed)
	edits   uint64 // committed edit transactions

	// Write-ahead log state. wal is opened on first load (replaying any
	// surviving records) and kept for the entry's lifetime; it is only
	// touched under the singleflight load or the entry's write lock.
	wal      *store.WAL
	replayed uint64 // WAL records applied into this document at load

	// Degradation state (guarded by Catalog.mu): consecutive failed
	// persists; at the catalog's FailThreshold the document becomes
	// read-only until restart.
	persistFails int
	readOnly     bool
}

// flight is one in-progress load; concurrent Gets of the same cold
// document share it instead of loading again.
type flight struct {
	done chan struct{}
	doc  *core.Document
	err  error
}

// ErrNotFound reports an id the catalog does not know.
type ErrNotFound struct{ ID string }

// Error implements the error interface.
func (e *ErrNotFound) Error() string { return fmt.Sprintf("catalog: no document %q", e.ID) }

// Open scans dir and returns a catalog of the documents found. No
// document is loaded yet, with one exception: documents that left a
// non-empty write-ahead log behind (a crash between an edit commit and
// its save) are loaded eagerly so their logged edits are replayed and
// re-persisted before the catalog starts serving. A recovery failure
// does not fail Open — it is cached on the entry like any load error.
func Open(dir string, opts Options) (*Catalog, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	c := &Catalog{dir: dir, budget: opts.Budget, entries: make(map[string]*entry), lru: list.New()}
	c.fsys = opts.FS
	if c.fsys == nil {
		c.fsys = faultfs.OS
	}
	c.walOn = !opts.DisableWAL
	c.saveRetries = opts.SaveRetries
	if c.saveRetries <= 0 {
		c.saveRetries = defaultSaveRetries
	}
	c.retryBase = opts.RetryBase
	if c.retryBase <= 0 {
		c.retryBase = defaultRetryBase
	}
	c.retryCap = opts.RetryCap
	if c.retryCap <= 0 {
		c.retryCap = defaultRetryCap
	}
	c.failThreshold = opts.FailThreshold
	if c.failThreshold <= 0 {
		c.failThreshold = defaultFailThreshold
	}
	c.negTTL = opts.NegCacheTTL
	if c.negTTL == 0 {
		c.negTTL = defaultNegCacheTTL
	}
	c.now = time.Now
	c.sleep = time.Sleep
	c.registerMetrics(opts.Obs)
	for _, de := range des {
		name := de.Name()
		if strings.HasPrefix(name, ".") {
			continue
		}
		if de.IsDir() {
			sub, err := os.ReadDir(filepath.Join(dir, name))
			if err != nil {
				return nil, err
			}
			var paths []string
			for _, f := range sub {
				if !f.IsDir() && strings.HasSuffix(f.Name(), ".xml") {
					paths = append(paths, filepath.Join(dir, name, f.Name()))
				}
			}
			if len(paths) > 0 {
				sort.Strings(paths)
				format := "distributed"
				if len(paths) == 1 {
					format = "auto" // single file in a subdir: sniff it
				}
				c.add(name, paths, format)
			}
			continue
		}
		ext := filepath.Ext(name)
		if ext != ".xml" && ext != ".gdag" {
			continue
		}
		format := "auto" // .xml: sniff standoff/milestones/fragmentation/plain
		if ext == ".gdag" {
			format = "gdag"
		}
		c.add(strings.TrimSuffix(name, ext), []string{filepath.Join(dir, name)}, format)
	}
	sort.Strings(c.ids)
	if c.walOn {
		for _, id := range c.ids {
			if fi, err := c.fsys.Stat(c.walPath(id)); err == nil && fi.Size() > store.WALHeaderLen {
				c.Get(id) // replay + converge; errors are cached on the entry
			}
		}
	}
	return c, nil
}

func (c *Catalog) add(id string, paths []string, format string) {
	if prev, dup := c.entries[id]; dup {
		// Several source forms under one id (name.gdag next to name.xml
		// or name/): the binary .gdag wins — it is what save-on-commit
		// writes, so edits must not be shadowed by a stale XML source —
		// then the directory form, then single files in ReadDir order.
		if format == "gdag" && prev.format != "gdag" {
			prev.paths, prev.format = paths, format
		}
		return
	}
	c.entries[id] = &entry{id: id, paths: paths, format: format}
	c.ids = append(c.ids, id)
}

// IDs returns all document ids, sorted.
func (c *Catalog) IDs() []string {
	out := make([]string, len(c.ids))
	copy(out, c.ids)
	return out
}

// Get returns the document with the given id, loading (and index-warming)
// it on first use. Concurrent Gets of the same cold document share one
// load. The returned document remains valid even if the catalog later
// evicts it, but Get takes no read lock: callers that may run
// concurrently with a write to the same document must use View instead.
// Get never gives up waiting; request-scoped callers use GetContext.
func (c *Catalog) Get(id string) (*core.Document, error) {
	return c.GetContext(context.Background(), id)
}

// GetContext is Get bounded by ctx: the wait for a cold document's load
// (whether this call started it or joined one in flight) ends early with
// ctx.Err() when the caller's deadline or cancellation fires first. The
// load itself runs in its own goroutine and is NOT aborted by any
// waiter's context — it completes and publishes its result for the other
// waiters and for future Gets, so one impatient request can neither
// poison a cold document for everyone else nor waste the parse work
// already done.
func (c *Catalog) GetContext(ctx context.Context, id string) (*core.Document, error) {
	c.mu.Lock()
	e, ok := c.entries[id]
	if !ok {
		c.mu.Unlock()
		return nil, &ErrNotFound{ID: id}
	}
	if e.doc != nil {
		e.hits++
		c.hits++
		c.lru.MoveToFront(e.elem)
		c.refreshBytesLocked(e)
		c.evictLocked()
		doc := e.doc
		c.mu.Unlock()
		return doc, nil
	}
	if e.lastErr != nil {
		// Negative cache: a failed load costs a full parse, so a broken
		// source keeps returning its error without re-parsing — but only
		// until the TTL expires (repeated failures back off), so a
		// transiently broken source heals without a manual Evict.
		if c.negTTL < 0 || c.now().Before(e.retryAt) {
			err := e.lastErr
			c.mu.Unlock()
			return nil, err
		}
		e.lastErr = nil // expired: retry the load below
	}
	f := e.flight
	if f == nil {
		// Singleflight: first caller starts the load; everyone (including
		// this caller) waits on the same flight.
		f = &flight{done: make(chan struct{})}
		e.flight = f
		go c.runLoad(e, f)
	}
	c.mu.Unlock()
	// The wait for the (possibly joined) singleflight load is the
	// request's own cold-start cost — attribute it to the load stage.
	sp := obs.TraceFrom(ctx).Begin("load")
	defer sp.End()
	select {
	case <-f.done:
		return f.doc, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// runLoad performs one singleflight load and publishes its result. It
// runs detached from any caller's context: abandoning waiters must not
// abort or poison the shared load. f.doc/f.err are written before
// close(f.done), so waiters released by the close read them safely.
func (c *Catalog) runLoad(e *entry, f *flight) {
	start := time.Now()
	doc, bytes, mapped, err := c.load(e)
	if err == nil {
		c.met.coldLoad.Observe(time.Since(start))
	}

	c.mu.Lock()
	e.flight = nil
	f.doc, f.err = doc, err
	if err == nil {
		e.doc = doc
		e.bytes = bytes
		e.mapped = mapped
		e.loads++
		c.loads++
		e.errCount = 0
		e.elem = c.lru.PushFront(e)
		c.resident += bytes
		c.evictLocked()
	} else {
		e.lastErr = err
		e.errCount++
		backoff := c.negTTL << min(e.errCount-1, 6) // caps at 64x TTL
		e.retryAt = c.now().Add(backoff)
	}
	c.mu.Unlock()
	close(f.done)
}

// load parses one document from its source files, replays any surviving
// write-ahead-log records into it, and pre-warms its query indexes. Runs
// without the catalog lock: loads of *different* documents proceed in
// parallel. The mapped bool reports a view-backed (mmap v3) document —
// those skip the pre-warm and charge only their resident bytes. A v3
// image is validated in full at open, so a damaged file fails here and
// never reaches service or a later save.
func (c *Catalog) load(e *entry) (*core.Document, int64, bool, error) {
	if c.onLoad != nil {
		c.onLoad(e.id)
	}
	doc, err := c.loadSource(e)
	if err != nil {
		return nil, 0, false, fmt.Errorf("catalog: load %q: %w", e.id, err)
	}
	if c.walOn {
		doc, err = c.recover(e, doc)
		if err != nil {
			return nil, 0, false, err
		}
	}
	g := doc.GODDAG()
	if rb, ok := g.ResidentFootprint(); ok {
		// Mapped open: skip the index pre-warm — materializing here would
		// read the whole file back and forfeit the open-without-decode
		// win. Only the touched bytes charge the budget; Get hits and
		// Stats recharge the entry as lazy materialization grows it.
		return doc, rb, true, nil
	}
	g.Warm()
	return doc, g.Footprint(), false, nil
}

// loadSource parses the document from its files. A single .gdag source
// opens through the mapping path — for a v3 file that is an mmap plus
// the image's full validation, no decode — while v2 files fall back to
// the streaming decoder, read through the catalog's FS (counted; they
// migrate to v3 on their next save).
func (c *Catalog) loadSource(e *entry) (*core.Document, error) {
	if e.format == "gdag" && len(e.paths) == 1 {
		start := time.Now()
		m, err := store.OpenMappedFile(c.fsys, e.paths[0])
		if err == nil {
			var g *goddag.Document
			if g, err = m.Document(); err != nil {
				m.Close()
			} else {
				c.met.openMapped.Observe(time.Since(start))
				for _, n := range m.SectionSizes() {
					c.met.sectionBytes.ObserveValue(int64(n))
				}
				return core.FromGODDAG(g), nil
			}
		}
		if !errors.Is(err, store.ErrV2) {
			return nil, err
		}
		c.mu.Lock()
		c.v2Fallbacks++
		c.mu.Unlock()
		f, err := c.fsys.Open(e.paths[0])
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return core.Load(f)
	}
	return cliutil.Load(e.format, e.paths)
}

// refreshBytesLocked re-reads a mapped entry's footprint — it grows as
// queries materialize nodes off the mapping — and folds the delta into
// the catalog total. While the document is view-backed this is one
// atomic read; when an edit has promoted it to the heap the entry is
// recharged once at the full heap estimate and stops being mapped.
// Heap-loaded entries return immediately, keeping Get hits cheap.
func (c *Catalog) refreshBytesLocked(e *entry) {
	if e.doc == nil || !e.mapped {
		return
	}
	g := e.doc.GODDAG()
	nb, ok := g.ResidentFootprint()
	if !ok {
		nb = g.Footprint()
		e.mapped = false
	}
	if nb != e.bytes {
		c.resident += nb - e.bytes
		e.bytes = nb
	}
}

// evictLocked drops least-recently-used documents until the resident
// bytes fit the budget. The front (most recent) entry always stays, so an
// over-budget document can still serve; dirty or mid-edit documents are
// skipped — dropping them would lose unsaved edits.
func (c *Catalog) evictLocked() {
	if c.budget <= 0 {
		return
	}
	el := c.lru.Back()
	for c.resident > c.budget && el != nil && el != c.lru.Front() {
		prev := el.Prev()
		if e := el.Value.(*entry); !e.dirty && e.editing == 0 {
			c.dropLocked(e)
		}
		el = prev
	}
}

func (c *Catalog) dropLocked(e *entry) {
	c.lru.Remove(e.elem)
	c.resident -= e.bytes
	// Dropping the reference is also what unmaps a mapped document.
	// Nothing outside the document aliases its mapping (store copies
	// the content and strings at open, and cached query plans name
	// documents by serial), so once the last query holding it finishes
	// the GC collects it, and the finalizer on its faultfs.Mapping
	// releases the pages and their store.MappedBytes share.
	e.doc = nil
	e.bytes = 0
	e.mapped = false
	e.elem = nil
	c.evictions++
}

// Evict drops the document from the resident set if loaded (or clears a
// cached load failure), reporting whether anything was cleared. Queries
// already running against an evicted document are unaffected. Documents
// with unsaved edits or an edit in flight are not evicted.
func (c *Catalog) Evict(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		return false
	}
	if e.lastErr != nil {
		// Manual clear: forget the failure and its backoff entirely.
		e.lastErr = nil
		e.errCount = 0
		e.retryAt = time.Time{}
		return true
	}
	if e.doc == nil || e.dirty || e.editing > 0 {
		return false
	}
	c.dropLocked(e)
	c.evictions-- // administrative drop, not a pressure eviction
	return true
}

// View runs fn with the document under its read lock: any number of
// views proceed in parallel, and none overlaps a write to the same
// document, so fn evaluates against a consistent snapshot. The document
// must not escape fn.
func (c *Catalog) View(id string, fn func(*core.Document) error) error {
	return c.ViewContext(context.Background(), id, fn)
}

// ViewContext is View bounded by ctx: both the read-lock acquisition
// (queued behind a long edit) and a cold load respect the caller's
// deadline, returning ctx.Err() without running fn. Once fn is running,
// cancellation is fn's own job — pass ctx into the evaluation (e.g.
// xpath.Options.Context) to unwind it.
func (c *Catalog) ViewContext(ctx context.Context, id string, fn func(*core.Document) error) error {
	c.mu.Lock()
	e, ok := c.entries[id]
	c.mu.Unlock()
	if !ok {
		return &ErrNotFound{ID: id}
	}
	tr := obs.TraceFrom(ctx)
	lockStart := lockWaitStart(c.met.lockRead, tr)
	if err := e.rw.RLock(ctx); err != nil {
		return err
	}
	finishLockWait(lockStart, c.met.lockRead, tr)
	defer e.rw.RUnlock()
	doc, err := c.GetContext(ctx, id)
	if err != nil {
		return err
	}
	return fn(doc)
}

// IndexStats returns the document's derived-index statistics — the
// name-bucket and ordinal-range cardinalities the xpath planner reads as
// selectivity estimates — under the document's read lock, loading it
// first when not resident. Operators use it (via GET /docs/{id}) to see
// the inputs an explain'd plan was costed from.
func (c *Catalog) IndexStats(id string) (goddag.IndexStats, error) {
	var st goddag.IndexStats
	err := c.View(id, func(doc *core.Document) error {
		st = doc.GODDAG().IndexStats()
		return nil
	})
	return st, err
}

// DocStats describes one catalogued document.
type DocStats struct {
	ID       string   `json:"id"`
	Paths    []string `json:"paths"`
	Resident bool     `json:"resident"`
	Mapped   bool     `json:"mapped,omitempty"` // resident copy is mmap-backed (v3)
	Bytes    int64    `json:"bytes,omitempty"`  // footprint estimate while resident
	Loads    uint64   `json:"loads"`
	Hits     uint64   `json:"hits"`
	Edits    uint64   `json:"edits,omitempty"`     // committed edit transactions
	Dirty    bool     `json:"dirty,omitempty"`     // edited state not yet persisted
	ReadOnly bool     `json:"read_only,omitempty"` // degraded: persistent save failures
	Replayed uint64   `json:"replayed,omitempty"`  // WAL records recovered into this doc
	Error    string   `json:"error,omitempty"`     // cached load failure (expires, or Evict)
}

// Stats summarizes the catalog.
type Stats struct {
	Documents int    `json:"documents"`
	Resident  int    `json:"resident"`
	Bytes     int64  `json:"bytes"`
	Budget    int64  `json:"budget"`
	Loads     uint64 `json:"loads"`
	Hits      uint64 `json:"hits"`
	Evictions uint64 `json:"evictions"`

	// Durability state: crash recoveries and degradation (see the
	// package comment on the write-ahead log).
	ReadOnly     bool   `json:"read_only,omitempty"`     // catalog-wide degradation
	Recovered    uint64 `json:"recovered,omitempty"`     // docs that replayed WAL records
	Replayed     uint64 `json:"replayed,omitempty"`      // WAL records applied in recoveries
	SaveFailures uint64 `json:"save_failures,omitempty"` // commits not persisted after retries

	Docs []DocStats `json:"docs"`
}

// Stats returns a snapshot of catalog and per-document counters.
func (c *Catalog) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Documents: len(c.ids),
		Budget:    c.budget,
		Loads:     c.loads,
		Hits:      c.hits,
		Evictions: c.evictions,

		ReadOnly:     c.readOnly,
		Recovered:    c.recovered,
		Replayed:     c.replayed,
		SaveFailures: c.saveFailures,

		Docs: make([]DocStats, 0, len(c.ids)),
	}
	for _, id := range c.ids {
		e := c.entries[id]
		ds := c.docStatsLocked(e)
		if ds.Resident {
			s.Resident++
		}
		s.Docs = append(s.Docs, ds)
	}
	// After the per-document refresh: mapped entries may have grown as
	// their lazy materialization was touched since the last snapshot.
	s.Bytes = c.resident
	return s
}

func (c *Catalog) docStatsLocked(e *entry) DocStats {
	c.refreshBytesLocked(e)
	ds := DocStats{
		ID: e.id, Paths: e.paths,
		Resident: e.doc != nil, Mapped: e.mapped, Loads: e.loads, Hits: e.hits,
		Edits: e.edits, Dirty: e.dirty,
		ReadOnly: e.readOnly, Replayed: e.replayed,
	}
	if e.doc != nil {
		ds.Bytes = e.bytes
	}
	if e.lastErr != nil {
		ds.Error = e.lastErr.Error()
	}
	return ds
}

// Doc returns the stats of one document, reporting ok=false for unknown
// ids.
func (c *Catalog) Doc(id string) (DocStats, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		return DocStats{}, false
	}
	return c.docStatsLocked(e), true
}
