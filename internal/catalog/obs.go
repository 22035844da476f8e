package catalog

import (
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// catMetrics holds the catalog's pre-resolved metric handles. The
// fields are nil when the catalog was opened without a registry; every
// obs method is a nil-guarded no-op, so hook sites observe
// unconditionally.
type catMetrics struct {
	coldLoad     *obs.Histogram // successful cold loads: parse + WAL replay + warm
	lockRead     *obs.Histogram // read-lock wait (ViewContext)
	lockWrite    *obs.Histogram // write-lock wait (UpdateBatchContext, Undo, Redo)
	walAppend    *obs.Histogram // WAL append incl. fsync (the commit point)
	save         *obs.Histogram // store save, per attempt
	openMapped   *obs.Histogram // mapped .gdag opens: mmap + full image validation
	sectionBytes *obs.Histogram // v3 section sizes (bytes), per mapped open
}

// registerMetrics wires the catalog into reg: latency histograms for
// the operations worth a distribution, and func-backed counters/gauges
// reading the counters the catalog already keeps under mu — one source
// of truth, so /metrics can never drift from Stats().
func (c *Catalog) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.met = catMetrics{
		coldLoad: reg.Histogram("cx_catalog_cold_load_seconds",
			"Cold document load latency: parse, WAL replay, index pre-warm.", "", nil),
		lockRead: reg.Histogram("cx_catalog_lock_wait_seconds",
			"Per-document lock acquisition wait.", `side="read"`, nil),
		lockWrite: reg.Histogram("cx_catalog_lock_wait_seconds",
			"Per-document lock acquisition wait.", `side="write"`, nil),
		walAppend: reg.Histogram("cx_wal_append_seconds",
			"Write-ahead-log append latency, including the fsync that commits it.", "", nil),
		save: reg.Histogram("cx_catalog_save_seconds",
			"Document save latency, per attempt (retries observe again).", "", nil),
		openMapped: reg.Histogram("cx_store_open_seconds",
			"Mapped .gdag open latency: mmap, every section checksum and the structural checks — no decode.", "", nil),
		sectionBytes: reg.ValueHistogram("cx_store_section_bytes",
			"Size distribution of v3 file sections at mapped opens.", "", nil),
	}
	counter := func(v *uint64) func() float64 {
		return func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(*v)
		}
	}
	reg.CounterFunc("cx_catalog_loads_total", "Documents loaded from source.", "", counter(&c.loads))
	reg.CounterFunc("cx_catalog_hits_total", "Gets served from the resident set.", "", counter(&c.hits))
	reg.CounterFunc("cx_catalog_evictions_total", "Documents evicted under memory pressure.", "", counter(&c.evictions))
	reg.CounterFunc("cx_catalog_save_failures_total", "Commits not persisted after retries.", "", counter(&c.saveFailures))
	reg.CounterFunc("cx_catalog_recovered_total", "Documents that replayed WAL records at load.", "", counter(&c.recovered))
	reg.CounterFunc("cx_wal_replayed_records_total", "WAL records applied across all recoveries.", "", counter(&c.replayed))
	reg.CounterFunc("cx_store_v2_fallback_total", "Catalog .gdag opens that fell back to the v2 streaming decoder.", "", counter(&c.v2Fallbacks))
	reg.GaugeFunc("cx_store_mapped_bytes", "Bytes of .gdag files currently memory-mapped, process-wide.", "", func() float64 {
		return float64(store.MappedBytes())
	})
	reg.GaugeFunc("cx_catalog_resident_bytes", "Estimated footprint of resident documents.", "", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(c.resident)
	})
	reg.GaugeFunc("cx_catalog_resident_docs", "Documents currently resident.", "", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(c.lru.Len())
	})
	reg.GaugeFunc("cx_catalog_documents", "Documents known to the catalog.", "", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.ids))
	})
	reg.GaugeFunc("cx_catalog_read_only", "1 when the catalog has degraded to read-only.", "", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.readOnly {
			return 1
		}
		return 0
	})
}

// lockWaitStart reads the clock iff someone is listening — the zero
// time tells finishLockWait to skip. Kept as paired helpers (no
// closure) so the warm serving path stays allocation-free.
func lockWaitStart(h *obs.Histogram, tr *obs.Trace) time.Time {
	if h == nil && tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// finishLockWait folds the elapsed wait into h and the trace's lockWait
// stage.
func finishLockWait(start time.Time, h *obs.Histogram, tr *obs.Trace) {
	if start.IsZero() {
		return
	}
	d := time.Since(start)
	h.Observe(d)
	tr.Add("lockWait", d)
}
