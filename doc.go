// Package repro is a Go implementation of the framework of Iacob &
// Dekhtyar, "A Framework for Processing Complex Document-centric XML
// with Overlapping Structures" (SIGMOD 2005): management of
// multihierarchical ("concurrent") XML whose markup from different
// hierarchies overlaps and therefore cannot live in a single well-formed
// XML tree.
//
// The framework models such documents as a GODDAG — a directed acyclic
// graph in which all hierarchies share one root and one sequence of text
// leaves, and each hierarchy is a DOM-like tree over those leaves. On top
// of the GODDAG the package provides:
//
//   - SACX, a SAX-style parser that merges a *distributed document* (one
//     XML file per hierarchy, same content) into a single event stream
//     and builds the GODDAG in one pass;
//   - Extended XPath, XPath 1.0 re-defined over the GODDAG and extended
//     with the overlapping/covering/covered axes and the hierarchy()
//     function;
//   - prevalidated editing (the xTagger core): markup insertions are
//     vetoed when they could never be extended to a valid document;
//   - drivers for the proposed representations of concurrent markup —
//     distributed, TEI-style milestones, TEI-style fragmentation, and
//     standoff — with lossless conversion between all of them and
//     hierarchy filtering on export.
//
// Offset semantics: spans address the shared character content by *byte*
// offset end-to-end — the parse pipeline never counts runes. Character
// (rune) positions, where an interface calls for them (the standoff file
// format, the span-start()/span-end() query functions, CLI editing
// offsets), are converted at that edge through a lazily built, memoized
// byte↔rune index on the document content (see internal/document).
//
// Query indexing: the paper lists indexing of concurrent structures as
// ongoing work; this implementation realizes it in-memory. Every GODDAG
// node carries a dense document-order *ordinal* (root = 0, then elements
// and leaves interleaved by the CompareNodes total order), each element
// records its pre-order subtree interval within its hierarchy, and a
// *name index* maps each tag to its document-ordered element list. The
// Extended XPath evaluator is built on them: node identity and document
// order are integer comparisons, node-sets combine by k-way merges with
// bitset deduplication (no hashing of node identities), descendant
// enumeration is an O(1) slice of the pre-order array, and name tests on
// the descendant, following, preceding, and covered axes narrow through
// the name index instead of enumerating whole axes, and covered/covering
// steps from many origins run as one span join over two start-sorted
// buckets. Element insertions
// and removals *repair* all of these indexes in place (splice + local
// renumber); text edits fall back to lazy from-scratch rebuilds.
// Documents are safe for concurrent querying; see internal/goddag's
// package comment for the exact mutation/read contract.
//
// Serving collections: the paper positions the framework as
// infrastructure for document-centric collections. internal/catalog
// manages a directory-backed corpus — lazy singleflight loads,
// index pre-warming (goddag.Document.Warm), and a byte-budgeted LRU
// over goddag.Document.Footprint estimates — and internal/server +
// cmd/cxserve expose it over HTTP: POST /query evaluates Extended
// XPath and FLWOR with a shared compiled-query cache, and every result
// kind renders through the same internal/cliutil append encoders the
// cxquery CLI uses, so server and CLI output are byte-identical (the
// materializing cliutil.EncodeValue survives as their test oracle).
//
// Every request the serving layer handles carries a real lifecycle: a
// context.Context deadline (the server default, tightened per request)
// threads from the HTTP handler through catalog lock acquisition and
// singleflight cold loads down to the query evaluator, which polls it
// at amortized checkpoints alongside an optional per-evaluation node
// budget (xpath.Budget). An expired deadline answers 504, a client
// disconnect cancels the evaluation (499), an exhausted budget answers
// 413 — and in every case the serving goroutine actually unwinds
// instead of finishing work nobody will read. Shared work is never
// aborted on one waiter's behalf: an in-flight load completes for the
// other waiters, and an edit past its commit point persists in full.
//
// Served documents are editable, not frozen at load: each catalog entry
// carries a read/write lock — queries evaluate under the read side, and
// POST /docs/{id}/edit applies a JSON op batch as ONE editor transaction
// (prevalidated per op, vetoed atomically, one undo entry) under the
// write side, so readers always see either the pre- or post-edit
// snapshot, never a torn document. Commits repair the in-memory indexes
// incrementally and persist the document through package store's atomic
// temp-file + rename save; undo/redo are exposed the same way, and
// eviction refuses documents with unsaved edits. Persistent
// single-document storage (the paper's "ongoing work") is package
// store's binary format: format v3 is a CRC-guarded section-table
// image whose payloads are the document's columns — including the
// derived query indexes — so opening a file is an mmap plus one full
// checksum and structural validation (no decode; a damaged file fails
// here), nodes materialize lazily on first touch from the validated
// columns, and the catalog charges its byte budget only for the bytes
// actually touched. The first edit promotes the document to the
// heap. Older v2 stream files still load everywhere (store.Decode
// dispatches on the version byte, mapped opens report store.ErrV2 and
// fall back to the heap decoder) and every save rewrites as v3, so a
// v2 corpus migrates in place one save at a time.
//
// Durability and recovery: the write path is crash-safe by
// append-before-apply. Each committed edit batch is serialized, appended
// to a per-document write-ahead log (<id>.wal, CRC-framed; package
// store), and fsynced BEFORE the batch is applied and the indexes
// repaired — the log fsync is the commit point. A successful full save
// resets the log; a crash at any point is recovered on the next catalog
// open by replaying the surviving log tail against the saved base, with
// each record gated on a fingerprint of the state it was logged against
// so a batch that already reached the base is never applied twice (torn
// tails are detected by checksum and truncated). Failed saves retry with
// capped exponential backoff; a disk that keeps failing degrades the
// document — then the whole catalog — to read-only (writes answer 503,
// reads keep serving, /healthz reports the degradation) rather than
// wedging or silently dropping edits. All store and WAL I/O flows
// through internal/faultfs, a filesystem seam whose fault injector lets
// the tests drive ENOSPC/EIO at every write, sync, and rename, and
// simulate power cuts at each point of the commit sequence.
//
// Quick start:
//
//	doc, err := repro.Parse([]repro.Source{
//	    {Hierarchy: "physical", Data: []byte(`<r><line>swa hwæt swa</line></r>`)},
//	    {Hierarchy: "words", Data: []byte(`<r><w>swa</w> <w>hwæt</w> <w>swa</w></r>`)},
//	})
//	if err != nil { ... }
//	hits, err := doc.Query("//line/overlapping::w")
//
// See ROADMAP.md for the system inventory and open directions, PAPER.md
// for the source paper's abstract, and PERFORMANCE.md for the measured
// behaviour of the parsing pipeline.
package repro
