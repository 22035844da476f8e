// Crash safety and degradation for the catalog's write path.
//
// With the write-ahead log on (the default), each document's commits
// follow append-before-apply: UpdateBatch serializes the op batch,
// appends it to <id>.wal, and fsyncs — that fsync is the commit point —
// before the batch is applied and the document's indexes repaired. The
// full save to <id>.gdag then runs with capped-backoff retries; success
// resets the log, failure leaves the records in place for the next
// open's replay. Replay re-applies op batches through the transaction
// API, gated on each record's pre-state fingerprint so a batch that
// already reached the saved base (crash between the save's rename and
// the log reset) is skipped, never applied twice. The fingerprint is
// store.ImageFingerprint of the pre-state's v3 image, which commit and
// replay both take from the session, never from file bytes. Replay
// still reads earlier versions' RecordOps records, with their v2 gate.
//
// Undo and Redo apply first and then log a snapshot record: the v3
// image the session kept of the restored state, which the save writes
// too. A commit builds at most one v3 image (none for a history move),
// the committed state's for the save. The pre-state's image, which the
// WAL stamp and the transaction share, stays cached from the previous
// save; only the first commit after a load encodes it.
//
// A disk that keeps failing degrades service instead of wedging it:
// FailThreshold consecutive failed persists turn the document
// read-only, twice that turns the whole catalog read-only (both sticky
// until restart, both visible in Stats and to the server's /healthz).
// Reads keep working throughout — only the write path sheds.
package catalog

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/editor"
	"repro/internal/obs"
	"repro/internal/store"
)

// ErrReadOnly reports an update rejected because the document (or the
// whole catalog) has degraded to read-only after persistent storage
// failures. Test with errors.Is.
var ErrReadOnly = errors.New("read-only after persistent storage failures")

// ReadOnly reports whether the whole catalog has degraded to read-only.
// Individual documents may degrade earlier; see DocStats.ReadOnly.
func (c *Catalog) ReadOnly() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readOnly
}

// beginEdit registers an update on id: it rejects unknown ids and
// degraded (read-only) targets, and marks the entry mid-edit so
// evictLocked cannot drop the document between the load and the commit
// (a concurrent lock-free Get could then re-cache the pre-edit source
// and the edited document would be shadowed by the stale reload). The
// mark is a counter, not a flag: with several updates queued on one
// document, the first to finish must not drop the guard while the
// others are still editing.
func (c *Catalog) beginEdit(id string) (*entry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		return nil, &ErrNotFound{ID: id}
	}
	if c.readOnly || e.readOnly {
		return nil, fmt.Errorf("catalog: update %q: %w", id, ErrReadOnly)
	}
	e.editing++
	return e, nil
}

func (c *Catalog) endEdit(e *entry) {
	c.mu.Lock()
	e.editing--
	c.mu.Unlock()
}

// UpdateBatch applies a wire-format op batch to the document as one
// transaction, write-ahead logged: the serialized batch is appended to
// <id>.wal and fsynced BEFORE it is applied, so once UpdateBatch
// returns nil the edit survives a crash at any later point — even if
// the save to <id>.gdag fails (the entry is then dirty and the log
// replays the batch on the next open). The record's stamp is the
// fingerprint of the session's pre-state image, the one the
// transaction's Begin uses, so it adds no encode. A vetoed batch
// (returned as a *editor.BatchError) changes nothing and its
// provisional log record is dropped. post, if non-nil, runs with the committed document still
// under its write lock — a snapshot hook for collecting response
// statistics; the document must not escape it.
func (c *Catalog) UpdateBatch(id string, ops []editor.Op, post func(*core.Document)) error {
	return c.UpdateBatchContext(context.Background(), id, ops, post)
}

// UpdateBatchContext is UpdateBatch bounded by ctx up to the commit
// point: the write-lock acquisition and a cold load return ctx.Err()
// with nothing changed, while a batch whose WAL append has started is
// carried through to the end regardless of ctx — the fsynced record is
// the commit, and a half-abandoned commit is exactly what the edit WAL
// exists to prevent.
func (c *Catalog) UpdateBatchContext(ctx context.Context, id string, ops []editor.Op, post func(*core.Document)) error {
	return c.edit(ctx, id, func(e *entry, doc *core.Document) error {
		// Append-before-apply. A failed append falls back to
		// save-on-commit durability (the edit still applies and saves
		// below) rather than rejecting the edit: availability degrades
		// last, and if the save also fails the persist counters degrade
		// the document to read-only.
		walDurable := false
		var mark int64
		if w := c.walFor(e); w != nil {
			payload, err := json.Marshal(editor.Batch{Ops: ops})
			pre, ierr := doc.Edit().Image()
			if err == nil && ierr == nil {
				mark = w.Size()
				walDurable = c.walAppend(w, store.RecordBatch, store.ImageFingerprint(pre), payload)
			}
		}

		if err := doc.Edit().ApplyBatch(ops); err != nil {
			if walDurable {
				// Unlog the vetoed batch. A failed rewind is tolerable:
				// the record re-vetoes identically at replay
				// (prevalidation is deterministic), so it can never
				// resurrect the batch.
				_ = e.wal.Rewind(mark)
			}
			return err
		}
		return c.persistCommit(e, doc, walDurable, post)
	})
}

// Undo reverts the document's most recent committed batch or history
// move and commits the restored state like a batch: its v3 image, kept
// by the session, is logged as a snapshot record and saved, so nothing
// is encoded. The move applies before it is logged; a crash in between
// loses it. An empty history returns editor.ErrNothingToUndo. History
// is per resident session: eviction and reopen start it afresh. ctx and
// post are as in UpdateBatchContext.
func (c *Catalog) Undo(ctx context.Context, id string, post func(*core.Document)) error {
	return c.move(ctx, id, (*editor.Session).Undo, post)
}

// Redo re-applies the most recently undone change, committed as Undo
// commits; an empty redo stack returns editor.ErrNothingToRedo.
func (c *Catalog) Redo(ctx context.Context, id string, post func(*core.Document)) error {
	return c.move(ctx, id, (*editor.Session).Redo, post)
}

// move runs one history move, then logs and saves the restored state.
func (c *Catalog) move(ctx context.Context, id string, move func(*editor.Session) error, post func(*core.Document)) error {
	return c.edit(ctx, id, func(e *entry, doc *core.Document) error {
		if err := move(doc.Edit()); err != nil {
			return err
		}
		walDurable := false
		if w := c.walFor(e); w != nil {
			if img, err := doc.Edit().Image(); err == nil {
				walDurable = c.walAppend(w, store.RecordSnapshot, 0, img)
			}
		}
		return c.persistCommit(e, doc, walDurable, post)
	})
}

// edit is every write's prologue: beginEdit, then the write lock and
// the load, each wait bounded by ctx; commit runs under the lock.
func (c *Catalog) edit(ctx context.Context, id string, commit func(*entry, *core.Document) error) error {
	e, err := c.beginEdit(id)
	if err != nil {
		return err
	}
	defer c.endEdit(e)
	tr := obs.TraceFrom(ctx)
	lockStart := lockWaitStart(c.met.lockWrite, tr)
	if err := e.rw.Lock(ctx); err != nil {
		return err
	}
	finishLockWait(lockStart, c.met.lockWrite, tr)
	defer e.rw.Unlock()
	doc, err := c.GetContext(ctx, id)
	if err != nil {
		return err
	}
	return commit(e, doc)
}

// walAppend reports whether the appended record is durable.
func (c *Catalog) walAppend(w *store.WAL, kind store.RecordKind, pre uint32, payload []byte) bool {
	start := time.Now()
	err := w.Append(kind, pre, payload)
	c.met.walAppend.Observe(time.Since(start))
	return err == nil
}

// persistCommit finishes a committed edit: save with retries, reset the
// WAL on success, account the failure streaks, re-account the memory
// footprint. A save failure is reported only when the WAL did not make
// the edit durable: the fsynced record is the commit point. The save
// encodes the committed state's v3 image, which the session keeps: it
// is the next batch's pre-state image and stamp.
func (c *Catalog) persistCommit(e *entry, doc *core.Document, walDurable bool, post func(*core.Document)) error {
	savePath := filepath.Join(c.dir, e.id+".gdag")
	saveErr := c.saveWithRetry(savePath, doc.Edit())
	if saveErr == nil && e.wal != nil && !e.wal.Empty() {
		// The .gdag now carries the state; the log's records are spent.
		// A failed reset is tolerable: stale records are inert at replay
		// because their pre-state fingerprints no longer match the saved
		// base.
		_ = e.wal.Reset()
	}
	if post != nil {
		post(doc)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	e.edits++
	if saveErr != nil {
		e.dirty = true
		c.persistFailLocked(e)
	} else {
		e.dirty = false
		e.paths = []string{savePath}
		e.format = "gdag"
		c.persistOKLocked(e)
	}
	// Re-account the footprint: the edit may have grown or shrunk the
	// document (and its repaired indexes), and the session holds the
	// images of its undo/redo history and current state — count those
	// too, or sustained edit traffic would blow the budget invisibly.
	// The edit promoted a mapped document to the heap, so the entry
	// stops being mapped here: a later hit must not recharge it at the
	// mapped footprint alone, without the history.
	if e.doc != nil {
		size := doc.GODDAG().Footprint() + doc.Edit().HistoryFootprint()
		c.resident += size - e.bytes
		e.bytes = size
		e.mapped = false
		c.evictLocked()
	}
	if saveErr != nil && !walDurable {
		return fmt.Errorf("catalog: update %q applied but not persisted: %w", e.id, saveErr)
	}
	return nil
}

// saveWithRetry saves the session's current image (store.SaveImageFS;
// it stays cached for the next Begin) with capped exponential backoff:
// a transient failure (ENOSPC racing a cleanup, a briefly stalled disk)
// retries up to c.saveRetries attempts before the commit is declared
// not persisted.
func (c *Catalog) saveWithRetry(path string, s *editor.Session) error {
	img, err := s.Image()
	if err != nil {
		return err
	}
	delay := c.retryBase
	for attempt := 0; attempt < c.saveRetries; attempt++ {
		if attempt > 0 {
			c.sleep(delay)
			delay *= 2
			if delay > c.retryCap {
				delay = c.retryCap
			}
		}
		saveStart := time.Now()
		err = store.SaveImageFS(c.fsys, path, img)
		c.met.save.Observe(time.Since(saveStart))
		if err == nil {
			return nil
		}
	}
	return err
}

// persistFailLocked records one failed persist: per-document and
// catalog-wide consecutive-failure streaks, degrading each to read-only
// at its threshold. Degradation is sticky — a disk that "recovers"
// after corrupting state needs an operator restart, not silent resume.
func (c *Catalog) persistFailLocked(e *entry) {
	c.saveFailures++
	e.persistFails++
	c.failStreak++
	if e.persistFails >= c.failThreshold {
		e.readOnly = true
	}
	if c.failStreak >= 2*c.failThreshold {
		c.readOnly = true
	}
}

func (c *Catalog) persistOKLocked(e *entry) {
	e.persistFails = 0
	c.failStreak = 0
}

// walPath is the write-ahead-log segment for id, next to its .gdag.
func (c *Catalog) walPath(id string) string { return filepath.Join(c.dir, id+".wal") }

// walFor returns the entry's open WAL, nil when logging is off or the
// segment cannot be opened (the caller then falls back to save-only
// durability). Called under the entry's write lock; after a successful
// load the handle is normally already open (recover opened it).
func (c *Catalog) walFor(e *entry) *store.WAL {
	if !c.walOn {
		return nil
	}
	if e.wal == nil {
		w, _, err := store.OpenWAL(c.fsys, c.walPath(e.id))
		if err != nil {
			return nil
		}
		e.wal = w
	}
	return e.wal
}

// recover opens the document's WAL inside the (singleflight) load and
// replays any records a crash left behind: op batches re-apply through
// the transaction API when their pre-state fingerprint matches the
// current state (skipped otherwise — they already reached the saved
// base, or were vetoed and re-veto identically), snapshots replace the
// document wholesale. A RecordBatch's gate encodes the current state's
// v3 image, which the batch's Begin then reuses. A non-empty log is
// then converged: the recovered state is saved and the log reset; if
// the save fails the document serves the recovered state dirty, with
// the log intact.
func (c *Catalog) recover(e *entry, doc *core.Document) (*core.Document, error) {
	if e.wal != nil {
		// Already open from a previous load: its records were replayed
		// then. (A non-empty log pins the entry dirty and dirty entries
		// are never evicted, so a reload cannot race pending records.)
		return doc, nil
	}
	w, recs, err := store.OpenWAL(c.fsys, c.walPath(e.id))
	if err != nil {
		// An unreadable log may hold committed edits; failing the load
		// is the conservative choice (and is negative-cached like any
		// load failure).
		return nil, fmt.Errorf("catalog: recover %q: %w", e.id, err)
	}
	e.wal = w
	if len(recs) == 0 {
		return doc, nil
	}

	applied := 0
	for _, r := range recs {
		switch r.Kind {
		case store.RecordSnapshot:
			nd, err := core.Load(bytes.NewReader(r.Payload))
			if err != nil {
				continue // checksummed but undecodable (format drift): skip
			}
			doc = nd
			applied++
		case store.RecordBatch:
			// Exactly-once gate: a stale record (its batch already in the
			// saved base) does not match.
			if img, err := doc.Edit().Image(); err == nil && store.ImageFingerprint(img) == r.Pre && replayBatch(doc, r.Payload) {
				applied++
			}
		case store.RecordOps:
			if store.Fingerprint(doc.GODDAG()) == r.Pre && replayBatch(doc, r.Payload) {
				applied++
			}
		}
	}

	// Replayed batches are not undoable: history starts at the recovered
	// state, as it does after any load. The session keeps its image, so
	// the converge save below encodes only if the last record changed
	// the document.
	doc.Edit().ClearHistory()

	// Converge: persist the recovered state and retire the log.
	savePath := filepath.Join(c.dir, e.id+".gdag")
	saveErr := c.saveWithRetry(savePath, doc.Edit())
	c.mu.Lock()
	if saveErr == nil {
		e.paths = []string{savePath}
		e.format = "gdag"
		c.persistOKLocked(e)
	} else {
		e.dirty = true
		c.persistFailLocked(e)
	}
	c.recovered++
	c.replayed += uint64(applied)
	e.replayed += uint64(applied)
	c.mu.Unlock()
	if saveErr == nil {
		_ = e.wal.Reset()
	}
	return doc, nil
}

// replayBatch re-applies one logged op batch, reporting whether it
// applied. A vetoed batch re-vetoes deterministically: its original
// commit vetoed too.
func replayBatch(doc *core.Document, payload []byte) bool {
	var b editor.Batch
	return json.Unmarshal(payload, &b) == nil && doc.Edit().ApplyBatch(b.Ops) == nil
}
