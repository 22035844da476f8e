package catalog

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/document"
	"repro/internal/editor"
	"repro/internal/faultfs"
	"repro/internal/goddag"
	"repro/internal/store"
	"repro/internal/validate"
)

// writePlainDir builds a catalog directory holding one tiny ASCII
// document ("swa hwaet swa"), so edit-op byte offsets need no rune
// alignment.
func writePlainDir(t testing.TB, ids ...string) string {
	t.Helper()
	dir := t.TempDir()
	for _, id := range ids {
		src := `<r><w>swa</w> <w>hwaet</w> <w>swa</w></r>`
		if err := os.WriteFile(filepath.Join(dir, id+".xml"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// fastOpts keeps retry backoffs out of test wall-clock.
func fastOpts(fsys faultfs.FS) Options {
	return Options{FS: fsys, SaveRetries: 1, RetryBase: time.Millisecond}
}

// crashAt returns a hook that injects first at the first operation
// matching trigger, then fails every subsequent operation — the disk is
// gone, as a power cut at that exact point would leave it.
func crashAt(trigger func(faultfs.Op, string) bool, first error) faultfs.Hook {
	var mu sync.Mutex
	tripped := false
	return func(op faultfs.Op, path string) error {
		mu.Lock()
		defer mu.Unlock()
		if tripped {
			return errors.New("injected: disk gone after crash point")
		}
		if !trigger(op, path) {
			return nil
		}
		tripped = true
		return first
	}
}

func isWAL(path string) bool  { return strings.HasSuffix(path, ".wal") }
func isTemp(path string) bool { return strings.Contains(filepath.Base(path), ".gdag-tmp-") }

// TestCrashMatrix kills the write path at every durability-relevant
// fault point of a logged edit and asserts that reopening the directory
// recovers exactly the committed state: batch1 (committed cleanly) is
// always present, batch2 is present or absent per the fault point's
// documented semantics, and never partially applied.
func TestCrashMatrix(t *testing.T) {
	errFault := errors.New("injected: EIO")
	cases := []struct {
		name    string
		trigger func(faultfs.Op, string) bool
		fault   error // error injected at the trigger point
		wantErr bool  // UpdateBatch reports a failure
		want2   bool  // batch2 present after recovery
	}{
		{
			// Crash before anything of batch2 reached the log: the edit
			// is rejected and recovery sees only batch1.
			name:    "wal-append-write",
			trigger: func(op faultfs.Op, p string) bool { return op == faultfs.OpWrite && isWAL(p) },
			fault:   errFault, wantErr: true, want2: false,
		},
		{
			// Power cut tearing the append mid-frame: the torn tail is
			// truncated at reopen, batch2 is gone.
			name:    "wal-append-torn",
			trigger: func(op faultfs.Op, p string) bool { return op == faultfs.OpWrite && isWAL(p) },
			fault:   &faultfs.Torn{N: 7, Err: errFault}, wantErr: true, want2: false,
		},
		{
			// The frame was written whole but its fsync failed and the
			// crash prevented the rewind: an indeterminate append. The
			// caller saw an error, but the complete checksummed frame
			// survived, so recovery applies it — the documented
			// at-least-once outcome. Full application or none; never a
			// partial batch.
			name:    "wal-append-sync",
			trigger: func(op faultfs.Op, p string) bool { return op == faultfs.OpSync && isWAL(p) },
			fault:   errFault, wantErr: true, want2: true,
		},
		{
			// The log record fsynced — the commit point — so the edit
			// must survive no matter what the save does.
			name:    "save-temp-write",
			trigger: func(op faultfs.Op, p string) bool { return op == faultfs.OpWrite && isTemp(p) },
			fault:   errFault, wantErr: false, want2: true,
		},
		{
			name:    "save-temp-sync",
			trigger: func(op faultfs.Op, p string) bool { return op == faultfs.OpSync && isTemp(p) },
			fault:   errFault, wantErr: false, want2: true,
		},
		{
			name: "save-rename",
			trigger: func(op faultfs.Op, p string) bool {
				return op == faultfs.OpRename && strings.HasSuffix(p, ".gdag")
			},
			fault: errFault, wantErr: false, want2: true,
		},
		{
			// The save's rename landed but its directory sync failed:
			// the .gdag already holds batch2 AND its log record remains.
			// The pre-state fingerprint must keep replay from applying
			// it a second time.
			name: "save-dir-sync",
			trigger: func(op faultfs.Op, p string) bool {
				return op == faultfs.OpSync && !isWAL(p) && !isTemp(p)
			},
			fault: errFault, wantErr: false, want2: true,
		},
		{
			// Save fully succeeded, crash during the log reset: stale
			// record in the WAL, batch2 already in the .gdag — the
			// double-apply window the fingerprints exist for.
			name:    "wal-reset-truncate",
			trigger: func(op faultfs.Op, p string) bool { return op == faultfs.OpTruncate && isWAL(p) },
			fault:   errFault, wantErr: false, want2: true,
		},
	}

	batch1 := []editor.Op{{Op: "insert-markup", Hierarchy: "edits", Tag: "edit", Start: 0, End: 3}}
	batch2 := []editor.Op{
		{Op: "insert-markup", Hierarchy: "edits", Tag: "edit", Start: 4, End: 9},
		{Op: "set-attr", Hierarchy: "edits", Index: 1, Name: "status", Value: "committed"},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := writePlainDir(t, "plain")
			inj := faultfs.NewInjector(faultfs.OS)
			c, err := Open(dir, fastOpts(inj))
			if err != nil {
				t.Fatal(err)
			}
			if err := c.UpdateBatch("plain", batch1, nil); err != nil {
				t.Fatal(err)
			}

			inj.SetHook(crashAt(tc.trigger, tc.fault))
			err = c.UpdateBatch("plain", batch2, nil)
			if (err != nil) != tc.wantErr {
				t.Fatalf("UpdateBatch under %s: err=%v, wantErr=%v", tc.name, err, tc.wantErr)
			}

			// Crash: the in-memory catalog dies with the process. Reopen
			// the directory on a healthy disk.
			c2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			doc, err := c2.Get("plain")
			if err != nil {
				t.Fatal(err)
			}
			edits := doc.GODDAG().ElementsNamed("edit")
			want := 1
			if tc.want2 {
				want = 2
			}
			if len(edits) != want {
				t.Fatalf("recovered %d edit elements, want %d", len(edits), want)
			}
			// No partial application: if batch2 survived, both its ops did.
			if tc.want2 {
				var attrs int
				for _, el := range edits {
					if v, ok := el.Attr("status"); ok && v == "committed" {
						attrs++
					}
				}
				if attrs != 1 {
					t.Fatalf("batch2 partially applied: %d elements carry its attr, want 1", attrs)
				}
			}
			// Recovered state must itself be durable: the log is spent and
			// a second reopen replays nothing.
			c3, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			doc3, err := c3.Get("plain")
			if err != nil {
				t.Fatal(err)
			}
			if got := len(doc3.GODDAG().ElementsNamed("edit")); got != want {
				t.Fatalf("second reopen has %d edit elements, want %d (recovery not idempotent)", got, want)
			}
			if s := c3.Stats(); s.Replayed != 0 {
				t.Fatalf("second reopen replayed %d records; recovery did not converge", s.Replayed)
			}
		})
	}
}

// TestVetoedBatchNotReplayed leaves a vetoed batch's record in the WAL
// (the rewind is made to fail) and asserts replay re-vetoes it rather
// than resurrecting the rejected edit.
func TestVetoedBatchNotReplayed(t *testing.T) {
	dir := writePlainDir(t, "plain")
	inj := faultfs.NewInjector(faultfs.OS)
	c, err := Open(dir, fastOpts(inj))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateBatch("plain", []editor.Op{
		{Op: "insert-markup", Hierarchy: "edits", Tag: "edit", Start: 0, End: 3},
	}, nil); err != nil {
		t.Fatal(err)
	}
	// Fail the rewind so the vetoed batch's record stays logged.
	errFault := errors.New("injected: EIO")
	inj.SetHook(func(op faultfs.Op, p string) error {
		if op == faultfs.OpTruncate && isWAL(p) {
			return errFault
		}
		return nil
	})
	err = c.UpdateBatch("plain", []editor.Op{
		{Op: "insert-markup", Hierarchy: "edits", Tag: "edit", Start: 4, End: 9},
		{Op: "set-attr", Hierarchy: "edits", Index: 42, Name: "k", Value: "v"}, // out of range: vetoes
	}, nil)
	var be *editor.BatchError
	if !errors.As(err, &be) || be.Index != 1 {
		t.Fatalf("veto = %v", err)
	}
	inj.SetHook(nil)

	c2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := c2.Get("plain")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(doc.GODDAG().ElementsNamed("edit")); got != 1 {
		t.Fatalf("replay resurrected a vetoed batch: %d edit elements, want 1", got)
	}
}

// TestPersistentFaultDegradesToReadOnly drives commits against a disk
// whose saves always fail: every commit stays durable through the WAL,
// but after FailThreshold consecutive failures the document — and after
// twice that, the catalog — degrades to read-only instead of wedging.
func TestPersistentFaultDegradesToReadOnly(t *testing.T) {
	dir := writePlainDir(t, "a", "b")
	inj := faultfs.NewInjector(faultfs.OS)
	c, err := Open(dir, fastOpts(inj))
	if err != nil {
		t.Fatal(err)
	}
	errDisk := errors.New("injected: ENOSPC")
	inj.SetHook(func(op faultfs.Op, p string) error {
		if op == faultfs.OpRename && strings.HasSuffix(p, ".gdag") {
			return errDisk
		}
		return nil
	})

	batch := func(i int) []editor.Op {
		return []editor.Op{{Op: "insert-markup", Hierarchy: "edits", Tag: "edit", Start: 4 * i, End: 4*i + 3}}
	}
	// Three commits on "a": each is WAL-durable (nil error) while the
	// save fails behind the scenes; the third trips the document.
	for i := 0; i < 3; i++ {
		if err := c.UpdateBatch("a", batch(i), nil); err != nil {
			t.Fatalf("commit %d: %v (WAL-durable commits must succeed)", i, err)
		}
	}
	if err := c.UpdateBatch("a", batch(3), nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("4th update on degraded doc = %v, want ErrReadOnly", err)
	}
	ds, _ := c.Doc("a")
	if !ds.ReadOnly || !ds.Dirty {
		t.Fatalf("degraded doc stats: %+v", ds)
	}
	if c.ReadOnly() {
		t.Fatal("catalog degraded after one document's failures")
	}

	// Three more on "b": the catalog-wide streak reaches 2x the
	// threshold and the whole catalog degrades.
	for i := 0; i < 3; i++ {
		if err := c.UpdateBatch("b", batch(i), nil); err != nil {
			t.Fatalf("commit b/%d: %v", i, err)
		}
	}
	if !c.ReadOnly() {
		t.Fatal("catalog not read-only after 6 consecutive persist failures")
	}
	if s := c.Stats(); !s.ReadOnly || s.SaveFailures != 6 {
		t.Fatalf("stats: read_only=%v save_failures=%d", s.ReadOnly, s.SaveFailures)
	}
	if err := c.UpdateBatch("b", batch(3), nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("update on read-only catalog = %v", err)
	}
	// Reads keep working throughout.
	if err := c.View("a", func(doc *core.Document) error {
		if got := len(doc.GODDAG().ElementsNamed("edit")); got != 3 {
			return fmt.Errorf("view sees %d edits, want 3", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// The edits were never saved — but every one is in the WAL, so a
	// restart on a healed disk recovers all of them.
	inj.SetHook(nil)
	c2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range map[string]int{"a": 3, "b": 3} {
		doc, err := c2.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(doc.GODDAG().ElementsNamed("edit")); got != want {
			t.Fatalf("%s recovered %d edits, want %d", id, got, want)
		}
	}
	if c2.ReadOnly() {
		t.Fatal("degradation leaked across restart")
	}
}

// TestNegativeCacheTTLAndBackoff pins the catalog clock and walks a
// broken source through failure caching, exponential backoff, and
// recovery without a manual Evict.
func TestNegativeCacheTTLAndBackoff(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "doc.xml")
	if err := os.WriteFile(src, []byte("<r>unclosed"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir, Options{NegCacheTTL: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var loads atomic.Int32
	c.onLoad = func(string) { loads.Add(1) }
	now := time.Unix(1_000_000, 0)
	c.now = func() time.Time { return now }

	mustFail := func(wantLoads int32) {
		t.Helper()
		if _, err := c.Get("doc"); err == nil {
			t.Fatal("broken source loaded")
		}
		if got := loads.Load(); got != wantLoads {
			t.Fatalf("loads = %d, want %d", got, wantLoads)
		}
	}
	mustFail(1)
	mustFail(1) // within TTL: served from the negative cache
	now = now.Add(500 * time.Millisecond)
	mustFail(1)
	now = now.Add(600 * time.Millisecond) // 1.1s: TTL expired, retried
	mustFail(2)
	now = now.Add(1500 * time.Millisecond) // second failure backs off 2x: still cached
	mustFail(2)

	// Fix the source; the next expiry heals the entry with no Evict.
	if err := os.WriteFile(src, []byte("<r><w>ok</w></r>"), 0o644); err != nil {
		t.Fatal(err)
	}
	now = now.Add(time.Second) // 2.5s after second failure: past the 2s backoff
	doc, err := c.Get("doc")
	if err != nil {
		t.Fatalf("healed source still failing: %v", err)
	}
	if loads.Load() != 3 || doc == nil {
		t.Fatalf("loads = %d after heal", loads.Load())
	}
	// Success resets the backoff state.
	if ds, _ := c.Doc("doc"); ds.Error != "" {
		t.Fatalf("healed entry still caches error %q", ds.Error)
	}
}

// BenchmarkRecovery measures open-time WAL replay against log length:
// the recovery-time-vs-log-length curve documented in PERFORMANCE.md.
// The base document is a v3 file, as saves write it, so each open maps
// it before replaying.
func BenchmarkRecovery(b *testing.B) {
	for _, n := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			// Build a corpus document and a WAL of n committed-but-unsaved
			// batches by blocking every save.
			master := b.TempDir()
			cfg := corpus.DefaultConfig(2000)
			doc, err := corpus.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			f, err := os.Create(filepath.Join(master, "ms.gdag"))
			if err != nil {
				b.Fatal(err)
			}
			if err := store.EncodeV3(f, doc); err != nil {
				b.Fatal(err)
			}
			f.Close()

			inj := faultfs.NewInjector(faultfs.OS)
			// The setup catalog eats n failed saves on purpose; keep it
			// from degrading to read-only partway through.
			opts := fastOpts(inj)
			opts.FailThreshold = 1 << 20
			c, err := Open(master, opts)
			if err != nil {
				b.Fatal(err)
			}
			loaded, err := c.Get("ms")
			if err != nil {
				b.Fatal(err)
			}
			cn := loaded.GODDAG().Content()
			errDisk := errors.New("injected: EIO")
			inj.SetHook(func(op faultfs.Op, p string) error {
				if op == faultfs.OpRename && strings.HasSuffix(p, ".gdag") {
					return errDisk
				}
				return nil
			})
			for i := 0; i < n; i++ {
				sp := cn.ByteSpan(document.NewSpan(4*i, 4*i+3))
				ops := []editor.Op{{Op: "insert-markup", Hierarchy: "edits", Tag: "edit", Start: sp.Start, End: sp.End}}
				if err := c.UpdateBatch("ms", ops, nil); err != nil {
					b.Fatal(err)
				}
			}
			gdag, err := os.ReadFile(filepath.Join(master, "ms.gdag"))
			if err != nil {
				b.Fatal(err)
			}
			wal, err := os.ReadFile(filepath.Join(master, "ms.wal"))
			if err != nil {
				b.Fatal(err)
			}

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				if err := os.WriteFile(filepath.Join(dir, "ms.gdag"), gdag, 0o644); err != nil {
					b.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, "ms.wal"), wal, 0o644); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				rc, err := Open(dir, Options{}) // eager recovery replays the log
				if err != nil {
					b.Fatal(err)
				}
				if s := rc.Stats(); s.Replayed != uint64(n) {
					b.Fatalf("replayed %d records, want %d", s.Replayed, n)
				}
			}
		})
	}
}

// orderedBatches are three op batches on the plain document; the third
// addresses the second element the first two insert, so it applies only
// after them.
var orderedBatches = [][]editor.Op{
	{{Op: "insert-markup", Hierarchy: "edits", Tag: "edit", Start: 0, End: 3}},
	{{Op: "insert-markup", Hierarchy: "edits", Tag: "edit", Start: 4, End: 9}},
	{{Op: "set-attr", Hierarchy: "edits", Index: 1, Name: "status", Value: "committed"}},
}

// plainBase returns a detached copy of the plain document's initial
// state, loaded without touching the directory's log.
func plainBase(t *testing.T, dir string) *goddag.Document {
	t.Helper()
	c, err := Open(dir, Options{DisableWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := c.Get("plain")
	if err != nil {
		t.Fatal(err)
	}
	return decodeImage(t, imageOf(t, doc.GODDAG()))
}

// writeGdagBase replaces the plain document's source with a .gdag file
// holding img.
func writeGdagBase(t *testing.T, dir string, img []byte) {
	t.Helper()
	if err := os.Remove(filepath.Join(dir, "plain.xml")); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "plain.gdag"), img, 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeLegacyWAL logs batches onto base as versions before RecordBatch
// did: a version-1 segment of RecordOps records, each stamped with
// store.Fingerprint of its pre-state. It returns the post-state.
func writeLegacyWAL(t *testing.T, dir string, base *goddag.Document, batches [][]editor.Op) *goddag.Document {
	t.Helper()
	path := filepath.Join(dir, "plain.wal")
	w, _, err := store.OpenWAL(faultfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s := editor.NewSession(base, validate.NewSchema(), editor.Options{})
	for _, ops := range batches {
		payload, err := json.Marshal(editor.Batch{Ops: ops})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(store.RecordOps, store.Fingerprint(s.Document()), payload); err != nil {
			t.Fatal(err)
		}
		if err := s.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
	}
	if v := walBytes(t, dir)[4]; v != 1 {
		t.Fatalf("legacy segment has header version %d, want 1", v)
	}
	return s.Document()
}

// walBytes reads the plain document's log segment.
func walBytes(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "plain.wal"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// walKinds lists the kinds of the plain document's logged records.
func walKinds(t *testing.T, dir string) string {
	t.Helper()
	recs, _ := store.ScanWALRecords(walBytes(t, dir)[store.WALHeaderLen:])
	var kinds []byte
	for _, r := range recs {
		kinds = append(kinds, byte(r.Kind))
	}
	return string(kinds)
}

// failGdagRenames makes every save fail at its rename; the log stays
// writable.
func failGdagRenames(op faultfs.Op, p string) error {
	if op == faultfs.OpRename && strings.HasSuffix(p, ".gdag") {
		return errors.New("injected: EIO")
	}
	return nil
}

// reopenPlain opens dir on a healthy disk and requires the plain
// document to hold the first n of orderedBatches' effects, after
// replaying exactly replayed records and resetting the log.
func reopenPlain(t *testing.T, dir string, n int, replayed uint64) {
	t.Helper()
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := c.Get("plain")
	if err != nil {
		t.Fatal(err)
	}
	wantEdits, wantStatus := min(n, 2), 0
	if n == 3 {
		wantStatus = 1
	}
	edits := doc.GODDAG().ElementsNamed("edit")
	status := 0
	for _, el := range edits {
		if v, ok := el.Attr("status"); ok && v == "committed" {
			status++
		}
	}
	if len(edits) != wantEdits || status != wantStatus {
		t.Fatalf("recovered %d edit elements (%d with status), want %d (%d)", len(edits), status, wantEdits, wantStatus)
	}
	if s := c.Stats(); s.Replayed != replayed {
		t.Fatalf("replayed %d records, want %d", s.Replayed, replayed)
	}
	if got := len(walBytes(t, dir)); got != store.WALHeaderLen {
		t.Fatalf("log is %d bytes after recovery, want %d", got, store.WALHeaderLen)
	}
}

// TestStaleBatchRecordsSkipped crashes after a save's rename and before
// its log reset, with earlier records of failed saves still in the log:
// the saved base already holds every logged batch, so replay must skip
// all the stale RecordBatch records and each batch applies exactly once.
func TestStaleBatchRecordsSkipped(t *testing.T) {
	dir := writePlainDir(t, "plain")
	inj := faultfs.NewInjector(faultfs.OS)
	c, err := Open(dir, fastOpts(inj))
	if err != nil {
		t.Fatal(err)
	}
	inj.SetHook(failGdagRenames)
	for _, ops := range orderedBatches[:2] {
		if err := c.UpdateBatch("plain", ops, nil); err != nil {
			t.Fatal(err)
		}
	}
	inj.SetHook(crashAt(func(op faultfs.Op, p string) bool { return op == faultfs.OpTruncate && isWAL(p) }, errors.New("injected: EIO")))
	if err := c.UpdateBatch("plain", orderedBatches[2], nil); err != nil {
		t.Fatal(err)
	}
	if kinds := walKinds(t, dir); kinds != "BBB" {
		t.Fatalf("log holds records %q, want three RecordBatch", kinds)
	}
	reopenPlain(t, dir, 3, 0)
}

// TestLegacyOpsRecordsReplayExactlyOnce replays a segment of RecordOps
// records as earlier versions wrote it, onto the base they were logged
// against, and in the crash window where the save of their post-state
// landed but the log reset did not. Each batch applies exactly once.
func TestLegacyOpsRecordsReplayExactlyOnce(t *testing.T) {
	for _, saved := range []bool{false, true} {
		t.Run(fmt.Sprintf("saved=%v", saved), func(t *testing.T) {
			dir := writePlainDir(t, "plain")
			base := plainBase(t, dir)
			writeGdagBase(t, dir, imageOf(t, base))
			post := writeLegacyWAL(t, dir, decodeImage(t, imageOf(t, base)), orderedBatches)
			replayed := uint64(3)
			if saved {
				writeGdagBase(t, dir, imageOf(t, post))
				replayed = 0
			}
			reopenPlain(t, dir, 3, replayed)
		})
	}
}

// TestMixedSegmentReplaysInOrder upgrades onto a legacy log whose
// converge save fails: the recovered document takes a new batch, so the
// segment holds RecordOps records followed by a RecordBatch (and has
// become version 2). A later open replays all three in order.
func TestMixedSegmentReplaysInOrder(t *testing.T) {
	dir := writePlainDir(t, "plain")
	base := plainBase(t, dir)
	writeGdagBase(t, dir, imageOf(t, base))
	writeLegacyWAL(t, dir, decodeImage(t, imageOf(t, base)), orderedBatches[:2])

	inj := faultfs.NewInjector(faultfs.OS)
	inj.SetHook(failGdagRenames)
	c, err := Open(dir, fastOpts(inj)) // recovers eagerly; the converge save fails
	if err != nil {
		t.Fatal(err)
	}
	if ds, _ := c.Doc("plain"); !ds.Dirty {
		t.Fatalf("converge save did not fail: %+v", ds)
	}
	if err := c.UpdateBatch("plain", orderedBatches[2], nil); err != nil {
		t.Fatal(err)
	}
	if kinds := walKinds(t, dir); kinds != "OOB" {
		t.Fatalf("log holds records %q, want two RecordOps then a RecordBatch", kinds)
	}
	if v := walBytes(t, dir)[4]; v != 2 {
		t.Fatalf("mixed segment has header version %d, want 2", v)
	}
	reopenPlain(t, dir, 3, 3)
}

// TestNonCanonicalV3BaseReplays logs a batch against a .gdag whose
// bytes differ from MarshalV3 of its own decode, as a v3 file written
// by an older encoder can: its name buckets are stored in reverse
// order, with the section and directory CRCs recomputed. Both sides of
// the exactly-once gate fingerprint the session's image of the decoded
// state, not the file, so the record replays.
func TestNonCanonicalV3BaseReplays(t *testing.T) {
	dir := writePlainDir(t, "plain")
	// A second tag gives the base a second name bucket to reorder.
	s := editor.NewSession(plainBase(t, dir), validate.NewSchema(), editor.Options{})
	if err := s.ApplyBatch([]editor.Op{{Op: "insert-markup", Hierarchy: "notes", Tag: "note", Start: 0, End: 9}}); err != nil {
		t.Fatal(err)
	}
	file := reverseBuckets(t, imageOf(t, s.Document()))
	if bytes.Equal(imageOf(t, decodeImage(t, file)), file) {
		t.Fatal("patched base is canonical; the test would not tell file bytes from the image")
	}
	writeGdagBase(t, dir, file)

	inj := faultfs.NewInjector(faultfs.OS)
	c, err := Open(dir, fastOpts(inj))
	if err != nil {
		t.Fatal(err)
	}
	inj.SetHook(failGdagRenames)
	if err := c.UpdateBatch("plain", orderedBatches[0], nil); err != nil {
		t.Fatal(err)
	}
	reopenPlain(t, dir, 1, 1)
}

// reverseBuckets rewrites a v3 image's name-bucket section (id 19: a
// bucket count, {tag, size} pairs, then the concatenated positions)
// with the buckets in reverse order, and recomputes the section's
// CRC-32C and the directory CRC. The image still opens to the same
// document; re-encoding that document sorts the buckets again.
func reverseBuckets(t *testing.T, img []byte) []byte {
	t.Helper()
	const secBuckets = 19
	img = append([]byte(nil), img...)
	le := binary.LittleEndian
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	nsec := int(le.Uint32(img[8:]))
	for i := 0; i < nsec; i++ {
		e := img[16+24*i:]
		if le.Uint32(e) != secBuckets {
			continue
		}
		off := le.Uint64(e[8:])
		sec := img[off : off+uint64(le.Uint32(e[4:]))]
		u := make([]uint32, len(sec)/4)
		for k := range u {
			u[k] = le.Uint32(sec[4*k:])
		}
		nb := int(u[0])
		if nb < 2 {
			t.Fatalf("%d name buckets; need two to reorder", nb)
		}
		runs := make([][]uint32, nb)
		p := 1 + 2*nb
		for b := range runs {
			runs[b] = u[p : p+int(u[2+2*b])]
			p += len(runs[b])
		}
		out := []uint32{uint32(nb)}
		for b := nb - 1; b >= 0; b-- {
			out = append(out, u[1+2*b], u[2+2*b])
		}
		for b := nb - 1; b >= 0; b-- {
			out = append(out, runs[b]...)
		}
		for k, v := range out {
			le.PutUint32(sec[4*k:], v)
		}
		le.PutUint32(e[16:], crc32.Checksum(sec, castagnoli))
	}
	dirEnd := 16 + 24*nsec
	le.PutUint32(img[dirEnd:], crc32.Checksum(img[:dirEnd], castagnoli))
	return img
}
