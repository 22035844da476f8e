package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/corpus"
	"repro/internal/document"
	"repro/internal/editor"
	"repro/internal/faultfs"
	"repro/internal/goddag"
	"repro/internal/server"
	"repro/internal/store"
)

// edit-durable: one writer sends small seeded edit batches to one
// document with the write-ahead log on, and during each commit one
// reader sends one round of queries to the same document.
// Inserted markup is removed again later in the same pass, so the
// document's size stays stationary from pass to pass.
const (
	editDoc       = "ed"
	editWords     = 8000
	editSetAttrs  = 12 // set-attr batches per pass
	editPairs     = 6  // insert-markup/remove-markup batch pairs per pass
	editWarmPass  = 3  // warm-up passes: past the 64-entry undo history
	editHierarchy = "damage"
	editTag       = "hl"
	placeholder   = "v00000000" // set-attr value, patched with the batch number
)

// The reader's mix: results that no batch of the writer can change, so
// every answer is checked against its setup-time hash.
var editReadMix = []queryClass{
	{query: "count(//w)", format: "count", weight: 1},
	{query: "//dmg/overlapping::w", format: "text", weight: 1},
	{query: "count(//line/covered::w)", format: "count", weight: 1},
}

// editBatch is one batch of the pass template. Its set-attr ops carry
// placeholder, replaced by the batch's sequence number when sent.
type editBatch struct {
	ops     []editor.Op
	req     *request
	patchAt []int // offsets of placeholder digits in req.data
}

type ackedBatch struct {
	batch int
	seq   int
}

type editDurable struct {
	base
	initial []byte // v3 image of the document before any edit
	cat     *catalog.Catalog
	h       http.Handler
	w       *respWriter
	batches []editBatch
	nextSeq int
	acked   []ackedBatch
	reads   []readOp

	// reader state, owned by the reader goroutine during a round
	readW     *respWriter
	readLat   []time.Duration
	lastReads []time.Duration // reader latencies of the last handler phase
	readDone  int
	readTried int
	readChk   checks
	comp      *composer
	readTr    *tracer
	lockWait  time.Duration

	// traced-phase accumulators
	fs0    fsCounts
	stats0 catalog.Stats
}

func newEditDurable(seed int64) workload { return &editDurable{base: base{seed: seed}} }

func (e *editDurable) setup(dir string) error {
	e.dir = dir
	e.fs = &countingFS{walSeek: make(chan struct{}, 1)}
	cfg := corpus.DefaultConfig(editWords)
	cfg.Seed = e.seed
	g, err := corpus.Generate(cfg)
	if err != nil {
		return err
	}
	var img bytes.Buffer
	if err := store.EncodeV3(&img, g); err != nil {
		return err
	}
	e.initial = img.Bytes()
	e.content = int64(g.Stats().ContentLen)
	if err := writeV3(filepath.Join(dir, editDoc+".gdag"), g); err != nil {
		return err
	}
	if e.batches, err = editTemplate(g, e.seed); err != nil {
		return err
	}
	cat, err := catalog.Open(dir, catalog.Options{FS: e.fs})
	if err != nil {
		return err
	}
	e.cat = cat
	e.h = server.New(cat, server.Config{}).Handler()
	e.w, e.readW = newRespWriter(), newRespWriter()
	e.comp = newComposer(cat)
	oracle := map[string]*goddag.Document{editDoc: g}
	if e.reads, _, err = prepareReads(e.h, e.readW, oracle, []string{editDoc}, editReadMix); err != nil {
		return err
	}
	for i := 0; i < editWarmPass; i++ {
		if err := e.writePass(nil, nil, nil); err != nil {
			return err
		}
	}
	if e.chk.failed > 0 {
		return e.chk.first
	}
	return nil
}

// editTemplate generates one pass of batches by applying them to a
// replica of g: set-attr batches of one to three ops on lines and
// words, and insert-markup batches whose matching remove-markup comes
// later in the pass, at the index the replica gives the new element.
func editTemplate(g *goddag.Document, seed int64) ([]editBatch, error) {
	replica, err := replicaOf(g)
	if err != nil {
		return nil, err
	}
	s := editor.NewSession(replica, nil, editor.Options{HistoryLimit: 1})
	rng := rand.New(rand.NewSource(seed))
	// Order the pass: each pair's insert precedes its remove, with the
	// set-attr batches spread in between.
	kinds := make([]int, 0, editSetAttrs+2*editPairs) // 0 set-attr, 1 insert, 2 remove
	for i := 0; i < editSetAttrs; i++ {
		kinds = append(kinds, 0)
	}
	for i := 0; i < editPairs; i++ {
		kinds = append(kinds, 1)
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	var order []int
	open := 0
	for _, k := range kinds {
		order = append(order, k)
		if k == 1 {
			open++
		} else if open > 0 && rng.Intn(2) == 0 {
			order = append(order, 2)
			open--
		}
	}
	for ; open > 0; open-- {
		order = append(order, 2)
	}

	words := replica.Hierarchy("words")
	lines := replica.Hierarchy("physical")
	var inserted []document.Span // open insertions, oldest first
	var out []editBatch
	for bi, k := range order {
		var ops []editor.Op
		switch k {
		case 0:
			for n := 1 + bi%3; n > 0; n-- {
				h, hn := words, "words"
				if rng.Intn(4) == 0 {
					h, hn = lines, "physical"
				}
				ops = append(ops, editor.Op{Op: "set-attr", Hierarchy: hn, Index: rng.Intn(h.Len()), Name: "k", Value: placeholder})
			}
		case 1:
			op, sp, err := insertOp(s, words, rng)
			if err != nil {
				return nil, err
			}
			ops = []editor.Op{op}
			inserted = append(inserted, sp)
		case 2:
			sp := inserted[0]
			inserted = inserted[1:]
			idx, ok := indexOf(replica.Hierarchy(editHierarchy), sp)
			if !ok {
				return nil, fmt.Errorf("edit template: inserted %s at %v not found", editTag, sp)
			}
			ops = []editor.Op{{Op: "remove-markup", Hierarchy: editHierarchy, Index: idx}}
		}
		if k != 1 {
			if err := s.ApplyBatch(ops); err != nil {
				return nil, fmt.Errorf("edit template: %w", err)
			}
		}
		out = append(out, newEditBatch(ops))
	}
	return out, nil
}

// insertOp finds a word whose span can take new markup in the damage
// layer without conflicting with it, and applies the insertion to the
// replica session.
func insertOp(s *editor.Session, words *goddag.Hierarchy, rng *rand.Rand) (editor.Op, document.Span, error) {
	for try := 0; try < 1000; try++ {
		el, _ := words.ElementAt(rng.Intn(words.Len()))
		if el.Name() != "w" {
			continue
		}
		sp := el.Span()
		op := editor.Op{Op: "insert-markup", Hierarchy: editHierarchy, Tag: editTag, Start: sp.Start, End: sp.End}
		if s.ApplyBatch([]editor.Op{op}) == nil {
			return op, sp, nil
		}
	}
	return editor.Op{}, document.Span{}, fmt.Errorf("edit template: no word takes %s markup", editTag)
}

// indexOf finds the inserted element with span sp in h's document order.
func indexOf(h *goddag.Hierarchy, sp document.Span) (int, bool) {
	for i := 0; i < h.Len(); i++ {
		if el, ok := h.ElementAt(i); ok && el.Name() == editTag && el.Span() == sp {
			return i, true
		}
	}
	return 0, false
}

func replicaOf(g *goddag.Document) (*goddag.Document, error) {
	var buf bytes.Buffer
	if err := store.EncodeV3(&buf, g); err != nil {
		return nil, err
	}
	return store.Decode(&buf)
}

func newEditBatch(ops []editor.Op) editBatch {
	body, err := json.Marshal(server.EditRequest{Ops: ops})
	if err != nil {
		panic(err) // plain struct: a bug
	}
	b := editBatch{ops: ops, req: newRequest("/docs/"+editDoc+"/edit", body)}
	for off := 0; ; {
		i := bytes.Index(body[off:], []byte(placeholder))
		if i < 0 {
			break
		}
		b.patchAt = append(b.patchAt, off+i+1)
		off += i + len(placeholder)
	}
	return b
}

// opsFor returns the batch's ops with the value for sequence number seq.
func (b *editBatch) opsFor(seq int) []editor.Op {
	v := fmt.Sprintf("v%08d", seq)
	ops := make([]editor.Op, len(b.ops))
	for i, op := range b.ops {
		if op.Value == placeholder {
			op.Value = v
		}
		ops[i] = op
	}
	return ops
}

// patch writes seq into the request body's placeholders.
func (b *editBatch) patch(seq int) {
	for _, at := range b.patchAt {
		for i, v := 7, seq; i >= 0; i, v = i-1, v/10 {
			b.req.data[at+i] = byte('0' + v%10)
		}
	}
}

func (e *editDurable) run(passes int, tr *tracer) error {
	if tr != nil {
		e.fs0, e.stats0 = e.fs.counts(), e.cat.Stats()
		e.readTr = &tracer{t0: tr.t0, off: tr.off}
	}
	kick, round := make(chan chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for written := range kick {
			select {
			case <-e.fs.walSeek: // the batch is committing under the write lock
			case <-written: // the batch failed before its log append
			}
			e.readRound()
			round <- struct{}{}
		}
	}()
	err := repeat(passes, func() error { return e.writePass(tr, kick, round) })
	close(kick)
	wg.Wait()
	if tr != nil {
		if !tr.off {
			tr.merge(e.readTr)
		}
		e.readTr = nil
	}
	e.done += e.readDone
	e.attempted += e.readTried
	e.readDone, e.readTried = 0, 0
	if e.readChk.failed > 0 {
		e.chk.failed += e.readChk.failed
		if e.chk.first == nil {
			e.chk.first = e.readChk.first
		}
		e.readChk = checks{}
	}
	return err
}

// readRound is the reader's share of one batch: each read of its mix
// once, issued while the batch commits, so every read waits behind the
// writer's lock. Issuing them at a fixed point of the commit, rather
// than racing it, keeps the document's lazily built indexes — and so
// the undo snapshots that copy them — the same from run to run.
func (e *editDurable) readRound() {
	for _, op := range e.reads {
		e.readTried++
		q := editReadMix[op.class]
		if e.readTr != nil {
			id := e.readTr.op()
			root := e.readTr.begin("read", id, -1)
			rs, err := e.comp.read(e.readTr, id, root, op.doc, q)
			e.readTr.end(root)
			if err != nil || crc32.Checksum(e.comp.out.Bytes(), castagnoli) != op.want {
				e.readChk.fail("traced read %s beside a write: %v", q, err)
				continue
			}
			e.lockWait += rs.lockWait
			e.readDone++
			continue
		}
		d := op.req.serve(e.h, e.readW)
		if e.readW.status != http.StatusOK || e.readW.hash() != op.want {
			e.readChk.fail("read %s beside a write: status %d", q, e.readW.status)
			continue
		}
		e.readLat = append(e.readLat, d)
		e.readDone++
	}
}

// writePass sends one pass of batches: through the handler, or with a
// tracer as direct UpdateBatch calls split into stages by the
// timestamps of the filesystem calls each commit makes. With kick set,
// each batch starts a reader round, passing it a channel closed once
// the batch returns, and waits for the round to finish.
func (e *editDurable) writePass(tr *tracer, kick chan<- chan struct{}, round <-chan struct{}) error {
	for bi := range e.batches {
		b := &e.batches[bi]
		seq := e.nextSeq
		e.nextSeq++
		e.attempted++
		var written chan struct{}
		if kick != nil {
			select {
			case <-e.fs.walSeek: // a seek outside a batch, such as a log reset
			default:
			}
			written = make(chan struct{})
			kick <- written
		}
		var d time.Duration
		var err error
		if tr == nil {
			b.patch(seq)
			d = b.req.serve(e.h, e.w)
			if e.w.status != http.StatusOK {
				err = fmt.Errorf("status %d: %s", e.w.status, e.w.body)
			}
		} else {
			d, err = e.tracedWrite(tr, b.opsFor(seq))
		}
		if kick != nil {
			close(written)
			<-round
		}
		if err != nil {
			e.chk.fail("edit batch %d: %v", seq, err)
			continue
		}
		e.lat = append(e.lat, d)
		e.acked = append(e.acked, ackedBatch{batch: bi, seq: seq})
		e.done++
	}
	return nil
}

func (e *editDurable) tracedWrite(tr *tracer, ops []editor.Op) (time.Duration, error) {
	id := tr.op()
	root := tr.begin("write", id, -1)
	e.fs.startRecording()
	start := time.Now()
	err := e.cat.UpdateBatch(editDoc, ops, nil)
	end := time.Now()
	events := e.fs.takeEvents()
	tr.end(root)
	if err != nil || tr.off {
		return end.Sub(start), err
	}
	up := tr.add("catalog.update", id, root, start, end)
	var walSeek, walSync, create, createEnd, tmpSync, dirClose, resetStart, resetEnd time.Time
	for _, ev := range events {
		if !dirClose.IsZero() && ev.kind == kindWAL {
			if resetStart.IsZero() {
				resetStart = ev.start
			}
			resetEnd = ev.end
			continue
		}
		switch {
		case ev.kind == kindWAL && ev.op == "seek" && walSeek.IsZero():
			walSeek = ev.start
		case ev.kind == kindWAL && ev.op == faultfs.OpSync && walSync.IsZero():
			walSync = ev.end
		case ev.op == faultfs.OpCreate && create.IsZero():
			create, createEnd = ev.start, ev.end
		case ev.kind == kindGdag && ev.op == faultfs.OpSync && tmpSync.IsZero():
			tmpSync = ev.start
		case ev.kind == kindDir && ev.op == faultfs.OpClose:
			dirClose = ev.end
		}
	}
	for _, t := range []time.Time{walSeek, walSync, create, tmpSync, dirClose} {
		if t.IsZero() {
			return 0, fmt.Errorf("commit made an unexpected filesystem call sequence (%d calls)", len(events))
		}
	}
	tr.add("catalog.pre_wal", id, up, start, walSeek)
	tr.add("store.wal_append", id, up, walSeek, walSync)
	tr.add("editor.apply", id, up, walSync, create)
	save := tr.add("store.save", id, up, create, dirClose)
	tr.add("store.encode", id, save, createEnd, tmpSync)
	post := tr.add("catalog.post_save", id, up, dirClose, end)
	if !resetStart.IsZero() {
		tr.add("store.wal_reset", id, post, resetStart, resetEnd)
	}
	return end.Sub(start), nil
}

func (e *editDurable) principal() []time.Duration { return e.lat }

// reset keeps the reader latencies of the last phase that sent reads
// through the handler: the side-read percentiles of a traced run come
// from its untraced phase.
func (e *editDurable) reset() {
	e.base.reset()
	if len(e.readLat) > 0 {
		e.lastReads = append(e.lastReads[:0], e.readLat...)
		e.readLat = e.readLat[:0]
	}
	e.lockWait = 0
}

// verify reopens the directory with a fresh catalog, as a restart
// would, and compares the document with a replica that replayed every
// acknowledged batch in order.
func (e *editDurable) verify() {
	c := &e.chk
	fresh, err := catalog.Open(e.dir, catalog.Options{})
	if err != nil {
		c.fail("reopen: %v", err)
		return
	}
	doc, err := fresh.Get(editDoc)
	if err != nil {
		c.fail("reopen %s: %v", editDoc, err)
		return
	}
	replica, err := store.Decode(bytes.NewReader(e.initial))
	if err != nil {
		c.fail("replica: %v", err)
		return
	}
	s := editor.NewSession(replica, nil, editor.Options{HistoryLimit: 1})
	for _, a := range e.acked {
		if err := s.ApplyBatch(e.batches[a.batch].opsFor(a.seq)); err != nil {
			c.fail("replay batch %d: %v", a.seq, err)
			return
		}
	}
	var got, want bytes.Buffer
	if err := store.EncodeV3(&got, doc.GODDAG()); err != nil {
		c.fail("encode reopened: %v", err)
		return
	}
	if err := store.EncodeV3(&want, replica); err != nil {
		c.fail("encode replica: %v", err)
		return
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		c.fail("reopened document differs from the replay of %d acknowledged batches", len(e.acked))
	}
}

func (e *editDurable) clientRequests() []*request {
	reqs := make([]*request, len(e.batches))
	for i := range e.batches {
		reqs[i] = e.batches[i].req
	}
	return reqs
}

func (e *editDurable) layers(tr *tracer, m metrics) time.Duration {
	lt := tr.times()
	n := lt.n["write"]
	for _, s := range []struct{ span, metric string }{
		{"catalog.pre_wal", "catalog.pre_wal_ms"},
		{"store.wal_append", "store.wal_append_ms"},
		{"editor.apply", "editor.apply_ms"},
		{"store.save", "store.save_ms"},
		{"store.encode", "store.encode_ms"},
		{"catalog.post_save", "catalog.post_save_ms"},
		{"store.wal_reset", "store.wal_reset_ms"},
	} {
		m.setLayer(s.metric, perMS(lt.total[s.span], n))
	}
	fc := e.fs.counts().sub(e.fs0)
	if n > 0 {
		m.setLayer("faultfs.wal_kb_per_commit", float64(fc.WALBytes)/float64(n)/1024)
		m.setLayer("faultfs.gdag_kb_per_commit", float64(fc.GdagBytes)/float64(n)/1024)
		m.setLayer("faultfs.syncs_per_commit", float64(fc.Syncs)/float64(n))
		m.setLayer("faultfs.sync_ms_per_commit", ms(time.Duration(fc.SyncNS))/float64(n))
	}
	reads := lt.n["read"]
	readLayers(m, lt, reads)
	m.setLayer("catalog.lock_wait_ms", perMS(e.lockWait, reads))
	if p, ok := percentile(e.lastReads, 0.50); ok {
		m.setLayer("side.read_p50_ms", ms(p))
	}
	if p, ok := percentile(e.lastReads, 0.90); ok {
		m.setLayer("side.read_p90_ms", ms(p))
	}
	catalogLayers(m, e.cat, e.stats0, n+reads)
	// The commit's top-level stages; they are cut at filesystem calls, so
	// together they cover UpdateBatch from its call to its return.
	var stages time.Duration
	for _, s := range []string{"catalog.pre_wal", "store.wal_append", "editor.apply", "store.save", "catalog.post_save"} {
		stages += lt.total[s]
	}
	return stages / time.Duration(n)
}
