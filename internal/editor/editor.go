// Package editor implements the document-editing core of xTagger, the
// paper's authoring tool for multihierarchical document-centric XML
// (§4 and reference [4]): select a fragment, choose markup from any of
// the document's hierarchies, and have *prevalidation* veto insertions
// that could never be extended to a valid encoding (reference [5]).
//
// A Session wraps a GODDAG with a concurrent markup schema (one DTD per
// hierarchy), an undo/redo history, and change notifications for
// presentation layers.
//
// The history is a stack of v3 images (store.MarshalV3): a session
// caches the image of its current state, encoding it on first need
// after a mutation, and a committed edit pushes the image of the state
// it replaced. Undo, redo and a transaction rollback restore a state by
// opening its image (store.OpenMappedBytes), which yields a new
// document value, materialized lazily; elements held from before no
// longer belong to the session's document.
//
// Edits can be batched in transactions (Begin/Commit/Rollback): each
// operation is prevalidated as it is issued, but the batch commits — or
// is vetoed — atomically and costs one undo entry and one change
// notification however many operations it carries. Begin is O(1) while
// the current image is cached, as it is after a save. The HTTP edit
// endpoint (internal/server) applies each request body as one
// transaction.
package editor

import (
	"errors"
	"fmt"
	"unicode/utf8"

	"repro/internal/document"
	"repro/internal/dtd"
	"repro/internal/goddag"
	"repro/internal/store"
	"repro/internal/validate"
)

// History sentinel errors, for errors.Is checks by presentation layers
// (the HTTP server maps them to 409).
var (
	ErrNothingToUndo = errors.New("editor: nothing to undo")
	ErrNothingToRedo = errors.New("editor: nothing to redo")
)

// ChangeKind discriminates edit notifications.
type ChangeKind int

// Change kinds.
const (
	ChangeInsertMarkup ChangeKind = iota
	ChangeRemoveMarkup
	ChangeSetAttr
	ChangeRemoveAttr
	ChangeInsertText
	ChangeDeleteText
	ChangeUndo
	ChangeRedo
	ChangeTransaction
)

// String returns the change kind name.
func (k ChangeKind) String() string {
	switch k {
	case ChangeInsertMarkup:
		return "insert-markup"
	case ChangeRemoveMarkup:
		return "remove-markup"
	case ChangeSetAttr:
		return "set-attr"
	case ChangeRemoveAttr:
		return "remove-attr"
	case ChangeInsertText:
		return "insert-text"
	case ChangeDeleteText:
		return "delete-text"
	case ChangeUndo:
		return "undo"
	case ChangeRedo:
		return "redo"
	case ChangeTransaction:
		return "transaction"
	default:
		return fmt.Sprintf("ChangeKind(%d)", int(k))
	}
}

// Change describes one applied edit.
type Change struct {
	Kind      ChangeKind
	Hierarchy string
	Tag       string
	Span      document.Span
	Detail    string
}

// Options configure a session.
type Options struct {
	// Prevalidate makes every markup insertion pass the potential
	// validity check against the hierarchy's DTD before it is applied
	// (xTagger's signature feature). Insertion into hierarchies without
	// a DTD is always allowed.
	Prevalidate bool
	// HistoryLimit bounds the undo stack (0 means DefaultHistoryLimit).
	HistoryLimit int
}

// DefaultHistoryLimit is the default undo depth.
const DefaultHistoryLimit = 64

// Session is an editing session over a GODDAG document. Its history
// is a stack of v3 images; undo, redo and a rollback replace Document()
// with a new document value restored from one of them.
type Session struct {
	doc    *goddag.Document
	schema *validate.Schema
	opts   Options

	// image caches the v3 image of doc; nil after a mutation until Image
	// encodes it again. undo and redo hold the images of the states
	// before each committed edit and of the states undone.
	image     []byte
	undo      [][]byte
	redo      [][]byte
	listeners []func(Change)
	tx        *Tx // open transaction, nil otherwise
}

// NewSession starts a session. schema may be nil (no validation).
func NewSession(doc *goddag.Document, schema *validate.Schema, opts Options) *Session {
	if opts.HistoryLimit == 0 {
		opts.HistoryLimit = DefaultHistoryLimit
	}
	if schema == nil {
		schema = validate.NewSchema()
	}
	return &Session{doc: doc, schema: schema, opts: opts}
}

// Document returns the live document. Mutating it directly bypasses
// history, prevalidation and the cached image.
func (s *Session) Document() *goddag.Document { return s.doc }

// Image returns the v3 image of the current document, encoding it on
// first need after a mutation. The bytes are shared with the session's
// history and must not be modified.
func (s *Session) Image() ([]byte, error) {
	if s.image == nil {
		img, err := store.MarshalV3(s.doc)
		if err != nil {
			return nil, err
		}
		s.image = img
	}
	return s.image, nil
}

// restore makes the state img encodes the session's document: a new
// document value over the image bytes, with the incremental-repair
// setting carried over.
func (s *Session) restore(img []byte) error {
	m, err := store.OpenMappedBytes(img)
	if err != nil {
		return err
	}
	doc, err := m.Document()
	if err != nil {
		return err
	}
	doc.SetIncrementalRepair(s.doc.IncrementalRepair())
	s.doc, s.image = doc, img
	return nil
}

// HistoryFootprint is the bytes of the images the session holds: the
// undo and redo stacks and the cached current image. Serving layers add
// it to the live document's footprint when budgeting resident memory.
func (s *Session) HistoryFootprint() int64 {
	n := len(s.image)
	for _, img := range s.undo {
		n += len(img)
	}
	for _, img := range s.redo {
		n += len(img)
	}
	return int64(n)
}

// SetPrevalidate toggles the prevalidation veto for subsequent markup
// insertions, in place: history, listeners, and any open transaction
// are unaffected (ops issued after the call see the new setting).
func (s *Session) SetPrevalidate(on bool) { s.opts.Prevalidate = on }

// Prevalidating reports whether insertions are prevalidated.
func (s *Session) Prevalidating() bool { return s.opts.Prevalidate }

// Schema returns the session's concurrent markup schema.
func (s *Session) Schema() *validate.Schema { return s.schema }

// OnChange registers a change listener, called after each applied edit.
func (s *Session) OnChange(f func(Change)) { s.listeners = append(s.listeners, f) }

func (s *Session) notify(c Change) {
	for _, f := range s.listeners {
		f(c)
	}
}

// push records pre, the image of the state a committed edit replaced, as
// the newest undo entry and clears the redo stack.
func (s *Session) push(pre []byte) {
	s.undo = append(s.undo, pre)
	if len(s.undo) > s.opts.HistoryLimit {
		s.undo = append(s.undo[:0], s.undo[1:]...)
	}
	s.redo = nil
}

// ClearHistory empties the undo and redo stacks, keeping the document
// and its cached image: history starts afresh at the current state.
func (s *Session) ClearHistory() { s.undo, s.redo = nil, nil }

// CanUndo reports whether Undo would succeed.
func (s *Session) CanUndo() bool { return len(s.undo) > 0 && s.tx == nil }

// CanRedo reports whether Redo would succeed.
func (s *Session) CanRedo() bool { return len(s.redo) > 0 && s.tx == nil }

// mutable guards direct session edits and history moves against running
// inside an open transaction.
func (s *Session) mutable() error {
	if s.tx != nil {
		return fmt.Errorf("editor: a transaction is open; commit or roll it back first")
	}
	return nil
}

// Undo reverts the most recent edit or committed transaction.
func (s *Session) Undo() error {
	return s.move(&s.undo, &s.redo, Change{Kind: ChangeUndo}, ErrNothingToUndo)
}

// Redo re-applies the most recently undone edit.
func (s *Session) Redo() error {
	return s.move(&s.redo, &s.undo, Change{Kind: ChangeRedo}, ErrNothingToRedo)
}

// move restores the newest image on from and pushes the image of the
// state it replaces onto to.
func (s *Session) move(from, to *[][]byte, c Change, empty error) error {
	if err := s.mutable(); err != nil {
		return err
	}
	if len(*from) == 0 {
		return empty
	}
	cur, err := s.Image()
	if err != nil {
		return err
	}
	if err := s.restore((*from)[len(*from)-1]); err != nil {
		return err
	}
	*from = (*from)[:len(*from)-1]
	*to = append(*to, cur)
	s.notify(c)
	return nil
}

// edit runs one direct session edit: apply mutates the document, and
// leaves it unchanged when it fails. A successful edit pushes the
// pre-state image as one undo entry and notifies its change.
func (s *Session) edit(apply func() (Change, error)) error {
	if err := s.mutable(); err != nil {
		return err
	}
	pre, err := s.Image()
	if err != nil {
		return err
	}
	c, err := apply()
	s.image = nil
	if err != nil {
		return err
	}
	s.push(pre)
	s.notify(c)
	return nil
}

// applyInsertMarkup is the shared core of InsertMarkup and Tx.InsertMarkup:
// prevalidation plus insertion, storing the new element in *el, without
// history or notification. Failed insertions mutate nothing
// (InsertElement is atomic on error; a just-created empty hierarchy is
// unwound here).
func (s *Session) applyInsertMarkup(el **goddag.Element, hierarchy, tag string, span document.Span, attrs []goddag.Attr) (Change, error) {
	h := s.doc.Hierarchy(hierarchy)
	created := false
	if h == nil {
		h = s.doc.AddHierarchy(hierarchy)
		created = true
	}
	var err error
	if s.opts.Prevalidate {
		if err = validate.CheckInsertion(s.doc, h, s.schema.DTD(hierarchy), tag, span); err != nil {
			err = fmt.Errorf("editor: prevalidation rejected <%s>%v in %s: %w", tag, span, hierarchy, err)
		}
	}
	if err == nil {
		*el, err = s.doc.InsertElement(h, tag, attrs, span)
	}
	if err != nil && created {
		s.doc.RemoveHierarchy(hierarchy)
	}
	return Change{Kind: ChangeInsertMarkup, Hierarchy: hierarchy, Tag: tag, Span: span}, err
}

// InsertMarkup inserts an element over span into the named hierarchy,
// after prevalidation when enabled. The hierarchy is created on first
// use. It returns the inserted element. Failed insertions leave the
// session exactly as it was.
func (s *Session) InsertMarkup(hierarchy, tag string, span document.Span, attrs ...goddag.Attr) (el *goddag.Element, err error) {
	err = s.edit(func() (Change, error) { return s.applyInsertMarkup(&el, hierarchy, tag, span, attrs) })
	return el, err
}

// applyRemoveMarkup is the shared core of RemoveMarkup and Tx.RemoveMarkup.
func (s *Session) applyRemoveMarkup(el *goddag.Element) (Change, error) {
	if el == nil {
		return Change{}, fmt.Errorf("editor: nil element")
	}
	c := Change{Kind: ChangeRemoveMarkup, Hierarchy: el.Hierarchy().Name(), Tag: el.Name(), Span: el.Span()}
	if err := s.doc.RemoveElement(el); err != nil {
		return Change{}, err
	}
	return c, nil
}

// RemoveMarkup deletes an element; its children are adopted by its
// parent.
func (s *Session) RemoveMarkup(el *goddag.Element) error {
	return s.edit(func() (Change, error) { return s.applyRemoveMarkup(el) })
}

// applySetAttr is the shared core of SetAttr and Tx.SetAttr: DTD
// attribute validation plus the edit.
func (s *Session) applySetAttr(el *goddag.Element, name, value string) (Change, error) {
	if el == nil {
		return Change{}, fmt.Errorf("editor: nil element")
	}
	if d := s.schema.DTD(el.Hierarchy().Name()); d != nil {
		if decl := d.Element(el.Name()); decl != nil {
			if def := decl.AttDef(name); def != nil {
				if def.Type == "enum" {
					ok := false
					for _, v := range def.Enum {
						if v == value {
							ok = true
							break
						}
					}
					if !ok {
						return Change{}, fmt.Errorf("editor: %s=%q not in enumeration for <%s>", name, value, el.Name())
					}
				}
				if def.Default == dtd.DefaultFixed && value != def.Value {
					return Change{}, fmt.Errorf("editor: %s must be fixed %q on <%s>", name, def.Value, el.Name())
				}
			}
		}
	}
	el.SetAttr(name, value)
	return Change{Kind: ChangeSetAttr, Hierarchy: el.Hierarchy().Name(), Tag: el.Name(), Detail: name + "=" + value}, nil
}

// SetAttr sets an attribute, validating enumerated/fixed values against
// the DTD when the session has one for the element's hierarchy.
func (s *Session) SetAttr(el *goddag.Element, name, value string) error {
	return s.edit(func() (Change, error) { return s.applySetAttr(el, name, value) })
}

// applyRemoveAttr is the shared core of RemoveAttr and Tx.RemoveAttr.
func (s *Session) applyRemoveAttr(el *goddag.Element, name string) (Change, error) {
	if el == nil {
		return Change{}, fmt.Errorf("editor: nil element")
	}
	if !el.RemoveAttr(name) {
		return Change{}, fmt.Errorf("editor: no attribute %q on %v", name, el)
	}
	return Change{Kind: ChangeRemoveAttr, Hierarchy: el.Hierarchy().Name(), Tag: el.Name(), Detail: name}, nil
}

// RemoveAttr deletes an attribute.
func (s *Session) RemoveAttr(el *goddag.Element, name string) error {
	return s.edit(func() (Change, error) { return s.applyRemoveAttr(el, name) })
}

// applyInsertText is the shared core of InsertText and Tx.InsertText.
func (s *Session) applyInsertText(pos int, text string) (Change, error) {
	return Change{Kind: ChangeInsertText, Span: document.NewSpan(pos, pos+len(text))}, s.doc.InsertText(pos, text)
}

// applyDeleteText is the shared core of DeleteText and Tx.DeleteText.
func (s *Session) applyDeleteText(span document.Span) (Change, error) {
	return Change{Kind: ChangeDeleteText, Span: span}, s.doc.DeleteText(span)
}

// InsertText inserts text at a byte offset, adjusting all markup.
func (s *Session) InsertText(pos int, text string) error {
	return s.edit(func() (Change, error) { return s.applyInsertText(pos, text) })
}

// DeleteText removes a span of text, adjusting all markup; elements whose
// content is entirely deleted remain as empty milestones.
func (s *Session) DeleteText(span document.Span) error {
	return s.edit(func() (Change, error) { return s.applyDeleteText(span) })
}

// Validate runs the schema over every hierarchy in the given mode.
func (s *Session) Validate(mode validate.Mode) []validate.Violation {
	return validate.Document(s.doc, s.schema, mode)
}

// Tx is an open editing transaction: a batch of markup and attribute
// operations applied to the live document as they are issued (each one
// prevalidated like a direct session edit) but committed — or vetoed —
// atomically. A committed transaction collapses to ONE undo entry and
// ONE change notification however many operations it batched; a failed
// operation poisons the transaction, and Commit (or Rollback) then
// restores the document to its pre-transaction state from the image
// Begin took.
//
// One transaction may be open per session at a time; direct session
// edits and history moves are rejected while it is open. Elements
// obtained before Begin remain valid inside the transaction (operations
// mutate the live document); after a Rollback — or an Undo of the
// committed transaction — the session's document is a new value
// restored from an image and previously held elements no longer belong
// to it.
type Tx struct {
	s    *Session
	pre  []byte // image of the pre-transaction state
	ops  []Change
	err  error
	done bool
}

// Begin opens a transaction. It fails if one is already open.
func (s *Session) Begin() (*Tx, error) {
	if s.tx != nil {
		return nil, fmt.Errorf("editor: a transaction is already open")
	}
	pre, err := s.Image()
	if err != nil {
		return nil, err
	}
	s.tx = &Tx{s: s, pre: pre}
	return s.tx, nil
}

// InTx reports whether the session has an open transaction.
func (s *Session) InTx() bool { return s.tx != nil }

// Err returns the operation error that poisoned the transaction, nil
// while it can still commit.
func (tx *Tx) Err() error { return tx.err }

// Ops returns the operations applied so far, one Change per successful
// operation.
func (tx *Tx) Ops() []Change { return tx.ops }

// apply runs one operation of the transaction: a closed or poisoned
// transaction rejects it, and a failure poisons the transaction.
func (tx *Tx) apply(op func() (Change, error)) error {
	if tx.done {
		return fmt.Errorf("editor: transaction already closed")
	}
	if tx.err != nil {
		return fmt.Errorf("editor: transaction aborted: %w", tx.err)
	}
	c, err := op()
	tx.s.image = nil
	if err != nil {
		tx.err = err
		return err
	}
	tx.ops = append(tx.ops, c)
	return nil
}

// InsertMarkup inserts an element within the transaction, prevalidated
// like Session.InsertMarkup. A failure poisons the transaction.
func (tx *Tx) InsertMarkup(hierarchy, tag string, span document.Span, attrs ...goddag.Attr) (el *goddag.Element, err error) {
	err = tx.apply(func() (Change, error) { return tx.s.applyInsertMarkup(&el, hierarchy, tag, span, attrs) })
	return el, err
}

// RemoveMarkup deletes an element within the transaction.
func (tx *Tx) RemoveMarkup(el *goddag.Element) error {
	return tx.apply(func() (Change, error) { return tx.s.applyRemoveMarkup(el) })
}

// SetAttr sets an attribute within the transaction, validated against
// the hierarchy's DTD like Session.SetAttr.
func (tx *Tx) SetAttr(el *goddag.Element, name, value string) error {
	return tx.apply(func() (Change, error) { return tx.s.applySetAttr(el, name, value) })
}

// RemoveAttr deletes an attribute within the transaction.
func (tx *Tx) RemoveAttr(el *goddag.Element, name string) error {
	return tx.apply(func() (Change, error) { return tx.s.applyRemoveAttr(el, name) })
}

// InsertText inserts text within the transaction.
func (tx *Tx) InsertText(pos int, text string) error {
	return tx.apply(func() (Change, error) { return tx.s.applyInsertText(pos, text) })
}

// DeleteText removes a span of text within the transaction.
func (tx *Tx) DeleteText(span document.Span) error {
	return tx.apply(func() (Change, error) { return tx.s.applyDeleteText(span) })
}

// close ends the transaction, failing if it already ended.
func (tx *Tx) close() error {
	if tx.done {
		return fmt.Errorf("editor: transaction already closed")
	}
	tx.done = true
	tx.s.tx = nil
	return nil
}

// Commit closes the transaction. A clean transaction with at least one
// operation pushes one undo entry (the pre-transaction image), clears
// the redo stack, and emits one ChangeTransaction notification. A
// poisoned transaction restores the pre-transaction state and returns
// the poisoning error. An empty transaction is a no-op.
func (tx *Tx) Commit() error {
	if err := tx.close(); err != nil {
		return err
	}
	s := tx.s
	if tx.err != nil {
		if err := s.restore(tx.pre); err != nil {
			return err
		}
		return fmt.Errorf("editor: transaction rolled back: %w", tx.err)
	}
	if len(tx.ops) == 0 {
		return nil
	}
	s.push(tx.pre)
	s.notify(Change{Kind: ChangeTransaction, Detail: fmt.Sprintf("%d ops", len(tx.ops))})
	return nil
}

// Rollback closes the transaction and restores the document to its
// pre-transaction state, whether or not any operation failed.
func (tx *Tx) Rollback() error {
	if err := tx.close(); err != nil {
		return err
	}
	return tx.s.restore(tx.pre)
}

// SelectWord returns the byte span of the whitespace-delimited word
// containing byte offset pos — the editor's double-click selection. An
// offset pointing into the middle of a multibyte rune selects the word
// containing that rune.
func (s *Session) SelectWord(pos int) (document.Span, error) {
	c := s.doc.Content()
	if pos < 0 || pos >= c.Len() {
		return document.Span{}, fmt.Errorf("editor: offset %d out of range [0,%d)", pos, c.Len())
	}
	text := c.String()
	for pos > 0 && !utf8.RuneStart(text[pos]) {
		pos--
	}
	isSpace := func(r rune) bool { return r == ' ' || r == '\t' || r == '\n' || r == '\r' }
	if r, _ := utf8.DecodeRuneInString(text[pos:]); isSpace(r) {
		return document.Span{}, fmt.Errorf("editor: offset %d is whitespace", pos)
	}
	lo := pos
	for lo > 0 {
		r, size := utf8.DecodeLastRuneInString(text[:lo])
		if isSpace(r) {
			break
		}
		lo -= size
	}
	hi := pos
	for hi < len(text) {
		r, size := utf8.DecodeRuneInString(text[hi:])
		if isSpace(r) {
			break
		}
		hi += size
	}
	return document.NewSpan(lo, hi), nil
}
