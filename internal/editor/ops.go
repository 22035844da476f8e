package editor

import (
	"fmt"
	"sort"

	"repro/internal/document"
	"repro/internal/goddag"
)

// Op is one wire-format edit operation: the JSON shape POST
// /docs/{id}/edit accepts, and — verbatim — the op-batch payload the
// catalog's write-ahead log records for crash recovery and (per
// ROADMAP) future replica streaming. Op selects the shape:
// "insert-markup" (hierarchy, tag, start, end, attrs), "remove-markup"
// (hierarchy, index), "set-attr" (hierarchy, index, name, value),
// "remove-attr" (hierarchy, index, name). Start/end are byte offsets
// into the shared content; index addresses the hierarchy's elements in
// document order at the time the op applies (earlier ops in a batch
// shift later indices).
type Op struct {
	Op        string            `json:"op"`
	Hierarchy string            `json:"hierarchy"`
	Tag       string            `json:"tag,omitempty"`
	Start     int               `json:"start,omitempty"`
	End       int               `json:"end,omitempty"`
	Index     int               `json:"index,omitempty"`
	Name      string            `json:"name,omitempty"`
	Value     string            `json:"value,omitempty"`
	Attrs     map[string]string `json:"attrs,omitempty"`
}

// Batch is a serializable op batch: the /docs/{id}/edit request body
// and the payload of one WAL op record.
type Batch struct {
	Ops []Op `json:"ops"`
}

// BatchError reports the operation that vetoed an ApplyBatch: Index is
// the failing op's position in the batch, Err the veto (a
// validate.Violation, *goddag.ConflictError, or addressing error —
// inspect with errors.As).
type BatchError struct {
	Index int
	Op    string
	Err   error
}

// Error implements the error interface.
func (e *BatchError) Error() string { return fmt.Sprintf("op %d (%s): %v", e.Index, e.Op, e.Err) }

// Unwrap exposes the vetoing error.
func (e *BatchError) Unwrap() error { return e.Err }

// ApplyBatch applies a wire-format op batch as one transaction: every
// op is prevalidated against the mid-batch state, the first failure
// vetoes the whole batch (returned as a *BatchError, with the document
// rolled back), and a clean batch commits atomically — one undo entry,
// one change notification. Applying the same bytes to the same
// pre-state is deterministic, which is what makes the batch replayable
// from the write-ahead log.
func (s *Session) ApplyBatch(ops []Op) error {
	tx, err := s.Begin()
	if err != nil {
		return err
	}
	for i, op := range ops {
		if err := tx.ApplyOp(op); err != nil {
			if rerr := tx.Rollback(); rerr != nil {
				return rerr
			}
			return &BatchError{Index: i, Op: op.Op, Err: err}
		}
	}
	return tx.Commit()
}

// ApplyOp translates one wire op into the corresponding transaction
// operation. Attribute maps are applied in sorted name order, so a
// batch's effect is independent of JSON map iteration.
func (tx *Tx) ApplyOp(op Op) error {
	switch op.Op {
	case "insert-markup":
		if op.Hierarchy == "" || op.Tag == "" {
			return fmt.Errorf("insert-markup needs hierarchy and tag")
		}
		attrs := make([]goddag.Attr, 0, len(op.Attrs))
		for name, value := range op.Attrs {
			attrs = append(attrs, goddag.Attr{Name: name, Value: value})
		}
		sort.Slice(attrs, func(i, j int) bool { return attrs[i].Name < attrs[j].Name })
		_, err := tx.InsertMarkup(op.Hierarchy, op.Tag, document.NewSpan(op.Start, op.End), attrs...)
		return err
	case "remove-markup":
		el, err := tx.resolveElement(op)
		if err != nil {
			return err
		}
		return tx.RemoveMarkup(el)
	case "set-attr":
		el, err := tx.resolveElement(op)
		if err != nil {
			return err
		}
		if op.Name == "" {
			return fmt.Errorf("set-attr needs an attribute name")
		}
		return tx.SetAttr(el, op.Name, op.Value)
	case "remove-attr":
		el, err := tx.resolveElement(op)
		if err != nil {
			return err
		}
		if op.Name == "" {
			return fmt.Errorf("remove-attr needs an attribute name")
		}
		return tx.RemoveAttr(el, op.Name)
	default:
		return fmt.Errorf("unknown op %q (insert-markup, remove-markup, set-attr, remove-attr)", op.Op)
	}
}

// resolveElement addresses an element by hierarchy and document-order
// index against the current (mid-transaction) document state.
func (tx *Tx) resolveElement(op Op) (*goddag.Element, error) {
	if op.Hierarchy == "" {
		return nil, fmt.Errorf("%s needs a hierarchy", op.Op)
	}
	h := tx.s.doc.Hierarchy(op.Hierarchy)
	if h == nil {
		return nil, fmt.Errorf("unknown hierarchy %q", op.Hierarchy)
	}
	el, ok := h.ElementAt(op.Index)
	if !ok {
		return nil, fmt.Errorf("element index %d out of range [0,%d) in hierarchy %q", op.Index, h.Len(), op.Hierarchy)
	}
	return el, nil
}
