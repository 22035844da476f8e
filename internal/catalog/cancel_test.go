package catalog

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestGetContextCancelledWaiterDoesNotPoisonLoad is the central
// singleflight-lifecycle invariant: a waiter that gives up on a cold
// load must only abandon its own wait. The load keeps running, the
// other waiters get the document, and nothing is negative-cached.
func TestGetContextCancelledWaiterDoesNotPoisonLoad(t *testing.T) {
	dir := writeCorpusDir(t, 80)
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	c.onLoad = func(string) {
		once.Do(func() { close(started) })
		<-release
	}

	// Waiter A starts the load, then gets cancelled mid-flight.
	ctxA, cancelA := context.WithCancel(context.Background())
	errA := make(chan error, 1)
	go func() {
		_, err := c.GetContext(ctxA, "ms")
		errA <- err
	}()
	<-started

	// Waiter B joins the same in-flight load with no deadline.
	errB := make(chan error, 1)
	go func() {
		doc, err := c.GetContext(context.Background(), "ms")
		if err == nil && doc == nil {
			err = errors.New("nil document without error")
		}
		errB <- err
	}()

	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: err = %v, want context.Canceled", err)
	}
	select {
	case err := <-errB:
		t.Fatalf("patient waiter returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}

	close(release)
	if err := <-errB; err != nil {
		t.Fatalf("patient waiter after shared load: %v", err)
	}

	// The load published normally: warm hit, exactly one load, no cached
	// error left behind by the cancelled waiter.
	if _, err := c.Get("ms"); err != nil {
		t.Fatalf("Get after cancelled waiter: %v", err)
	}
	ds, ok := c.Doc("ms")
	if !ok || ds.Loads != 1 || ds.Error != "" {
		t.Fatalf("doc stats after cancelled waiter: %+v", ds)
	}
}

// TestViewContextDeadlineBehindWriter: a read whose deadline expires
// while queued behind a long edit returns the deadline error promptly
// instead of waiting the edit out — and the edit itself is unaffected.
func TestViewContextDeadlineBehindWriter(t *testing.T) {
	dir := writeCorpusDir(t, 80)
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("plain"); err != nil {
		t.Fatal(err)
	}

	editing := make(chan struct{})
	release := make(chan struct{})
	updErr := make(chan error, 1)
	go func() {
		// post runs under the write lock: hold it until released.
		updErr <- c.UpdateBatch("plain", editOps, func(*core.Document) {
			close(editing)
			<-release
		})
	}()
	<-editing

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = c.ViewContext(ctx, "plain", func(*core.Document) error { return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ViewContext behind writer: err = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("ViewContext took %v to give up on a 10ms deadline", d)
	}

	close(release)
	if err := <-updErr; err != nil {
		t.Fatalf("UpdateBatch around cancelled reader: %v", err)
	}
	// The lock is healthy after the abandoned acquisition.
	if err := c.View("plain", func(*core.Document) error { return nil }); err != nil {
		t.Fatalf("View after writer released: %v", err)
	}
}

// TestWriteCancelledBeforeLockChangesNothing: a write (op batch or
// history move) that gives up while queued behind readers commits
// nothing, and its parked writer preference is withdrawn so new readers
// are not stranded.
func TestWriteCancelledBeforeLockChangesNothing(t *testing.T) {
	dir := writeCorpusDir(t, 80)
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateBatch("plain", editOps, nil); err != nil {
		t.Fatal(err)
	}

	reading := make(chan struct{})
	release := make(chan struct{})
	viewErr := make(chan error, 1)
	go func() {
		viewErr <- c.View("plain", func(*core.Document) error {
			close(reading)
			<-release
			return nil
		})
	}()
	<-reading

	ran := false
	post := func(*core.Document) { ran = true }
	for name, write := range map[string]func(context.Context) error{
		"batch": func(ctx context.Context) error { return c.UpdateBatchContext(ctx, "plain", editOps, post) },
		"undo":  func(ctx context.Context) error { return c.Undo(ctx, "plain", post) },
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		err = write(ctx)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s behind reader: err = %v, want DeadlineExceeded", name, err)
		}
		if ran {
			t.Fatalf("cancelled %s committed", name)
		}

		// Writer preference was withdrawn: a NEW reader gets in while
		// the first reader still holds the lock (no writer is waiting
		// anymore).
		done := make(chan error, 1)
		go func() {
			done <- c.View("plain", func(*core.Document) error { return nil })
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("reader after cancelled %s: %v", name, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("reader stranded behind a cancelled %s's preference", name)
		}
	}

	close(release)
	if err := <-viewErr; err != nil {
		t.Fatal(err)
	}
	ds, _ := c.Doc("plain")
	if ds.Edits != 1 || ds.Dirty {
		t.Fatalf("cancelled writes left a mark: %+v", ds)
	}
	// The write path still works: the undo the cancelled one gave up.
	if err := c.Undo(context.Background(), "plain", nil); err != nil {
		t.Fatalf("Undo after cancelled writes: %v", err)
	}
}
