package goddag

import (
	"testing"

	"repro/internal/document"
)

func buildWarmDoc(t *testing.T) *Document {
	t.Helper()
	d := New("r", "swa hwaet swa he us saegde")
	phys := d.AddHierarchy("physical")
	words := d.AddHierarchy("words")
	if _, err := d.InsertElement(phys, "line", nil, document.NewSpan(0, 12)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertElement(words, "w", []Attr{{Name: "n", Value: "1"}}, document.NewSpan(0, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertElement(words, "w", nil, document.NewSpan(4, 9)); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestWarmBuildsAllIndexes(t *testing.T) {
	d := buildWarmDoc(t)
	d.Warm()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.idxVer != d.version {
		t.Error("index snapshot not warm")
	}
	if d.elemCache == nil {
		t.Error("element cache not warm")
	}
	if d.spanIdx == nil {
		t.Error("span index not warm")
	}
	if d.ordIdx == nil {
		t.Error("ordinals not warm")
	}
	if d.nameIdx == nil {
		t.Error("name index not warm")
	}
}

func TestWarmInvalidatedByMutation(t *testing.T) {
	// With incremental repair (the default), an element insertion keeps
	// the warm indexes live and already reflecting the new element.
	d := buildWarmDoc(t)
	d.Warm()
	if _, err := d.InsertElement(d.Hierarchy("words"), "w", nil, document.NewSpan(10, 12)); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	live := d.idxVer == d.version
	d.mu.Unlock()
	if !live {
		t.Fatal("element insertion did not repair warm indexes in place")
	}
	if got := len(d.ElementsNamed("w")); got != 3 {
		t.Fatalf("ElementsNamed(w) after repaired insert = %d, want 3", got)
	}

	// With repair disabled, the same mutation invalidates and the next
	// Warm rebuilds from scratch.
	d2 := buildWarmDoc(t)
	d2.SetIncrementalRepair(false)
	d2.Warm()
	if _, err := d2.InsertElement(d2.Hierarchy("words"), "w", nil, document.NewSpan(10, 12)); err != nil {
		t.Fatal(err)
	}
	d2.mu.Lock()
	stale := d2.idxVer != d2.version
	d2.mu.Unlock()
	if !stale {
		t.Fatal("mutation did not invalidate warm indexes with repair disabled")
	}
	d2.Warm() // re-warm must observe the new element
	if got := len(d2.ElementsNamed("w")); got != 3 {
		t.Fatalf("ElementsNamed(w) after re-warm = %d, want 3", got)
	}

	// A text edit falls back to invalidation even with repair enabled.
	if err := d.InsertText(0, "x "); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	stale = d.idxVer != d.version
	d.mu.Unlock()
	if !stale {
		t.Fatal("text edit did not invalidate warm indexes")
	}
}

func TestFootprintScales(t *testing.T) {
	d := buildWarmDoc(t)
	d.Warm()
	f := d.Footprint()
	if f < int64(d.Content().Len()) {
		t.Fatalf("footprint %d smaller than content %d", f, d.Content().Len())
	}
	// Adding elements must grow the estimate.
	if _, err := d.InsertElement(d.Hierarchy("words"), "w", []Attr{{Name: "x", Value: "y"}}, document.NewSpan(10, 12)); err != nil {
		t.Fatal(err)
	}
	if f2 := d.Footprint(); f2 <= f {
		t.Fatalf("footprint did not grow: %d -> %d", f, f2)
	}
}
