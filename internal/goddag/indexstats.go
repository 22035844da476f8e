package goddag

// IndexStats reports the sizes of a document's derived indexes — the
// cardinalities the xpath planner reads as selectivity estimates (name
// buckets pick the cheap side of an axis step; the ordinal range sizes
// dedup bitsets). Computing the stats warms the index snapshot as a side
// effect, so a served document reports live planner inputs.
type IndexStats struct {
	// Version is the mutation counter the indexes are stamped with;
	// cached query plans are valid while it is unchanged.
	Version uint64 `json:"version"`
	// Elements counts elements across all hierarchies (the span index's
	// candidate pool).
	Elements int `json:"elements"`
	// Leaves counts shared content leaves.
	Leaves int `json:"leaves"`
	// Hierarchies counts concurrent hierarchies.
	Hierarchies int `json:"hierarchies"`
	// Milestones counts empty elements, which the span index cannot serve
	// (empty spans intersect nothing) and the covered axis merges in
	// separately.
	Milestones int `json:"milestones"`
	// OrdinalRange is the dense document-order ordinal space (root +
	// elements + leaves) — the size a dedup bitset must cover.
	OrdinalRange int `json:"ordinalRange"`
	// NameBuckets maps each element name to its bucket size in the name
	// index: the per-step selectivity estimates.
	NameBuckets map[string]int `json:"nameBuckets"`
}

// IndexStats computes the document's derived-index statistics. Safe for
// concurrent use with other readers.
func (d *Document) IndexStats() IndexStats {
	ord := d.Ordinals()
	els := d.Elements()
	buckets := make(map[string]int, 8)
	for _, e := range els {
		buckets[e.Name()]++
	}
	return IndexStats{
		Version:      d.Version(),
		Elements:     len(els),
		Leaves:       d.NumLeaves(),
		Hierarchies:  len(d.Hierarchies()),
		Milestones:   len(ord.EmptyElements()),
		OrdinalRange: ord.Len(),
		NameBuckets:  buckets,
	}
}
