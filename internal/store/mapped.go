package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/faultfs"
	"repro/internal/goddag"
)

// ErrV2 marks a file in the v2 varint format: the mapped open path
// cannot serve it and the caller should fall back to Decode. The file
// migrates to v3 on its next save.
var ErrV2 = errors.New("store: v2 format, decode required")

// mappedBytes tracks the total bytes currently mapped by OpenMappedFile.
// It falls when a handle is closed, or when the finalizer on its
// faultfs.Mapping runs: after the garbage collector has found the
// handle and its document unreachable.
var mappedBytes atomic.Int64

// MappedBytes reports the total bytes currently mapped by the store.
func MappedBytes() int64 { return mappedBytes.Load() }

// Mapped is an open v3 file: the raw bytes (usually a read-only file
// mapping) plus the validated section directory. Opening validates only
// the header, directory bounds, and the header checksum — microseconds,
// no decode. Document() is the one point where an image can fail: it
// runs every section checksum and the structural checks of the columns,
// and returns a lazily materializing document whose first structural
// access cannot fail.
type Mapped struct {
	data []byte
	m    *faultfs.Mapping // nil for byte-backed opens

	// The content section and the string blob as the document reads
	// them, set by Document(). For file opens both are slices of one
	// heap copy, so no string the document hands out aliases the
	// mapping; byte-backed opens view data.
	content, blob []byte

	secs    [secMax + 1]secEntry
	present [secMax + 1]bool

	docOnce sync.Once
	doc     *goddag.Document
	docErr  error

	// Parsed by Document() from the meta section.
	contentLen, nhier, nelems, nattrs, nleaves, nstrings int
	rootTagID                                            uint32
	hierIDs                                              []uint32
	hierCounts                                           []int
}

type secEntry struct {
	off, n int
	crc    uint32
}

// SectionSize reports a section's payload size in bytes (0 when
// absent); ids are the secXxx constants. Used by the catalog's
// section-size metrics.
func (m *Mapped) SectionSizes() []int {
	out := make([]int, 0, secMax)
	for id := 1; id <= secMax; id++ {
		if m.present[id] {
			out = append(out, m.secs[id].n)
		}
	}
	return out
}

// Size reports the total mapped (or buffered) file size.
func (m *Mapped) Size() int { return len(m.data) }

// OpenMappedFile maps path through fsys and validates the v3 header.
// The mapping stays alive while the returned handle or the document
// built from it is reachable. Only the document's ordinal tables alias
// it (Document copies the content and strings to the heap), and they
// are reachable only through the document. Close releases the mapping
// at once; otherwise a finalizer on the faultfs.Mapping does, once the
// garbage collector has collected the handle and its document. The
// finalizer cannot sit on the handle: the handle and its document point
// at each other, and Go never runs a finalizer inside a cycle.
func OpenMappedFile(fsys faultfs.FS, path string) (*Mapped, error) {
	mp, err := faultfs.Map(fsys, path)
	if err != nil {
		return nil, fmt.Errorf("store: open mapped %s: %w", path, err)
	}
	m, err := openMapped(mp.Data)
	if err != nil {
		mp.Close()
		return nil, err
	}
	m.m = mp
	mappedBytes.Add(int64(len(m.data)))
	runtime.SetFinalizer(mp, unmap)
	return m, nil
}

// OpenMappedBytes opens an in-memory v3 image (fuzzing, decode, editor
// restores). The document aliases data, which must not change.
func OpenMappedBytes(data []byte) (*Mapped, error) {
	return openMapped(data)
}

// OpenMappedDoc is the one-call open path: map, validate in full, and
// return the lazily materializing document. The handle is returned alongside
// for metrics and explicit lifetime control.
func OpenMappedDoc(fsys faultfs.FS, path string) (*goddag.Document, *Mapped, error) {
	m, err := OpenMappedFile(fsys, path)
	if err != nil {
		return nil, nil, err
	}
	doc, err := m.Document()
	if err != nil {
		m.Close()
		return nil, nil, err
	}
	return doc, m, nil
}

// unmap releases a file mapping and its share of mappedBytes.
func unmap(mp *faultfs.Mapping) {
	mappedBytes.Add(-int64(len(mp.Data)))
	mp.Close()
}

// Close unmaps the file immediately (idempotent). Any document
// previously returned by Document() must no longer be used: its
// ordinal tables alias the mapping. Strings it handed out stay valid.
func (m *Mapped) Close() error {
	if mp := m.m; mp != nil {
		m.m = nil
		runtime.SetFinalizer(mp, nil)
		unmap(mp)
	}
	return nil
}

// openMapped validates the header and section directory: magic,
// version, directory bounds, header CRC, and that every section lies
// 8-aligned, in ascending order, inside the file. All later section
// reads are bounds-safe after this.
func openMapped(data []byte) (*Mapped, error) {
	if len(data) < v3HeaderLen+4 {
		if len(data) >= 5 && string(data[:4]) == magic && data[4] == version {
			return nil, ErrV2
		}
		return nil, fmt.Errorf("store: mapped open: file too short (%d bytes)", len(data))
	}
	if string(data[:4]) != magic {
		return nil, fmt.Errorf("store: mapped open: bad magic %q", data[:4])
	}
	if data[4] == version {
		return nil, ErrV2
	}
	if data[4] != v3Version {
		return nil, fmt.Errorf("store: mapped open: unsupported version %d", data[4])
	}
	nsec := int(binary.LittleEndian.Uint32(data[8:]))
	if nsec <= 0 || nsec > v3MaxSections {
		return nil, fmt.Errorf("store: mapped open: implausible section count %d", nsec)
	}
	dirEnd := v3HeaderLen + nsec*v3EntryLen
	if dirEnd+4 > len(data) {
		return nil, fmt.Errorf("store: mapped open: directory truncated")
	}
	if got, want := crc32.Checksum(data[:dirEnd], crcTable), binary.LittleEndian.Uint32(data[dirEnd:]); got != want {
		return nil, fmt.Errorf("store: mapped open: header checksum mismatch")
	}
	m := &Mapped{data: data}
	prevEnd := uint64(align8(dirEnd + 4))
	for i := 0; i < nsec; i++ {
		e := data[v3HeaderLen+i*v3EntryLen:]
		id := binary.LittleEndian.Uint32(e)
		n := binary.LittleEndian.Uint32(e[4:])
		off := binary.LittleEndian.Uint64(e[8:])
		crc := binary.LittleEndian.Uint32(e[16:])
		if off%8 != 0 || off < prevEnd || off+uint64(n) < off || off+uint64(n) > uint64(len(data)) {
			return nil, fmt.Errorf("store: mapped open: section %d bounds [%d,+%d) invalid", id, off, n)
		}
		prevEnd = off + uint64(n)
		if id >= 1 && id <= secMax {
			if m.present[id] {
				return nil, fmt.Errorf("store: mapped open: duplicate section %d", id)
			}
			m.secs[id] = secEntry{off: int(off), n: int(n), crc: crc}
			m.present[id] = true
		}
		// Unknown ids are tolerated for forward compatibility.
	}
	for id := 1; id <= secMax; id++ {
		if !m.present[id] {
			return nil, fmt.Errorf("store: mapped open: missing section %d", id)
		}
	}
	return m, nil
}

// sec returns a section's payload; bounds were validated at open.
func (m *Mapped) sec(id int) []byte {
	e := m.secs[id]
	return m.data[e.off : e.off+e.n]
}

// payload returns a section's bytes as the document reads them: the
// content and string blob from Document()'s copy, the rest from the
// image.
func (m *Mapped) payload(id int) []byte {
	switch id {
	case secContent:
		return m.content
	case secStrBlob:
		return m.blob
	}
	return m.sec(id)
}

// checkCRC verifies one section's checksum against its directory entry.
func (m *Mapped) checkCRC(id int) error {
	if got := crc32.Checksum(m.payload(id), crcTable); got != m.secs[id].crc {
		return fmt.Errorf("store: section %d checksum mismatch", id)
	}
	return nil
}

// Document returns the lazily materializing document over the mapping.
// It validates the whole image: the meta section with O(1) length
// cross-checks for every column, every section checksum, the root and
// hierarchy names, and the structural checks of columns. A damaged
// image fails here and nowhere later. Repeated calls return the same
// document.
func (m *Mapped) Document() (*goddag.Document, error) {
	m.docOnce.Do(func() { m.doc, m.docErr = m.buildDoc() })
	return m.doc, m.docErr
}

func (m *Mapped) buildDoc() (*goddag.Document, error) {
	if err := m.checkCRC(secMeta); err != nil {
		return nil, err
	}
	meta := m.sec(secMeta)
	if len(meta) < 7*4 || len(meta)%4 != 0 {
		return nil, fmt.Errorf("store: meta section malformed (%d bytes)", len(meta))
	}
	u := func(i int) int { return int(binary.LittleEndian.Uint32(meta[4*i:])) }
	m.contentLen = u(0)
	m.rootTagID = binary.LittleEndian.Uint32(meta[4:8])
	m.nhier, m.nelems, m.nattrs, m.nleaves, m.nstrings = u(2), u(3), u(4), u(5), u(6)
	if len(meta) != 4*(7+2*m.nhier) {
		return nil, fmt.Errorf("store: meta section length %d inconsistent with %d hierarchies", len(meta), m.nhier)
	}
	const maxN = 1 << 30
	if m.contentLen >= maxN || m.nelems >= maxN/4 || m.nattrs >= maxN || m.nleaves >= maxN || m.nstrings >= maxN {
		return nil, fmt.Errorf("store: implausible meta counts")
	}
	sum := 0
	m.hierIDs = make([]uint32, m.nhier)
	m.hierCounts = make([]int, m.nhier)
	for i := 0; i < m.nhier; i++ {
		m.hierIDs[i] = binary.LittleEndian.Uint32(meta[4*(7+2*i):])
		m.hierCounts[i] = u(7 + 2*i + 1)
		if m.hierCounts[i] < 0 || m.hierCounts[i] > m.nelems {
			return nil, fmt.Errorf("store: hierarchy %d count out of range", i)
		}
		sum += m.hierCounts[i]
	}
	if sum != m.nelems {
		return nil, fmt.Errorf("store: hierarchy counts sum %d != %d elements", sum, m.nelems)
	}
	// O(1) length cross-checks: every later section read is in-bounds by
	// construction after these.
	for _, c := range []struct {
		id   int
		want int
	}{
		{secContent, m.contentLen},
		{secStrOff, 4 * (m.nstrings + 1)},
		{secTag, 4 * m.nelems}, {secStart, 4 * m.nelems}, {secEnd, 4 * m.nelems},
		{secParent, 4 * m.nelems}, {secPreEnd, 4 * m.nelems}, {secOrd, 4 * m.nelems},
		{secAttrOff, 4 * (m.nelems + 1)},
		{secAttrName, 4 * m.nattrs}, {secAttrVal, 4 * m.nattrs},
		{secCuts, 4 * m.nleaves}, {secLeafOrd, 4 * m.nleaves},
		{secByOrd, 4 * (1 + m.nelems + m.nleaves)},
		{secOrder, 4 * m.nelems},
		{secSpanMax, 4 * 4 * m.nelems},
	} {
		if m.secs[c.id].n != c.want {
			return nil, fmt.Errorf("store: section %d length %d, want %d", c.id, m.secs[c.id].n, c.want)
		}
	}
	if m.secs[secBuckets].n < 4 || m.secs[secBuckets].n%4 != 0 {
		return nil, fmt.Errorf("store: buckets section malformed")
	}
	m.content, m.blob = m.sec(secContent), m.sec(secStrBlob)
	var copied int64
	if m.m != nil {
		// One heap copy of the content and the string blob per open.
		// Every string the document hands out slices it, so none reads
		// the mapping after the document is gone.
		nc := len(m.content)
		buf := make([]byte, nc+len(m.blob))
		copy(buf[copy(buf, m.content):], m.blob)
		m.content, m.blob = buf[:nc:nc], buf[nc:]
		copied = int64(len(buf))
	}
	for id := secContent; id <= secMax; id++ {
		if err := m.checkCRC(id); err != nil {
			return nil, err
		}
	}
	rootTag, err := m.str(m.rootTagID)
	if err != nil {
		return nil, err
	}
	names := make([]string, m.nhier)
	seen := make(map[string]bool, m.nhier)
	for i, id := range m.hierIDs {
		if names[i], err = m.str(id); err != nil {
			return nil, err
		}
		if names[i] == "" || seen[names[i]] {
			return nil, fmt.Errorf("store: empty or duplicate hierarchy name %q", names[i])
		}
		seen[names[i]] = true
	}
	cols, err := m.columns(names)
	if err != nil {
		return nil, err
	}
	return goddag.FromView(&goddag.DocView{
		RootTag:   rootTag,
		Content:   bstr(m.content),
		HierNames: names,
		Columns:   cols,
		Keep:      m,
		TextBytes: copied,
	}), nil
}

// str resolves one string-table entry with individual bounds checks —
// used before columns validates the table as a whole (root and
// hierarchy names).
func (m *Mapped) str(id uint32) (string, error) {
	if int(id) >= m.nstrings {
		return "", fmt.Errorf("store: string id %d out of range [0,%d)", id, m.nstrings)
	}
	offs := m.sec(secStrOff)
	lo := binary.LittleEndian.Uint32(offs[4*id:])
	hi := binary.LittleEndian.Uint32(offs[4*id+4:])
	if lo > hi || hi > uint32(len(m.blob)) {
		return "", fmt.Errorf("store: string %d bounds [%d,%d) invalid", id, lo, hi)
	}
	return bstr(m.blob[lo:hi]), nil
}

// columns validates the element columns structurally (every index in
// range, orders and prefixes monotonic, ordinal tables mutually
// consistent) once their checksums have passed, and returns the
// columnar image over the hierarchies names, aliasing the mapping
// wherever layout permits. Of the aliased columns only the ordinal
// tables outlive materialization.
func (m *Mapped) columns(names []string) (*goddag.Columns, error) {
	n, nl, nattrs, nstr := m.nelems, m.nleaves, m.nattrs, m.nstrings

	strOff, _ := u32view(m.sec(secStrOff))
	blob := m.blob
	if strOff[0] != 0 || int(strOff[nstr]) != len(blob) {
		return nil, fmt.Errorf("store: string table does not tile its blob")
	}
	for i := 0; i < nstr; i++ {
		if strOff[i] > strOff[i+1] {
			return nil, fmt.Errorf("store: string offsets not monotonic at %d", i)
		}
	}
	strs := make([]string, nstr)
	for i := range strs {
		strs[i] = bstr(blob[strOff[i]:strOff[i+1]])
	}

	tag, _ := u32view(m.sec(secTag))
	start, _ := u32view(m.sec(secStart))
	end, _ := u32view(m.sec(secEnd))
	parent, _ := i32view(m.sec(secParent))
	preEnd, _ := u32view(m.sec(secPreEnd))
	ord, _ := u32view(m.sec(secOrd))
	attrOff, _ := u32view(m.sec(secAttrOff))
	attrName, _ := u32view(m.sec(secAttrName))
	attrVal, _ := u32view(m.sec(secAttrVal))
	cuts, _ := u32view(m.sec(secCuts))
	order, _ := u32view(m.sec(secOrder))
	spanMax, _ := i32view(m.sec(secSpanMax))
	leafOrd, leafAliased := i32view(m.sec(secLeafOrd))
	byOrd, byAliased := i32view(m.sec(secByOrd))

	nord := 1 + n + nl
	cl := uint32(m.contentLen)
	base := 0
	for _, cnt := range m.hierCounts {
		for i := 0; i < cnt; i++ {
			g := base + i
			if tag[g] >= uint32(nstr) {
				return nil, fmt.Errorf("store: element %d tag id out of range", g)
			}
			if start[g] > end[g] || end[g] > cl {
				return nil, fmt.Errorf("store: element %d span [%d,%d) out of range", g, start[g], end[g])
			}
			if pe := preEnd[g]; int(pe) > cnt || pe <= uint32(i) {
				return nil, fmt.Errorf("store: element %d pre-order end %d out of range", g, pe)
			}
			if p := parent[g]; p >= 0 {
				if int(p) < base || int(p) >= g {
					return nil, fmt.Errorf("store: element %d parent %d outside its hierarchy prefix", g, p)
				}
				if preEnd[g] > preEnd[p] || uint32(i) >= preEnd[p] {
					return nil, fmt.Errorf("store: element %d escapes parent %d subtree", g, p)
				}
			}
			if o := ord[g]; o == 0 || o >= uint32(nord) {
				return nil, fmt.Errorf("store: element %d ordinal %d out of range", g, o)
			}
		}
		base += cnt
	}
	if attrOff[0] != 0 || attrOff[n] != uint32(nattrs) {
		return nil, fmt.Errorf("store: attribute prefix does not cover the pool")
	}
	for g := 0; g < n; g++ {
		if attrOff[g] > attrOff[g+1] {
			return nil, fmt.Errorf("store: attribute prefix not monotonic at %d", g)
		}
	}
	for j := 0; j < nattrs; j++ {
		if attrName[j] >= uint32(nstr) || attrVal[j] >= uint32(nstr) {
			return nil, fmt.Errorf("store: attribute %d string id out of range", j)
		}
	}
	if m.contentLen > 0 && nl == 0 {
		return nil, fmt.Errorf("store: non-empty content with no leaves")
	}
	if m.contentLen == 0 && nl != 0 {
		return nil, fmt.Errorf("store: empty content with %d leaves", nl)
	}
	for j := 0; j < nl; j++ {
		if cuts[j] >= cl || (j == 0 && cuts[j] != 0) || (j > 0 && cuts[j] <= cuts[j-1]) {
			return nil, fmt.Errorf("store: leaf cut %d invalid", j)
		}
	}
	// Ordinal tables: byOrd, leafOrd, ord, and order must describe one
	// consistent numbering, so decode/encode round-trips are identity.
	if byOrd[0] != 0 {
		return nil, fmt.Errorf("store: ordinal 0 is not the root")
	}
	seen := make([]bool, n)
	for k := 0; k < n; k++ {
		g := order[k]
		if g >= uint32(n) || seen[g] {
			return nil, fmt.Errorf("store: document order is not a permutation at %d", k)
		}
		seen[g] = true
		if byOrd[ord[g]] != int32(k+1) {
			return nil, fmt.Errorf("store: ordinal tables disagree on element %d", g)
		}
	}
	for j := 0; j < nl; j++ {
		lo := leafOrd[j]
		if lo <= 0 || int(lo) >= nord || byOrd[lo] != int32(-(j+1)) {
			return nil, fmt.Errorf("store: ordinal tables disagree on leaf %d", j)
		}
	}

	bk := m.sec(secBuckets)
	bu, _ := u32view(bk)
	nb := int(bu[0])
	if nb < 0 || 1+2*nb > len(bu) {
		return nil, fmt.Errorf("store: bucket directory truncated")
	}
	total := 0
	for i := 0; i < nb; i++ {
		c := int(bu[2+2*i])
		if c < 0 || c > n-total {
			return nil, fmt.Errorf("store: bucket %d count invalid", i)
		}
		total += c
	}
	if total != n || 1+2*nb+total != len(bu) {
		return nil, fmt.Errorf("store: buckets cover %d of %d elements", total, n)
	}
	buckets := make([]goddag.Bucket, nb)
	pos := bu[1+2*nb:]
	off := 0
	for i := 0; i < nb; i++ {
		tid, c := bu[1+2*i], int(bu[2+2*i])
		if tid >= uint32(nstr) {
			return nil, fmt.Errorf("store: bucket %d tag id out of range", i)
		}
		ps := pos[off : off+c]
		for j, p := range ps {
			if p >= uint32(n) || (j > 0 && p <= ps[j-1]) {
				return nil, fmt.Errorf("store: bucket %d positions not ascending in range", i)
			}
		}
		buckets[i] = goddag.Bucket{Tag: tid, Pos: ps}
		off += c
	}

	hiers := make([]goddag.HierColumns, m.nhier)
	for i := range hiers {
		hiers[i] = goddag.HierColumns{Name: names[i], N: m.hierCounts[i]}
	}
	return &goddag.Columns{
		Strings: strs, Hiers: hiers,
		Tag: tag, Start: start, End: end, Parent: parent, PreEnd: preEnd, Ord: ord,
		AttrOff: attrOff, AttrName: attrName, AttrVal: attrVal,
		Cuts: cuts, LeafOrd: leafOrd, ByOrd: byOrd, Order: order,
		SpanMax: spanMax, Buckets: buckets,
		Aliased: leafAliased || byAliased,
	}, nil
}

// decodeV3Bytes fully decodes a v3 image into a (heap-buffer-backed)
// document, materialized and warm. Decode's v3 branch.
func decodeV3Bytes(data []byte) (*goddag.Document, error) {
	m, err := OpenMappedBytes(data)
	if err != nil {
		return nil, err
	}
	doc, err := m.Document()
	if err != nil {
		return nil, err
	}
	doc.Warm()
	return doc, nil
}

// Validate reports whether the image passed the full validation that
// Document runs: every section checksum plus the structural checks.
func (m *Mapped) Validate() error {
	_, err := m.Document()
	return err
}

// nativeLE reports whether the running architecture is little-endian —
// the condition (with 4-byte alignment) for aliasing the file's column
// arrays instead of copying them.
var nativeLE = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// bstr views a byte slice as a string without copying. Its callers pass
// only heap bytes the garbage collector tracks, never a file mapping:
// Document()'s copy for file opens, the caller's immutable image for
// OpenMappedBytes.
func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// u32view reinterprets little-endian bytes as a uint32 slice, aliasing
// when alignment and byte order allow and copying otherwise. The
// second result reports aliasing.
func u32view(b []byte) ([]uint32, bool) {
	nv := len(b) / 4
	if nv == 0 {
		return nil, false
	}
	if nativeLE && uintptr(unsafe.Pointer(unsafe.SliceData(b)))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(b))), nv), true
	}
	out := make([]uint32, nv)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out, false
}

// i32view is u32view for int32 columns.
func i32view(b []byte) ([]int32, bool) {
	nv := len(b) / 4
	if nv == 0 {
		return nil, false
	}
	if nativeLE && uintptr(unsafe.Pointer(unsafe.SliceData(b)))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(b))), nv), true
	}
	out := make([]int32, nv)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, false
}
