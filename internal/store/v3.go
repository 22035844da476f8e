package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"repro/internal/goddag"
)

// .gdag format v3: a section-table layout designed for
// open-without-decode. The file is a 16-byte header ("GDAG", version 3,
// little-endian section count), a directory of fixed 24-byte section
// entries (id, byte length, absolute offset, CRC-32C), a CRC-32C over
// header+directory, and then the 8-byte-aligned section payloads. The
// payloads are the document's columnar image (goddag.Columns) — content
// bytes, fixed-stride element columns, string table, and the serialized
// derived indexes — so a mapped reader validates the header, aliases
// the arrays in place, and never parses. Every multi-byte integer in a
// v3 file is little-endian and fixed-width, unlike v2's varint stream.
const (
	v3Version = 3

	v3HeaderLen = 16 // magic(4) + version(1) + pad(3) + nsec(4) + pad(4)
	v3EntryLen  = 24 // id(4) + len(4) + off(8) + crc(4) + pad(4)

	secMeta     = 1  // u32s: contentLen, rootTagID, nhier, nelems, nattrs, nleaves, nstrings, then {nameID,count} per hierarchy
	secContent  = 2  // raw content bytes
	secStrBlob  = 3  // concatenated string bytes
	secStrOff   = 4  // u32 × (nstrings+1): prefix offsets into StrBlob
	secTag      = 5  // u32 × nelems: tag string id, arena order
	secStart    = 6  // u32 × nelems: span start
	secEnd      = 7  // u32 × nelems: span end
	secParent   = 8  // i32 × nelems: parent arena index, -1 for top-level
	secPreEnd   = 9  // u32 × nelems: hierarchy-local pre-order subtree end
	secOrd      = 10 // u32 × nelems: document-order ordinal
	secAttrOff  = 11 // u32 × (nelems+1): prefix offsets into AttrName/AttrVal
	secAttrName = 12 // u32 × nattrs: attribute name string id
	secAttrVal  = 13 // u32 × nattrs: attribute value string id
	secCuts     = 14 // u32 × nleaves: partition leaf starts
	secLeafOrd  = 15 // i32 × nleaves: leaf ordinal
	secByOrd    = 16 // i32 × (1+nelems+nleaves): ordinal -> node
	secOrder    = 17 // u32 × nelems: document-order position -> arena index
	secSpanMax  = 18 // i32 × 4·nelems: span-index segment tree
	secBuckets  = 19 // u32 nbuckets, then {tagID,count} pairs, then concatenated positions

	secMax        = secBuckets
	v3MaxSections = 64
)

// EncodeV3 writes the document in the v3 section-table format. The
// output is deterministic for a given document. Documents whose content
// or counts exceed the u32 coordinate space are rejected (v2's varint
// form has the same practical bound via maxString).
func EncodeV3(w io.Writer, doc *goddag.Document) error {
	data, err := MarshalV3(doc)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("store: encode v3: %w", err)
	}
	return nil
}

// MarshalV3 returns the v3 image of doc: the bytes EncodeV3 writes,
// which OpenMappedBytes opens back into an identical document. The
// image is built in one buffer, sized up front from the section
// directory.
func MarshalV3(doc *goddag.Document) ([]byte, error) {
	if doc.Content().Len() > math.MaxInt32 {
		return nil, fmt.Errorf("store: encode v3: content too large (%d bytes)", doc.Content().Len())
	}
	cols := doc.ExportColumns()
	if len(cols.Tag) > math.MaxInt32/4 {
		return nil, fmt.Errorf("store: encode v3: too many elements (%d)", len(cols.Tag))
	}

	// String table offsets; the blob is the strings themselves.
	strOff := make([]uint32, 0, len(cols.Strings)+1)
	blobLen := 0
	for _, s := range cols.Strings {
		strOff = append(strOff, uint32(blobLen))
		blobLen += len(s)
	}
	strOff = append(strOff, uint32(blobLen))

	// ExportColumns interns the root tag and hierarchy names first.
	meta := make([]uint32, 0, 7+2*len(cols.Hiers))
	meta = append(meta,
		uint32(doc.Content().Len()),
		uint32(max(slices.Index(cols.Strings, doc.RootTag()), 0)),
		uint32(len(cols.Hiers)),
		uint32(len(cols.Tag)),
		uint32(len(cols.AttrName)),
		uint32(len(cols.Cuts)),
		uint32(len(cols.Strings)),
	)
	for _, hc := range cols.Hiers {
		id := slices.Index(cols.Strings, hc.Name)
		if id < 0 {
			return nil, fmt.Errorf("store: encode v3: hierarchy name %q not interned", hc.Name)
		}
		meta = append(meta, uint32(id), uint32(hc.N))
	}

	buckets := []uint32{uint32(len(cols.Buckets))}
	for _, b := range cols.Buckets {
		buckets = append(buckets, b.Tag, uint32(len(b.Pos)))
	}
	for _, b := range cols.Buckets {
		buckets = append(buckets, b.Pos...)
	}

	sections := [...]v3Section{
		{id: secMeta, u32: meta},
		{id: secContent, strs: []string{doc.Content().String()}},
		{id: secStrBlob, strs: cols.Strings},
		{id: secStrOff, u32: strOff},
		{id: secTag, u32: cols.Tag},
		{id: secStart, u32: cols.Start},
		{id: secEnd, u32: cols.End},
		{id: secParent, i32: cols.Parent},
		{id: secPreEnd, u32: cols.PreEnd},
		{id: secOrd, u32: cols.Ord},
		{id: secAttrOff, u32: cols.AttrOff},
		{id: secAttrName, u32: cols.AttrName},
		{id: secAttrVal, u32: cols.AttrVal},
		{id: secCuts, u32: cols.Cuts},
		{id: secLeafOrd, i32: cols.LeafOrd},
		{id: secByOrd, i32: cols.ByOrd},
		{id: secOrder, u32: cols.Order},
		{id: secSpanMax, i32: cols.SpanMax},
		{id: secBuckets, u32: buckets},
	}

	// The directory fixes every offset, so the image is allocated once
	// and each section is written and checksummed in place. Payloads
	// start 8-aligned after the header CRC; the last one is not padded.
	dirEnd := v3HeaderLen + len(sections)*v3EntryLen
	off := align8(dirEnd + 4)
	size := off
	for i := range sections {
		sections[i].off = off
		size = off + sections[i].size()
		off = align8(size)
	}
	img := make([]byte, size)
	copy(img, magic)
	img[4] = v3Version
	binary.LittleEndian.PutUint32(img[8:], uint32(len(sections)))
	for i := range sections {
		s := &sections[i]
		payload := img[s.off : s.off+s.size()]
		s.put(payload)
		e := img[v3HeaderLen+i*v3EntryLen:]
		binary.LittleEndian.PutUint32(e, s.id)
		binary.LittleEndian.PutUint32(e[4:], uint32(len(payload)))
		binary.LittleEndian.PutUint64(e[8:], uint64(s.off))
		binary.LittleEndian.PutUint32(e[16:], crc32.Checksum(payload, crcTable))
	}
	binary.LittleEndian.PutUint32(img[dirEnd:], crc32.Checksum(img[:dirEnd], crcTable))
	return img, nil
}

// v3Section is one section of an image being encoded: a byte payload
// (the concatenation of strs) or a fixed-width little-endian column.
type v3Section struct {
	id   uint32
	strs []string
	u32  []uint32
	i32  []int32
	off  int // absolute payload offset, set from the directory pass
}

// size is the section's payload length in bytes.
func (s *v3Section) size() int {
	n := 4 * (len(s.u32) + len(s.i32))
	for _, str := range s.strs {
		n += len(str)
	}
	return n
}

// put writes the payload into dst, which is exactly size() bytes.
func (s *v3Section) put(dst []byte) {
	for _, str := range s.strs {
		dst = dst[copy(dst, str):]
	}
	for i, v := range s.u32 {
		binary.LittleEndian.PutUint32(dst[4*i:], v)
	}
	for i, v := range s.i32 {
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(v))
	}
}

// align8 rounds up to the next multiple of 8.
func align8(n int) int { return (n + 7) &^ 7 }
