package indexio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strings"

	"genax/internal/dna"
	"genax/internal/seed"
)

// GAXI v3: the file is the in-memory layout. Every table is stored exactly
// as the seed stage consumes it — fixed-width, little-endian, 4 KiB-aligned
// — so OpenMapped can hand the pipeline zero-copy views of the page cache
// and cold start is O(header), not O(index). This is the software analog of
// the chip streaming its segment tables over DDR4 instead of rebuilding
// them, and the OS demand-faults only the pages a shard group actually
// touches.
//
// Layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "GAXI"
//	4       4     format version (3)
//	8       4     k-mer length k
//	12      4     section count S (= 1 + 4·numSegments)
//	16      8     segment length
//	24      8     overlap
//	32      8     reference length (bases)
//	40      8     FNV-1a hash of the reference bases
//	48      8     number of segments
//	56      4     shard group size (segments per resident group, ≥ 1)
//	60      4     header length H (= 64 + 32·S + 4)
//	64      32·S  section table (see below)
//	H-4     4     header CRC-32 (IEEE) over bytes [0, H-4)
//	...           zero padding to the next 4 KiB boundary
//	              sections, each starting on a 4 KiB boundary,
//	              zero-padded to the next boundary
//	end-4   4     CRC-32 (IEEE) of everything before it
//
// Section table entry (32 bytes):
//
//	offset  size  field
//	0       4     kind (1 ref, 2 start, 3 positions, 4 presence, 5 rank)
//	4       4     segment id (0 for the ref section)
//	8       8     absolute file offset (4 KiB-aligned)
//	16      8     data length in bytes (before padding)
//	24      4     CRC-32 (IEEE) of the section data
//	28      4     reserved (0)
//
// Sections appear in file order: ref first, then (start, positions,
// presence, rank) per segment in ascending segment id. Section bodies, with
// n the segment's window count (see seed.Tables for the semantics):
//
//	ref        refLen bytes, one base per byte (dna.Base is a byte code)
//	start      d+1 int32, 0 ≤ d ≤ n — one offset per present k-mer, then
//	           the sentinel n
//	positions  n int32 — every occurrence list concatenated in k-mer order
//	presence   ⌈4^k/64⌉ uint64 — the presence bitmap
//	rank       ⌈4^k/64⌉ uint32 — set bits before each presence word
//
// The rank prefix is derivable from the bitmap; it is stored so that
// opening a file never scans one.
//
// Integrity ladder, cheapest first: (1) the header CRC and the section
// table's bounds, alignment, order and geometry-implied sizes — all
// OpenMapped checks, plus one load per segment (the start sentinel must
// equal the position count); (2) the whole-file trailing CRC — Probe and
// Read check it before trusting any length; (3) per-section CRCs and the
// full structural scan (seed.ValidateTables) — Mapped.Verify on demand,
// Read always. Below (3) a mapped index relies on the seed package's
// clamp-safe lookup, which answers "no hits" rather than panic on a rank
// word or start entry that is corrupt beyond what (1) can see.
const (
	sectionAlign    = 4096
	fixedHeaderLen  = 64
	sectionEntryLen = 32

	sectionRef       = 1
	sectionStart     = 2
	sectionPositions = 3
	sectionPresence  = 4
	sectionRank      = 5

	// sectionsPerSeg is how many sections each segment contributes, in
	// kind order sectionStart..sectionRank.
	sectionsPerSeg = 4
)

// section is one parsed section-table entry.
type section struct {
	kind, seg uint32
	off, len  uint64
	crc       uint32
}

// header is the parsed and bounds-checked file header.
type header struct {
	k, segLen, overlap, refLen int
	refHash                    uint64
	numSegs                    int
	groupSize                  int
	headerLen                  int
	sections                   []section
}

// segSections returns segment seg's sections in kind order.
func (h *header) segSections(seg int) []section {
	at := 1 + sectionsPerSeg*seg
	return h.sections[at : at+sectionsPerSeg]
}

// numShardGroups returns how many shard groups the header's partition
// yields.
func (h *header) numShardGroups() int {
	if h.numSegs == 0 {
		return 0
	}
	return (h.numSegs + h.groupSize - 1) / h.groupSize
}

// alignUp rounds n up to the next sectionAlign boundary.
func alignUp(n int) int { return (n + sectionAlign - 1) &^ (sectionAlign - 1) }

// wantSegments is the segment count the (refLen, segLen) geometry implies —
// what seed.BuildSegmentedIndex's walk yields, computed without walking so
// a hostile header cannot buy a 2^63-step loop.
func wantSegments(refLen, segLen int) int {
	n := refLen / segLen
	if refLen%segLen != 0 {
		n++
	}
	return n
}

// segSpan returns the [off, end) reference range of segment id.
func segSpan(id, segLen, overlap, refLen int) (off, end int) {
	off = id * segLen
	end = off + segLen + overlap
	if end > refLen || end < off {
		end = refLen
	}
	return off, end
}

// emitter streams a section body through fn in scratch-sized chunks; the
// same emitters drive both the CRC pass and the write pass so the checksums
// can never drift from the bytes on disk.
type emitter func(scratch []byte, fn func([]byte) error) error

func emitSeq(s dna.Seq) emitter {
	return func(scratch []byte, fn func([]byte) error) error {
		for i := 0; i < len(s); {
			n := min(len(scratch), len(s)-i)
			for j := 0; j < n; j++ {
				scratch[j] = byte(s[i+j])
			}
			if err := fn(scratch[:n]); err != nil {
				return err
			}
			i += n
		}
		return nil
	}
}

// emitWords streams a table of fixed-width words little-endian.
func emitWords[T word](v []T) emitter {
	size := wordSize[T]()
	return func(scratch []byte, fn func([]byte) error) error {
		per := len(scratch) / size
		for i := 0; i < len(v); {
			n := min(per, len(v)-i)
			for j, x := range v[i : i+n] {
				if size == 4 {
					binary.LittleEndian.PutUint32(scratch[4*j:], uint32(x))
				} else {
					binary.LittleEndian.PutUint64(scratch[8*j:], uint64(x))
				}
			}
			if err := fn(scratch[:size*n]); err != nil {
				return err
			}
			i += n
		}
		return nil
	}
}

// crcWriter tracks the running whole-file CRC alongside the writes.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	return c.w.Write(p)
}

// WriteShards serializes sx, built from ref, to w, partitioning the
// segments into shard groups of groupSize segments each (the last group may
// be short). groupSize <= 0 or >= the segment count puts every segment in
// one group — plain mmap with no streaming partition. The group size is a residency hint baked into the header, not
// a data layout change: the tables are identical regardless, which is why
// the index hash is invariant across shard settings.
func WriteShards(w io.Writer, sx *seed.SegmentedIndex, ref dna.Seq, groupSize int) error {
	if sx == nil {
		return fmt.Errorf("indexio: nil index")
	}
	if sx.RefLen != len(ref) {
		return fmt.Errorf("indexio: index covers %d bases, reference has %d", sx.RefLen, len(ref))
	}
	numSegs := sx.NumSegments()
	if groupSize <= 0 || groupSize > numSegs {
		groupSize = numSegs
	}
	if groupSize < 1 {
		groupSize = 1
	}

	type body struct {
		section
		emit emitter
	}
	sections := make([]body, 0, 1+sectionsPerSeg*numSegs)
	add := func(kind uint32, seg int, length int, e emitter) {
		sections = append(sections, body{
			section: section{kind: kind, seg: uint32(seg), len: uint64(length)},
			emit:    e,
		})
	}
	add(sectionRef, 0, len(ref), emitSeq(ref))
	for id, si := range sx.Samples {
		t := si.Tables()
		add(sectionStart, id, 4*len(t.Start), emitWords(t.Start))
		add(sectionPositions, id, 4*len(t.Positions), emitWords(t.Positions))
		add(sectionPresence, id, 8*len(t.Presence), emitWords(t.Presence))
		add(sectionRank, id, 4*len(t.Rank), emitWords(t.Rank))
	}

	headerLen := fixedHeaderLen + sectionEntryLen*len(sections) + 4
	at := alignUp(headerLen)
	for i := range sections {
		sections[i].off = uint64(at)
		at = alignUp(at + int(sections[i].len))
	}

	// Pass 1: per-section CRCs, streamed through the same emitters the
	// write pass uses.
	scratch := make([]byte, 64<<10)
	for i := range sections {
		crc := uint32(0)
		err := sections[i].emit(scratch, func(b []byte) error {
			crc = crc32.Update(crc, crc32.IEEETable, b)
			return nil
		})
		if err != nil {
			return err
		}
		sections[i].crc = crc
	}

	// Header, CRC'd and padded to the first section boundary.
	hdr := make([]byte, alignUp(headerLen))
	copy(hdr, Magic)
	binary.LittleEndian.PutUint32(hdr[4:], Version)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(sx.K))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(sections)))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(sx.SegLen))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(sx.Overlap))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(sx.RefLen))
	binary.LittleEndian.PutUint64(hdr[40:], RefHash(ref))
	binary.LittleEndian.PutUint64(hdr[48:], uint64(numSegs))
	binary.LittleEndian.PutUint32(hdr[56:], uint32(groupSize))
	binary.LittleEndian.PutUint32(hdr[60:], uint32(headerLen))
	for i, s := range sections {
		e := hdr[fixedHeaderLen+sectionEntryLen*i:]
		binary.LittleEndian.PutUint32(e[0:], s.kind)
		binary.LittleEndian.PutUint32(e[4:], s.seg)
		binary.LittleEndian.PutUint64(e[8:], s.off)
		binary.LittleEndian.PutUint64(e[16:], s.len)
		binary.LittleEndian.PutUint32(e[24:], s.crc)
	}
	binary.LittleEndian.PutUint32(hdr[headerLen-4:], crc32.ChecksumIEEE(hdr[:headerLen-4]))

	// Pass 2: write everything through the whole-file CRC.
	cw := &crcWriter{w: w}
	if _, err := cw.Write(hdr); err != nil {
		return err
	}
	zeros := make([]byte, sectionAlign)
	written := len(hdr)
	for i := range sections {
		err := sections[i].emit(scratch, func(b []byte) error {
			n, err := cw.Write(b)
			written += n
			return err
		})
		if err != nil {
			return err
		}
		for pad := alignUp(written) - written; pad > 0; {
			n := min(pad, len(zeros))
			if _, err := cw.Write(zeros[:n]); err != nil {
				return err
			}
			written += n
			pad -= n
		}
	}
	var footer [4]byte
	binary.LittleEndian.PutUint32(footer[:], cw.crc)
	_, err := w.Write(footer[:])
	return err
}

// checkStamp verifies the magic and version words that open every GAXI
// file. It runs before any other field is read, so a file of another
// format version is reported as exactly that.
func checkStamp(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("indexio: file too short (%d bytes) to be an index cache", len(data))
	}
	if string(data[:4]) != Magic {
		return fmt.Errorf("indexio: bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != Version {
		return fmt.Errorf("indexio: unsupported format version %d (current %d)", v, Version)
	}
	return nil
}

// parseHeader decodes and fully bounds-checks the header at the front of
// data against the file size (data may be the whole file or just its first
// header-length bytes). Every offset/length pair in the section table is
// verified to lie inside the file, be page-aligned, match the
// geometry-implied table sizes, and not overlap its neighbors — so a
// corrupt or hostile length field is rejected here, before any caller
// sizes an allocation or a view from it. Only the section-table slice
// (bounded by the file size) is allocated.
func parseHeader(data []byte, size int64) (*header, error) {
	if err := checkStamp(data); err != nil {
		return nil, err
	}
	if len(data) < fixedHeaderLen+4 || size < fixedHeaderLen+4+4 {
		return nil, fmt.Errorf("indexio: file too short (%d bytes) to be an index cache", size)
	}
	h := &header{
		k:       int(binary.LittleEndian.Uint32(data[8:])),
		segLen:  int(int64(binary.LittleEndian.Uint64(data[16:]))),
		overlap: int(int64(binary.LittleEndian.Uint64(data[24:]))),
		refLen:  int(int64(binary.LittleEndian.Uint64(data[32:]))),
		refHash: binary.LittleEndian.Uint64(data[40:]),
	}
	sectionCount := binary.LittleEndian.Uint32(data[12:])
	numSegs := binary.LittleEndian.Uint64(data[48:])
	h.groupSize = int(binary.LittleEndian.Uint32(data[56:]))
	h.headerLen = int(binary.LittleEndian.Uint32(data[60:]))
	if h.k < 1 || h.k > dna.MaxK {
		return nil, fmt.Errorf("indexio: k-mer length %d out of range [1,%d]", h.k, dna.MaxK)
	}
	if h.segLen < 1 || h.overlap < 0 || h.refLen < 0 {
		return nil, fmt.Errorf("indexio: invalid geometry (segLen %d, overlap %d, refLen %d)", h.segLen, h.overlap, h.refLen)
	}
	want := wantSegments(h.refLen, h.segLen)
	if numSegs != uint64(want) {
		return nil, fmt.Errorf("indexio: %d segments in file, geometry implies %d", numSegs, want)
	}
	if int64(want) > size/(sectionsPerSeg*sectionEntryLen) {
		return nil, fmt.Errorf("indexio: a %d-byte file cannot describe %d segments", size, want)
	}
	h.numSegs = want
	if h.groupSize < 1 || (h.numSegs > 0 && h.groupSize > h.numSegs) {
		return nil, fmt.Errorf("indexio: shard group size %d invalid for %d segments", h.groupSize, h.numSegs)
	}
	if int(sectionCount) != 1+sectionsPerSeg*h.numSegs {
		return nil, fmt.Errorf("indexio: %d sections in file, %d segments imply %d", sectionCount, h.numSegs, 1+sectionsPerSeg*h.numSegs)
	}
	if h.headerLen != fixedHeaderLen+sectionEntryLen*int(sectionCount)+4 {
		return nil, fmt.Errorf("indexio: header length %d inconsistent with %d sections", h.headerLen, sectionCount)
	}
	if int64(h.headerLen)+4 > size || h.headerLen > len(data) {
		return nil, fmt.Errorf("indexio: header (%d bytes) exceeds file (%d bytes)", h.headerLen, size)
	}
	stored := binary.LittleEndian.Uint32(data[h.headerLen-4:])
	if got := crc32.ChecksumIEEE(data[:h.headerLen-4]); got != stored {
		return nil, fmt.Errorf("indexio: header checksum mismatch (file %08x, computed %08x): cache is corrupt", stored, got)
	}

	presenceWords := (uint64(1)<<(2*uint(h.k)) + 63) / 64
	h.sections = make([]section, sectionCount)
	limit := uint64(size - 4) // sections end before the file CRC footer
	prevEnd := uint64(alignUp(h.headerLen))
	for i := range h.sections {
		e := data[fixedHeaderLen+sectionEntryLen*i:]
		s := section{
			kind: binary.LittleEndian.Uint32(e[0:]),
			seg:  binary.LittleEndian.Uint32(e[4:]),
			off:  binary.LittleEndian.Uint64(e[8:]),
			len:  binary.LittleEndian.Uint64(e[16:]),
			crc:  binary.LittleEndian.Uint32(e[24:]),
		}
		wantKind, wantSeg := uint32(sectionRef), uint32(0)
		if i > 0 {
			wantSeg = uint32((i - 1) / sectionsPerSeg)
			wantKind = uint32(sectionStart + (i-1)%sectionsPerSeg)
		}
		if s.kind != wantKind || s.seg != wantSeg {
			return nil, fmt.Errorf("indexio: section %d is (kind %d, seg %d), layout requires (kind %d, seg %d)", i, s.kind, s.seg, wantKind, wantSeg)
		}
		if s.off%sectionAlign != 0 {
			return nil, fmt.Errorf("indexio: section %d offset %d not %d-aligned", i, s.off, sectionAlign)
		}
		if s.off < prevEnd || s.len > limit || s.off > limit-s.len {
			return nil, fmt.Errorf("indexio: section %d [%d, %d+%d) outside file or overlapping", i, s.off, s.off, s.len)
		}
		segOff, segEnd := segSpan(int(s.seg), h.segLen, h.overlap, h.refLen)
		windows := uint64(max(0, segEnd-segOff-h.k+1))
		switch s.kind {
		case sectionRef:
			if s.len != uint64(h.refLen) {
				return nil, fmt.Errorf("indexio: ref section holds %d bytes, reference has %d", s.len, h.refLen)
			}
		case sectionStart:
			if s.len%4 != 0 || s.len < 4 || s.len > 4*(windows+1) {
				return nil, fmt.Errorf("indexio: segment %d start table holds %d bytes, %d windows allow 4 to %d", s.seg, s.len, windows, 4*(windows+1))
			}
		case sectionPositions:
			if s.len != 4*windows {
				return nil, fmt.Errorf("indexio: segment %d holds %d position bytes, %d windows need %d", s.seg, s.len, windows, 4*windows)
			}
		case sectionPresence:
			if s.len != 8*presenceWords {
				return nil, fmt.Errorf("indexio: segment %d presence bitmap holds %d bytes, k=%d needs %d", s.seg, s.len, h.k, 8*presenceWords)
			}
		case sectionRank:
			if s.len != 4*presenceWords {
				return nil, fmt.Errorf("indexio: segment %d rank prefix holds %d bytes, k=%d needs %d", s.seg, s.len, h.k, 4*presenceWords)
			}
		}
		prevEnd = s.off + s.len
		h.sections[i] = s
	}
	return h, nil
}

// readHeader parses the header of an open cache file from two bounded
// reads — the fixed part, then, if that carries the current stamp, as many
// bytes as it declares — never the tables behind it.
func readHeader(f io.ReaderAt, size int64) (*header, error) {
	buf := make([]byte, min(size, fixedHeaderLen))
	if _, err := f.ReadAt(buf, 0); err != nil {
		return nil, err
	}
	if len(buf) == fixedHeaderLen && checkStamp(buf) == nil {
		if n := int64(binary.LittleEndian.Uint32(buf[60:])); n > fixedHeaderLen && n <= size {
			buf = make([]byte, n)
			if _, err := f.ReadAt(buf, 0); err != nil {
				return nil, err
			}
		}
	}
	return parseHeader(buf, size)
}

// bind builds the segmented index over the tables stored in data, the
// whole file. In place, the tables are zero-copy views of data (decoded
// copies on a big-endian host) and only the one-load sentinel check links
// them — the open path must not fault table pages. Otherwise they are
// fresh heap copies, each run through the full structural scan.
func (h *header) bind(data []byte, ref dna.Seq, inPlace bool) (*seed.SegmentedIndex, error) {
	i32, u32, u64 := decodeWords[int32], decodeWords[uint32], decodeWords[uint64]
	if inPlace && hostLittleEndian {
		i32, u32, u64 = viewWords[int32], viewWords[uint32], viewWords[uint64]
	}
	sx := &seed.SegmentedIndex{
		RefLen:  h.refLen,
		SegLen:  h.segLen,
		Overlap: h.overlap,
		K:       h.k,
		Samples: make([]*seed.SegmentIndex, h.numSegs),
	}
	body := func(s section) []byte { return data[s.off : s.off+s.len] }
	for id := range sx.Samples {
		secs := h.segSections(id)
		tab := seed.Tables{
			Start:     i32(body(secs[0])),
			Positions: i32(body(secs[1])),
			Presence:  u64(body(secs[2])),
			Rank:      u32(body(secs[3])),
		}
		// The sentinel links the two tables; if it were wrong every lookup
		// in the tail would clamp. One load, one page fault, no scan.
		if last := tab.Start[len(tab.Start)-1]; int(last) != len(tab.Positions) {
			return nil, fmt.Errorf("indexio: segment %d start table ends at %d, position section holds %d", id, last, len(tab.Positions))
		}
		off, end := segSpan(id, h.segLen, h.overlap, h.refLen)
		si, err := seed.NewSegmentIndexFromTables(ref[off:end], id, off, h.k, tab, !inPlace)
		if err != nil {
			return nil, fmt.Errorf("indexio: segment %d: %w", id, err)
		}
		sx.Samples[id] = si
	}
	return sx, nil
}

// Probe inspects the cache file at path against the (reference, geometry)
// pair in hand and reports why it cannot be used: the empty string means
// the cache is present, intact, and matches, so a rebuild would be wasted
// work. It never builds the index and never holds more than a 64 KiB
// buffer and the header: the file is streamed through the whole-file CRC,
// then the header is parsed from a bounded read. It never errors: every
// failure mode, I/O included, folds into the reason string, because the
// only decision the caller makes is rebuild-or-not plus what to print.
func Probe(path string, ref dna.Seq, k, segLen, overlap int) string {
	if k < 1 || segLen < 1 {
		return fmt.Sprintf("invalid geometry request (k=%d, segment=%d)", k, segLen)
	}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return "no cache file"
	}
	if err != nil {
		return fmt.Sprintf("unreadable: %v", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Sprintf("unreadable: %v", err)
	}
	size := st.Size()
	if size < 12 {
		return fmt.Sprintf("file too short (%d bytes)", size)
	}
	buf := make([]byte, 64<<10)
	crc := uint32(0)
	for left := size - 4; left > 0; {
		n, err := f.Read(buf[:min(left, int64(len(buf)))])
		if n == 0 && err != nil {
			return fmt.Sprintf("unreadable: %v", err)
		}
		crc = crc32.Update(crc, crc32.IEEETable, buf[:n])
		left -= int64(n)
	}
	if _, err := io.ReadFull(f, buf[:4]); err != nil {
		return fmt.Sprintf("unreadable: %v", err)
	}
	if sum := binary.LittleEndian.Uint32(buf); crc != sum {
		return fmt.Sprintf("checksum mismatch (file %08x, computed %08x)", sum, crc)
	}
	h, err := readHeader(f, size)
	if err != nil {
		return strings.TrimPrefix(err.Error(), "indexio: ")
	}
	if h.k != k || h.segLen != segLen || h.overlap != overlap {
		return fmt.Sprintf("geometry mismatch (cache k=%d seg=%d overlap=%d, want k=%d seg=%d overlap=%d)", h.k, h.segLen, h.overlap, k, segLen, overlap)
	}
	if h.refLen != len(ref) {
		return fmt.Sprintf("reference length mismatch (cache %d bases, have %d)", h.refLen, len(ref))
	}
	if got := RefHash(ref); got != h.refHash {
		return fmt.Sprintf("reference hash mismatch (cache %016x, have %016x)", h.refHash, got)
	}
	return ""
}

// GroupSizeForShards converts a user-facing shard count (the -shards flag:
// "partition the cache into N groups") into the segments-per-group value
// the header stores. It is the single flag→header conversion, shared by
// every writer and staleness probe so they cannot disagree: shards <= 0 or
// an empty index collapses to one all-spanning group, and a shard count
// beyond the segment count clamps to one segment per group.
func GroupSizeForShards(numSegs, shards int) int {
	if shards <= 0 || numSegs == 0 {
		return numSegs
	}
	if shards > numSegs {
		shards = numSegs
	}
	return (numSegs + shards - 1) / shards
}
