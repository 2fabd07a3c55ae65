// Package seed models the GenAx seeding accelerator (§V): per-segment
// k-mer index and position tables sized for on-chip SRAM, a 512-entry CAM
// per lane for hit-set intersection, and the RMEM/SMEM engine with the
// paper's four optimizations — SMEM filtering, binary extension, low-stride
// probing, and the exact-match fast path. The host, which has no SRAM,
// stores the presence bits of up to 8 consecutive segments k-mer-major
// (Tables.Rows), so a read loads each window's presence once for all of
// them (Seeder.SeedRows).
package seed

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"genax/internal/dna"
)

// Tables is the thin view a SegmentIndex reads through: the row table of
// its set group with the segment's rank prefix, the compressed start table,
// and the position table, as plain slices. The backing memory is either
// owned heap storage (the build) or a borrowed window of a memory-mapped
// GAXI file (indexio.OpenMapped) — the lookup paths are identical either
// way, which is what keeps SegmentedIndex.Hash and every seed result
// byte-identical across the in-memory, mapped, and sharded paths.
//
// This is the host layout, sized by the segment's content. The chip's dense
// 4(4^k+1)-byte index table is a model quantity only (IndexTableBytes,
// Table II); nothing on the host allocates it.
//
// Mapped views outlive nothing: the slices alias the mapping, so the file
// may be unmapped only after every lane that borrowed from the index has
// drained (see indexio.Mapped.Close).
type Tables struct {
	// Start holds one offset into Positions per present k-mer, in k-mer
	// order, plus a sentinel equal to len(Positions): the r-th present
	// k-mer occurs at Positions[Start[r]:Start[r+1]].
	Start []int32
	// Positions is every occurrence list concatenated in k-mer order.
	Positions []int32
	// Rows is the presence table of the segment's set group, k-mer-major:
	// k-mer km owns the Width bits at bit offset km·Width, and bit Col of
	// that row is set iff this segment holds km. Every segment of a set
	// group shares one Rows slice, so one load reads a k-mer's presence
	// in all of them (see Seeder.SeedRows); at Width 1 it is a plain
	// presence bitmap.
	Rows []uint64
	// Width is the row width in bits, which is the set group's segment
	// count (1, 2, 4 or 8), and Col the segment's column, 0 ≤ Col < Width
	// (see SetGroupOf).
	Width, Col int
	// Rank[b] is the number of k-mers below 64·b that the segment holds,
	// so the rank of a present k-mer km — its index into Start — is
	// Rank[km>>6] plus the set bits of column Col over the rows of km's
	// 64-k-mer block that lie below km.
	Rank []uint32
}

// SegmentIndex is the index of one genome segment: for every k-mer, the
// sorted list of positions where it occurs. The paper streams one such
// pair of tables (48 MB index + 18 MB positions for k=12) into on-chip
// SRAM per segment.
type SegmentIndex struct {
	// ID is the segment number; Offset its start in the global reference.
	ID     int
	Offset int
	// Ref is the segment's reference slice (including overlap margin).
	Ref dna.Seq

	codec *dna.KmerCodec
	// tab is the table view: owned heap slices for built indexes, borrowed
	// mapping windows for indexes opened in place.
	tab Tables
	// The row geometry of tab, derived once: lw = log2(Width), col =
	// Col, rowMask the low Width bits, colMask bit Col of every row of a
	// word.
	lw, col uint
	rowMask uint8
	colMask uint64
}

// SetGroupSize is the most segments one row table serves, so a row is at
// most one byte.
const SetGroupSize = 8

// SetGroupOf returns where segment id of an index of numSegs segments sits
// in the set-group layout: the group's first segment, id's column in it,
// and the group's width, which is both its segment count and its row width
// in bits. Segments are cut into groups of SetGroupSize from segment 0, and
// a short tail into groups of 4, 2 and 1 in that order (7 = 4+2+1), so
// every group's width is a power of two that it fills and the row tables
// hold exactly one bit per (segment, k-mer). It is the one place the
// layout is defined: the build, the cache writer and the cache reader all
// call it.
func SetGroupOf(id, numSegs int) (first, col, width int) {
	first, width = id&^(SetGroupSize-1), SetGroupSize
	for {
		for first+width > numSegs {
			width >>= 1
		}
		if id < first+width {
			return first, id - first, width
		}
		first += width
	}
}

// RowWords returns the row table length, in words, of a k-mer space of
// numKmers at row width w. It divides before it multiplies, so no k-mer
// space up to k = dna.MaxK overflows.
func RowWords(numKmers, w int) int { return numKmers>>6*w + (numKmers&63*w+63)>>6 }

// rankWords returns the rank prefix length: one word per 64-k-mer block.
func rankWords(numKmers int) int { return (numKmers + 63) / 64 }

// bindRows adopts t and derives its row geometry.
func (si *SegmentIndex) bindRows(t Tables) {
	si.tab = t
	si.lw = uint(bits.TrailingZeros(uint(t.Width)))
	si.col = uint(t.Col)
	si.rowMask = uint8(1<<t.Width - 1)
	si.colMask = ^uint64(0) / (1<<t.Width - 1) << uint(t.Col)
}

// BuildSegmentIndex indexes ref (one segment) with k-mer length k, as a
// set group of its own (row width 1). There is one build, buildSparse,
// then setRows, at every segment length and k.
func BuildSegmentIndex(ref dna.Seq, id, offset, k int) (*SegmentIndex, error) {
	if k < 1 {
		return nil, fmt.Errorf("seed: k-mer length %d must be positive", k)
	}
	codec, err := dna.NewKmerCodec(k)
	if err != nil {
		return nil, err
	}
	rows := make([]uint64, RowWords(codec.NumKmers(), 1))
	si, tails := buildSegment(ref, id, offset, codec, &buildScratch{})
	setRows([]*SegmentIndex{si}, rows, [][]uint16{tails}, 1)
	return si, nil
}

// buildScratch is one build worker's reusable memory: the window scan and
// the radix sort's first pass, which no table keeps. Reusing it from
// segment to segment keeps the build's garbage, and so its peak memory,
// down.
type buildScratch struct {
	kms   []dna.Kmer
	byLow []int32
}

// buildSegment indexes ref's sparse tables, and returns the tails its set
// group's row fill needs (buildSparse, setRows).
func buildSegment(ref dna.Seq, id, offset int, codec *dna.KmerCodec, sc *buildScratch) (*SegmentIndex, []uint16) {
	if n := len(ref) - codec.K() + 1; cap(sc.kms) < n {
		sc.kms = make([]dna.Kmer, 0, n)
	}
	sc.kms = codec.AppendScan(sc.kms[:0], ref)
	tab, tails := buildSparse(sc.kms, codec.K(), sc)
	return &SegmentIndex{ID: id, Offset: offset, Ref: ref, codec: codec, tab: tab}, tails
}

// buildSparse assembles the start, position and rank tables from the
// window scan (kms[p] is the k-mer at position p) with a stable two-pass
// LSD radix sort of the positions, k bits of the k-mer per pass, so
// nothing it allocates has 4^k entries except the rank prefix. Positions
// enter ascending and both passes are stable, so the result is grouped by
// k-mer and ascending within each group, and walking the groups in k-mer
// order yields the start table and the rank prefix. tails[r] is the r-th
// present k-mer's place in its rowChunk of the k-mer space.
func buildSparse(kms []dna.Kmer, k int, sc *buildScratch) (Tables, []uint16) {
	n := len(kms)
	mask := dna.Kmer(1)<<uint(k) - 1
	lo, hi := make([]int32, 1<<uint(k)), make([]int32, 1<<uint(k))
	for _, km := range kms {
		lo[km&mask]++
		hi[km>>uint(k)]++
	}
	var sumLo, sumHi int32
	for d := range lo {
		lo[d], sumLo = sumLo, sumLo+lo[d]
		hi[d], sumHi = sumHi, sumHi+hi[d]
	}
	if cap(sc.byLow) < n {
		sc.byLow = make([]int32, n)
	}
	byLow := sc.byLow[:n]
	for p, km := range kms {
		byLow[lo[km&mask]] = int32(p)
		lo[km&mask]++
	}
	positions := make([]int32, n)
	for _, p := range byLow {
		d := kms[p] >> uint(k)
		positions[hi[d]] = p
		hi[d]++
	}
	start := make([]int32, n+1)
	tails := make([]uint16, n)
	rank := make([]uint32, rankWords(1<<(2*uint(k))))
	r := 0 // present k-mers seen
	prev := dna.Kmer(0)
	for i, p := range positions {
		km := kms[p]
		if i > 0 && km == prev {
			continue
		}
		prev = km
		rank[km>>6]++ // a count per block, prefix-summed below
		start[r] = int32(i)
		tails[r] = uint16(km % rowChunk)
		r++
	}
	below := uint32(0)
	for b, c := range rank {
		rank[b], below = below, below+c
	}
	start[r] = int32(n)
	// Sized for one run per window, the table is kept as is unless most
	// windows repeat a k-mer.
	if start = start[:r+1]; 2*r < n {
		start = slices.Clone(start)
	}
	return Tables{Start: start, Positions: positions, Rank: rank}, tails[:r]
}

// setRows binds segment i of a built set group (a run of 1, 2, 4 or 8
// segments, SetGroupOf) to column i of rows and fills the table on up to
// workers goroutines (fillRows).
func setRows(group []*SegmentIndex, rows []uint64, tails [][]uint16, workers int) {
	for col, si := range group {
		t := si.tab
		t.Rows, t.Width, t.Col = rows, len(group), col
		si.bindRows(t)
	}
	numKmers := group[0].codec.NumKmers()
	parallel((numKmers+rowChunk-1)/rowChunk, workers, func(_, c int) {
		fillRows(group, tails, c*rowChunk, min((c+1)*rowChunk, numKmers))
	})
}

// rowChunk is how many k-mers of a row table fillRows writes as one unit:
// 64 KiB of rows at width 8, so every column's bits land while the chunk
// is in cache, and whole words, so chunks share none. A k-mer's place in
// its chunk fits a uint16.
const rowChunk = 1 << 16

// fillRows sets the row bits of k-mers [lo, hi) for every segment of a
// bound set group, where lo is a multiple of rowChunk and hi is lo+rowChunk
// or the end of the k-mer space. The segment's present k-mers in that
// range are its ranks Rank[lo>>6] up to Rank[hi>>6], ascending, and tails
// (buildSparse) holds each one's place in the range. Concurrent calls on
// disjoint ranges write disjoint words and need no atomics, and filling a
// group a chunk at a time, not a segment at a time, streams the row table
// through the cache once.
func fillRows(group []*SegmentIndex, tails [][]uint16, lo, hi int) {
	for i, si := range group {
		t := &si.tab
		end := len(tails[i])
		if hi < si.codec.NumKmers() {
			end = int(t.Rank[hi>>6])
		}
		for _, tail := range tails[i][t.Rank[lo>>6]:end] {
			bit := uint(lo|int(tail)) << si.lw
			t.Rows[bit>>6] |= 1 << (bit&63 + si.col)
		}
	}
}

// NewSegmentIndexFromTables binds a SegmentIndex directly over a table
// view — the zero-copy path the mapped GAXI loader uses: t's slices may
// alias a read-only file mapping and are adopted, never copied. The length
// invariants (a row width of 1, 2, 4 or 8 with the column inside it, row
// table and rank prefix sized for the k-mer space, positions matching the
// window count, a start table of at least the sentinel and at most one
// entry per window plus it) are always enforced; validate additionally
// runs the full structural scan (ValidateTables), which touches every
// table page and therefore defeats lazy residency — mapped callers leave
// it false and rely on the clamped lookup path plus the file's checksums
// instead.
func NewSegmentIndexFromTables(ref dna.Seq, id, offset, k int, t Tables, validate bool) (*SegmentIndex, error) {
	if k < 1 || k > dna.MaxK {
		return nil, fmt.Errorf("seed: k-mer length %d out of range [1,%d]", k, dna.MaxK)
	}
	codec, err := dna.NewKmerCodec(k)
	if err != nil {
		return nil, err
	}
	numKmers := codec.NumKmers()
	n := len(ref) - k + 1
	if n < 0 {
		n = 0
	}
	if t.Width < 1 || t.Width > SetGroupSize || t.Width&(t.Width-1) != 0 || t.Col < 0 || t.Col >= t.Width {
		return nil, fmt.Errorf("seed: column %d of a %d-bit row", t.Col, t.Width)
	}
	if len(t.Rows) != RowWords(numKmers, t.Width) {
		return nil, fmt.Errorf("seed: row table holds %d words, k=%d at width %d needs %d", len(t.Rows), k, t.Width, RowWords(numKmers, t.Width))
	}
	if len(t.Rank) != rankWords(numKmers) {
		return nil, fmt.Errorf("seed: rank prefix holds %d words, k=%d needs %d", len(t.Rank), k, rankWords(numKmers))
	}
	if len(t.Positions) != n {
		return nil, fmt.Errorf("seed: %d positions for a %d-base segment (want %d windows)", len(t.Positions), len(ref), n)
	}
	if len(t.Start) < 1 || len(t.Start) > n+1 {
		return nil, fmt.Errorf("seed: start table holds %d entries, %d windows allow 1 to %d", len(t.Start), n, n+1)
	}
	si := &SegmentIndex{ID: id, Offset: offset, Ref: ref, codec: codec}
	si.bindRows(t)
	if validate {
		if err := si.ValidateTables(); err != nil {
			return nil, err
		}
	}
	return si, nil
}

// ValidateTables runs the full structural scan over the table view: no
// row bit beyond the k-mer space, every rank word equal to the count of
// column bits before it, exactly one start entry per column bit, a start
// table that begins at zero, increases strictly and ends at the position
// count, and every occurrence list strictly ascending and in range. The
// scan touches every page of every table, so mapped indexes run it only on
// demand (indexio's Verify paths), not on open.
func (si *SegmentIndex) ValidateTables() error {
	t := &si.tab
	numKmers := si.codec.NumKmers()
	n := len(t.Positions)
	if tail := uint(numKmers*t.Width) & 63; tail != 0 && t.Rows[len(t.Rows)-1]>>tail != 0 {
		return fmt.Errorf("seed: row bits set beyond the %d k-mers of k=%d", numKmers, si.codec.K())
	}
	present := 0
	for b := range t.Rank {
		if int(t.Rank[b]) != present {
			return fmt.Errorf("seed: rank prefix of k-mer block %d is %d, want %d", b, t.Rank[b], present)
		}
		for _, word := range t.Rows[b<<si.lw : min((b+1)<<si.lw, len(t.Rows))] {
			present += bits.OnesCount64(word & si.colMask)
		}
	}
	if present != len(t.Start)-1 {
		return fmt.Errorf("seed: %d presence bits for %d start entries", present, len(t.Start)-1)
	}
	if t.Start[0] != 0 {
		return fmt.Errorf("seed: start table begins at %d, want 0", t.Start[0])
	}
	if int(t.Start[present]) != n {
		return fmt.Errorf("seed: start table ends at %d, position table holds %d", t.Start[present], n)
	}
	for r := 0; r < present; r++ {
		lo, hi := t.Start[r], t.Start[r+1]
		if lo < 0 || hi <= lo || int(hi) > n {
			return fmt.Errorf("seed: start table not strictly increasing at entry %d (%d..%d)", r, lo, hi)
		}
		for j := lo; j < hi; j++ {
			p := t.Positions[j]
			if p < 0 || int(p) >= n {
				return fmt.Errorf("seed: position %d of start entry %d outside [0,%d)", p, r, n)
			}
			if j > lo && t.Positions[j-1] >= p {
				return fmt.Errorf("seed: positions of start entry %d not strictly ascending", r)
			}
		}
	}
	return nil
}

// Tables returns the index's table view. The slices are the index's
// backing store — read-only like Lookup results, valid for the index's
// lifetime, possibly aliasing a file mapping.
//
//genax:borrowed
func (si *SegmentIndex) Tables() Tables { return si.tab }

// K returns the k-mer length.
func (si *SegmentIndex) K() int { return si.codec.K() }

// Lookup returns the sorted (strictly ascending) local positions of km.
// The seeding lanes do not probe through it; they read rows and resolve
// spans themselves (Seeder.SeedRows).
//
// BORROW CONTRACT: the returned slice aliases the index's shared position
// table, which every lane bound to this segment reads concurrently. It is
// a read-only view, valid for the index's lifetime; callers must never
// mutate, sort, or append through it.
//
//genax:borrowed
func (si *SegmentIndex) Lookup(km dna.Kmer) []int32 {
	if si.row(km)>>si.col&1 == 0 {
		return nil
	}
	return si.positions(si.spanOf(km))
}

// row returns km's row of the set group table: bit i set iff the group's
// segment i holds km.
//
//genax:hotpath
func (si *SegmentIndex) row(km dna.Kmer) uint8 {
	bit := uint(km) << si.lw
	return uint8(si.tab.Rows[bit>>6]>>(bit&63)) & si.rowMask
}

// colRank counts the k-mers of km's 64-k-mer block below km that the
// segment holds: the set bits of its column over the block's rows before
// row km. A block is Width words, so this is one popcount at Width 1 and
// up to eight at Width 8.
//
//genax:hotpath
func (si *SegmentIndex) colRank(km dna.Kmer) uint {
	bit := uint(km) << si.lw
	last := bit >> 6
	rows := si.tab.Rows
	n := uint(bits.OnesCount64(rows[last] & si.colMask & (1<<(bit&63) - 1)))
	for i := uint(km>>6) << si.lw; i < last; i++ {
		n += uint(bits.OnesCount64(rows[i] & si.colMask))
	}
	return n
}

// span is a present k-mer's occurrence list: [lo, hi) of Positions.
type span struct{ lo, hi int32 }

// spanOf is the one rank → span path: rank → two adjacent start entries.
// Lookup and the seeding lanes (Seeder.mark) both take it.
//
// Clamp, never panic: a mapped view skips the full structural scan (it
// would fault every page), so a corrupt rank word or start entry that
// slipped past the file checksums must degrade to an empty span ("no
// hits"), not a crash. Built and validated tables never take the clamp.
//
//genax:hotpath
func (si *SegmentIndex) spanOf(km dna.Kmer) span {
	t := &si.tab
	r := uint(t.Rank[km>>6]) + si.colRank(km)
	if r+1 < uint(len(t.Start)) {
		lo, hi := t.Start[r], t.Start[r+1]
		if lo >= 0 && hi >= lo && int(hi) <= len(t.Positions) {
			return span{lo, hi}
		}
	}
	return span{}
}

// positions borrows s's window of Positions, under Lookup's contract.
//
//genax:borrowed
//genax:hotpath
func (si *SegmentIndex) positions(s span) []int32 { return si.tab.Positions[s.lo:s.hi] }

// IndexTableBytes returns the modelled SRAM footprint of the index table
// (one 4-byte offset per k-mer), and PositionTableBytes that of the
// position list — the quantities Table II charges to on-chip SRAM.
func (si *SegmentIndex) IndexTableBytes() int { return 4 * (si.codec.NumKmers() + 1) }

// PositionTableBytes returns the position-table footprint.
func (si *SegmentIndex) PositionTableBytes() int { return 4 * len(si.tab.Positions) }

// SegmentedIndex is the whole-genome structure: the reference cut into
// fixed-size segments (512 for a human genome in §VI) with enough overlap
// that any read-length window lies wholly inside at least one segment.
// Samples are laid out in set groups (SetGroupOf): the segments of a group
// share one row table, and a group's first segment is its column 0.
type SegmentedIndex struct {
	RefLen  int
	SegLen  int
	Overlap int
	// K is the k-mer length every segment was indexed with.
	K       int
	Samples []*SegmentIndex
}

// segmentOffsets returns the start offset of every segment for a reference
// of refLen bases — the single source of the segmentation geometry shared
// by the serial and parallel builds.
func segmentOffsets(refLen, segLen int) []int {
	var offs []int
	for off := 0; off < refLen; off += segLen {
		offs = append(offs, off)
	}
	return offs
}

// BuildSegmentedIndex cuts ref into segments of segLen bases plus overlap
// and indexes each. overlap must cover the longest read plus the edit
// bound so no alignment is lost at a boundary. Segments are built in
// parallel on up to GOMAXPROCS workers; use BuildSegmentedIndexWith to pin
// the worker count. The result is identical for every worker count.
func BuildSegmentedIndex(ref dna.Seq, segLen, overlap, k int) (*SegmentedIndex, error) {
	if segLen <= 0 {
		return nil, fmt.Errorf("seed: segment length %d must be positive", segLen)
	}
	if k < 1 {
		return nil, fmt.Errorf("seed: k-mer length %d must be positive", k)
	}
	return BuildSegmentedIndexWith(ref, segLen, overlap, k, 0)
}

// BuildSegmentedIndexWith is BuildSegmentedIndex on a bounded worker pool
// (workers <= 0 means GOMAXPROCS). It builds one set group at a time, in
// two phases. First the group's segments build their sparse tables
// concurrently, as segments are independent, beside the allocation of the
// group's row table. Then the table is filled a k-mer chunk at a time,
// chunks concurrently (fillRows): the rows are written directly, with no
// per-segment bitmap built and transposed. Workers claim units off an atomic cursor and write
// into pre-assigned slots or disjoint words, so the resulting index is
// identical for every worker count.
func BuildSegmentedIndexWith(ref dna.Seq, segLen, overlap, k, workers int) (*SegmentedIndex, error) {
	if segLen <= 0 {
		return nil, fmt.Errorf("seed: segment length %d must be positive", segLen)
	}
	if overlap < 0 {
		return nil, fmt.Errorf("seed: negative overlap %d", overlap)
	}
	if k < 1 {
		return nil, fmt.Errorf("seed: k-mer length %d must be positive", k)
	}
	codec, err := dna.NewKmerCodec(k)
	if err != nil {
		return nil, err
	}
	offs := segmentOffsets(len(ref), segLen)
	sx := &SegmentedIndex{
		RefLen:  len(ref),
		SegLen:  segLen,
		Overlap: overlap,
		K:       k,
		Samples: make([]*SegmentIndex, len(offs)),
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	scratch := make([]buildScratch, workers)
	for first := 0; first < len(offs); {
		_, _, width := SetGroupOf(first, len(offs))
		group := sx.Samples[first : first+width]
		var rows []uint64
		tails := make([][]uint16, len(group))
		parallel(1+len(group), workers, func(w, u int) {
			if u == 0 {
				// The row table is the first unit: it is zeroed beside
				// the first segment's build, and it comes before the
				// segments' scratch, which is then recycled around it
				// rather than under it.
				rows = make([]uint64, RowWords(codec.NumKmers(), width))
				return
			}
			i := u - 1
			off := offs[first+i]
			end := min(off+segLen+overlap, len(ref))
			group[i], tails[i] = buildSegment(ref[off:end], first+i, off, codec, &scratch[w])
		})
		setRows(group, rows, tails, workers)
		first += width
	}
	return sx, nil
}

// parallel runs fn(w, 0) … fn(w, n-1) on up to workers goroutines, which
// claim indices off an atomic cursor; w is the claiming worker's number,
// below workers. With one worker it runs them in order on the caller's
// goroutine.
func parallel(n, workers int, fn func(w, i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}

// NumSegments returns the segment count.
func (sx *SegmentedIndex) NumSegments() int { return len(sx.Samples) }

// Hash digests the index's logical content — geometry plus every segment's
// sparse runs (each present k-mer with its occurrence count, then the
// position table) — so two builds (serial vs parallel, in-memory vs loaded
// from the on-disk cache) can be compared with one integer. The runs
// determine the tables uniquely whatever their layout, which is why the
// digest did not move when the start table was compressed.
func (sx *SegmentedIndex) Hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		_, _ = h.Write(buf[:])
	}
	put(uint64(sx.RefLen))
	put(uint64(sx.SegLen))
	put(uint64(sx.Overlap))
	put(uint64(sx.K))
	put(uint64(len(sx.Samples)))
	for _, si := range sx.Samples {
		put(uint64(si.ID))
		put(uint64(si.Offset))
		put(uint64(len(si.Ref)))
		put(uint64(si.K()))
		put(uint64(len(si.tab.Start) - 1))
		for w, word := range si.tab.Rows {
			for word &= si.colMask; word != 0; word &= word - 1 {
				km := dna.Kmer((uint(w)<<6 + uint(bits.TrailingZeros64(word))) >> si.lw)
				put(uint64(km))
				put(uint64(len(si.Lookup(km))))
			}
		}
		for _, p := range si.tab.Positions {
			put(uint64(uint32(p)))
		}
	}
	return h.Sum64()
}
