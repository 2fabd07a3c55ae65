// Package seed models the GenAx seeding accelerator (§V): per-segment
// k-mer index and position tables sized for on-chip SRAM, a 512-entry CAM
// per lane for hit-set intersection, and the RMEM/SMEM engine with the
// paper's four optimizations — SMEM filtering, binary extension, low-stride
// probing, and the exact-match fast path.
package seed

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"genax/internal/dna"
)

// Tables is the thin view a SegmentIndex reads through: the presence bitmap
// with its rank prefix, the compressed start table, and the position table,
// as plain slices. The backing memory is either owned heap storage (the
// builders, indexio.Read) or a borrowed window of a memory-mapped GAXI file
// (indexio.OpenMapped) — the lookup paths are identical either way, which
// is what keeps SegmentedIndex.Hash and every seed result byte-identical
// across the in-memory, mapped, and sharded paths.
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
	// Presence is a bitmap over the k-mer space: bit km is set iff the
	// k-mer occurs in the segment. The common absent-k-mer probe (a read
	// tested against a segment it does not belong to) resolves here and
	// goes no further.
	Presence []uint64
	// Rank[w] is the number of set bits in Presence[:w], so the rank of a
	// present k-mer km — its index into Start — is
	// Rank[km>>6] + popcount(Presence[km>>6] & (1<<(km&63) - 1)).
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
}

// sparseBuildFactor selects the build strategy: when the windows of a
// segment fill less than 1/sparseBuildFactor of the k-mer space, the index
// is assembled by radix-sorting window positions by k-mer, which never
// allocates anything sized by 4^k except the bitmap and its rank prefix.
// Laptop-scale segments with k=12 are ~0.05% dense, so this is their
// default path; paper-scale segments stay on the dense counting build.
const sparseBuildFactor = 32

// BuildSegmentIndex indexes ref (one segment) with k-mer length k.
func BuildSegmentIndex(ref dna.Seq, id, offset, k int) (*SegmentIndex, error) {
	if k < 1 {
		return nil, fmt.Errorf("seed: k-mer length %d must be positive", k)
	}
	codec, err := dna.NewKmerCodec(k)
	if err != nil {
		return nil, err
	}
	si := &SegmentIndex{ID: id, Offset: offset, Ref: ref, codec: codec}
	numKmers := codec.NumKmers()
	n := len(ref) - k + 1
	if n < 0 {
		n = 0
	}
	kms := codec.AppendScan(make([]dna.Kmer, 0, n), ref)
	if n*sparseBuildFactor < numKmers {
		si.tab = buildSparse(kms, k)
	} else {
		si.tab = buildDense(kms, numKmers)
	}
	return si, nil
}

// presenceWords returns the bitmap length for a k-mer space.
func presenceWords(numKmers int) int { return (numKmers + 63) / 64 }

// markPresence returns the presence bitmap of the window scan kms, its
// rank prefix, and the number of distinct k-mers.
func markPresence(kms []dna.Kmer, numKmers int) (presence []uint64, rank []uint32, distinct int) {
	presence = make([]uint64, presenceWords(numKmers))
	for _, km := range kms {
		presence[km>>6] |= 1 << (km & 63)
	}
	rank = make([]uint32, len(presence))
	for w, word := range presence {
		rank[w] = uint32(distinct)
		distinct += bits.OnesCount64(word)
	}
	return presence, rank, distinct
}

// buildSparse assembles the tables from the window scan (kms[p] is the
// k-mer at position p) with a stable two-pass LSD radix sort of the
// positions, k bits of the k-mer per pass. Positions enter ascending and
// both passes are stable, so the result is grouped by k-mer and ascending
// within each group — the dense build's layout exactly.
func buildSparse(kms []dna.Kmer, k int) Tables {
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
	byLow := make([]int32, n)
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
	presence, rank, distinct := markPresence(kms, 1<<(2*uint(k)))
	start := make([]int32, distinct+1)
	r := 0
	for i, p := range positions {
		if i == 0 || kms[p] != kms[positions[i-1]] {
			start[r] = int32(i)
			r++
		}
	}
	start[distinct] = int32(n)
	return Tables{Start: start, Positions: positions, Presence: presence, Rank: rank}
}

// buildDense is the counting build for segments that populate a large
// fraction of the k-mer space: count occurrences, prefix-sum into offsets,
// scatter positions, then keep the offsets of the present k-mers. The
// counts array doubles as the fill cursors (the classic counting-sort
// trick): occurrences are tallied two slots ahead, the prefix sum turns
// slot km+1 into the km cursor, and after the scatter slot km holds the
// dense start[km]. That 4^k-sized array is a build-time intermediate only.
func buildDense(kms []dna.Kmer, numKmers int) Tables {
	c := make([]int32, numKmers+2)
	for _, km := range kms {
		c[km+2]++
	}
	for i := 2; i < len(c); i++ {
		c[i] += c[i-1]
	}
	positions := make([]int32, len(kms))
	for p, km := range kms {
		positions[c[km+1]] = int32(p)
		c[km+1]++
	}
	presence, rank, distinct := markPresence(kms, numKmers)
	start := make([]int32, 0, distinct+1)
	for km := 0; km < numKmers; km++ {
		if c[km+1] > c[km] {
			start = append(start, c[km])
		}
	}
	start = append(start, int32(len(kms)))
	return Tables{Start: start, Positions: positions, Presence: presence, Rank: rank}
}

// NewSegmentIndexFromTables binds a SegmentIndex directly over a table
// view — the zero-copy path the mapped GAXI loader uses: t's slices may
// alias a read-only file mapping and are adopted, never copied. The length
// invariants (bitmap and rank prefix sized for the k-mer space, positions
// matching the window count, a start table of at least the sentinel and at
// most one entry per window plus it) are always enforced; validate
// additionally runs the full structural scan (ValidateTables), which
// touches every table page and therefore defeats lazy residency — mapped
// callers leave it false and rely on the clamped lookup path plus the
// file's checksums instead.
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
	if len(t.Presence) != presenceWords(numKmers) {
		return nil, fmt.Errorf("seed: presence bitmap holds %d words, k=%d needs %d", len(t.Presence), k, presenceWords(numKmers))
	}
	if len(t.Rank) != len(t.Presence) {
		return nil, fmt.Errorf("seed: rank prefix holds %d words for %d presence words", len(t.Rank), len(t.Presence))
	}
	if len(t.Positions) != n {
		return nil, fmt.Errorf("seed: %d positions for a %d-base segment (want %d windows)", len(t.Positions), len(ref), n)
	}
	if len(t.Start) < 1 || len(t.Start) > n+1 {
		return nil, fmt.Errorf("seed: start table holds %d entries, %d windows allow 1 to %d", len(t.Start), n, n+1)
	}
	si := &SegmentIndex{ID: id, Offset: offset, Ref: ref, codec: codec, tab: t}
	if validate {
		if err := si.ValidateTables(); err != nil {
			return nil, err
		}
	}
	return si, nil
}

// ValidateTables runs the full structural scan over the table view: no
// presence bit beyond the k-mer space, every rank word equal to the
// popcount before it, exactly one start entry per presence bit, a start
// table that begins at zero, increases strictly and ends at the position
// count, and every occurrence list strictly ascending and in range. The
// scan touches every page of every table, so mapped indexes run it only on
// demand (indexio's Verify paths), not on open.
func (si *SegmentIndex) ValidateTables() error {
	t := &si.tab
	numKmers := si.codec.NumKmers()
	n := len(t.Positions)
	if tail := uint(numKmers) & 63; tail != 0 && t.Presence[len(t.Presence)-1]>>tail != 0 {
		return fmt.Errorf("seed: presence bits set beyond the %d k-mers of k=%d", numKmers, si.codec.K())
	}
	present := 0
	for w, word := range t.Presence {
		if int(t.Rank[w]) != present {
			return fmt.Errorf("seed: rank prefix of presence word %d is %d, want %d", w, t.Rank[w], present)
		}
		present += bits.OnesCount64(word)
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
//
// It is the presence test only, kept small enough to inline into
// Seeder.lookup (CI checks `can inline (*SegmentIndex).Lookup`): most
// probes are of absent k-mers and end here. A present k-mer tail-calls
// hits for rank → offsets → clamp.
//
// BORROW CONTRACT: the returned slice aliases the index's shared position
// table, which every lane bound to this segment reads concurrently. It is
// a read-only view, valid for the index's lifetime; callers must never
// mutate, sort, or append through it. Code that needs to reorder or
// normalize hits (the CAM intersection paths) must copy into lane-owned
// scratch first — see Seeder.intersect, which delta-normalizes into its
// inBuf before any strategy runs.
//
//genax:borrowed
//genax:hotpath
func (si *SegmentIndex) Lookup(km dna.Kmer) []int32 {
	if si.tab.Presence[km>>6]&(1<<(km&63)) == 0 {
		return nil
	}
	return si.hits(km)
}

// hits returns the occurrence list of a k-mer whose presence bit is set:
// rank → two adjacent start entries → a window of the position table. Out
// of line so that Lookup stays inlinable.
//
// Clamp, never panic: a mapped view skips the full structural scan (it
// would fault every page), so a corrupt rank word or start entry that
// slipped past the file checksums must degrade to "no hits", not a crash.
// Built and validated tables never take either clamp.
//
//go:noinline
//genax:borrowed
//genax:hotpath
func (si *SegmentIndex) hits(km dna.Kmer) []int32 {
	t := &si.tab
	below := t.Presence[km>>6] & (1<<(km&63) - 1)
	r := uint(t.Rank[km>>6]) + uint(bits.OnesCount64(below))
	if r+1 >= uint(len(t.Start)) {
		return nil
	}
	lo, hi := t.Start[r], t.Start[r+1]
	if lo < 0 || hi < lo || int(hi) > len(t.Positions) {
		return nil
	}
	return t.Positions[lo:hi]
}

// LookupAt encodes the k-mer of read at pos and returns its hits. ok is
// false when the window does not fit in the read. The returned slice is
// subject to the same borrow contract as Lookup: it aliases the shared
// position table and must not be mutated.
//
//genax:borrowed
func (si *SegmentIndex) LookupAt(read dna.Seq, pos int) (hits []int32, ok bool) {
	km, ok := si.codec.Encode(read, pos)
	if !ok {
		return nil, false
	}
	return si.Lookup(km), true
}

// IndexTableBytes returns the modelled SRAM footprint of the index table
// (one 4-byte offset per k-mer), and PositionTableBytes that of the
// position list — the quantities Table II charges to on-chip SRAM.
func (si *SegmentIndex) IndexTableBytes() int { return 4 * (si.codec.NumKmers() + 1) }

// PositionTableBytes returns the position-table footprint.
func (si *SegmentIndex) PositionTableBytes() int { return 4 * len(si.tab.Positions) }

// SegmentedIndex is the whole-genome structure: the reference cut into
// fixed-size segments (512 for a human genome in §VI) with enough overlap
// that any read-length window lies wholly inside at least one segment.
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

// BuildSegmentedIndexWith is BuildSegmentedIndex on a bounded worker pool:
// segments are independent, so up to workers of them build concurrently
// (workers <= 0 means GOMAXPROCS). Workers claim segment ids off an atomic
// cursor and write into pre-assigned slots, so assembly order — and the
// resulting index — is deterministic regardless of scheduling; on error the
// lowest-numbered failing segment's error is returned.
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
	if workers > len(offs) {
		workers = len(offs)
	}
	buildOne := func(id int) error {
		off := offs[id]
		end := off + segLen + overlap
		if end > len(ref) {
			end = len(ref)
		}
		si, err := BuildSegmentIndex(ref[off:end], id, off, k)
		if err != nil {
			return err
		}
		sx.Samples[id] = si
		return nil
	}
	if workers <= 1 {
		for id := range offs {
			if err := buildOne(id); err != nil {
				return nil, err
			}
		}
		return sx, nil
	}
	errs := make([]error, len(offs))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				id := int(cursor.Add(1)) - 1
				if id >= len(offs) {
					return
				}
				errs[id] = buildOne(id)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sx, nil
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
		for w, word := range si.tab.Presence {
			for ; word != 0; word &= word - 1 {
				km := dna.Kmer(w<<6 + bits.TrailingZeros64(word))
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
