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
	"sort"
	"sync"
	"sync/atomic"

	"genax/internal/dna"
)

// Tables is the thin view a SegmentIndex reads through: the start table,
// the position table, and the presence bitmap as plain slices. The backing
// memory is either owned heap storage (the builders, the v1 cache loader)
// or a borrowed window of a memory-mapped GAXI v2 file (indexio.OpenMapped)
// — the lookup paths are identical either way, which is what keeps
// SegmentedIndex.Hash and every seed result byte-identical across the
// in-memory, mapped, and sharded paths.
//
// Mapped views outlive nothing: the slices alias the mapping, so the file
// may be unmapped only after every lane that borrowed from the index has
// drained (see indexio.Mapped.Close).
type Tables struct {
	// Start[km] .. Start[km+1] delimit positions of k-mer km.
	Start []int32
	// Positions is every occurrence list concatenated in k-mer order.
	Positions []int32
	// Presence is a sidecar bitmap: bit km is set iff the k-mer occurs in
	// the segment (Start[km] < Start[km+1]). At 2 bits per table entry it
	// is 32× smaller than the start table, so the common absent-k-mer probe
	// (a read tested against a segment it does not belong to) resolves in a
	// cache-resident structure instead of a miss on the 4(4^k+1)-byte start
	// table. It is derived data — the chip keeps the whole table in SRAM
	// and needs no such filter — and is excluded from the Table II SRAM
	// model.
	Presence []uint64
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
// is assembled by sorting (k-mer, position) pairs and run-filling the start
// table, skipping the O(4^k) serially-dependent prefix-sum chain of the
// dense counting build. Laptop-scale segments with k=12 are ~0.05% dense,
// so this is their default path; paper-scale segments stay on the dense
// counting build.
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
	si.tab.Presence = make([]uint64, presenceWords(numKmers))
	n := len(ref) - k + 1
	if n < 0 {
		n = 0
	}
	kms := codec.AppendScan(make([]dna.Kmer, 0, n), ref)
	if n*sparseBuildFactor < numKmers {
		si.buildSparse(kms, numKmers)
	} else {
		si.buildDense(kms, numKmers)
	}
	return si, nil
}

// presenceWords returns the bitmap length for a k-mer space.
func presenceWords(numKmers int) int { return (numKmers + 63) / 64 }

// markPresent sets km's presence bit.
func (si *SegmentIndex) markPresent(km dna.Kmer) {
	si.tab.Presence[km>>6] |= 1 << (km & 63)
}

// kmerAt pairs one window's k-mer with its position for the sparse build.
type kmerAt struct {
	km  dna.Kmer
	pos int32
}

// buildSparse assembles the tables from the window scan by sorting
// (k-mer, position) pairs. Sorting by (km, pos) reproduces the dense
// build's layout exactly: positions grouped by k-mer, ascending within each
// group. The start table is then run-filled — absent k-mers share their
// successor's start value — which streams sequentially through the table at
// memset-like speed instead of dragging a load-add-store dependency chain
// across all 4^k entries.
func (si *SegmentIndex) buildSparse(kms []dna.Kmer, numKmers int) {
	pairs := make([]kmerAt, len(kms))
	for p, km := range kms {
		pairs[p] = kmerAt{km, int32(p)}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].km != pairs[j].km {
			return pairs[i].km < pairs[j].km
		}
		return pairs[i].pos < pairs[j].pos
	})
	start := make([]int32, numKmers+1)
	positions := make([]int32, len(pairs))
	cum := int32(0)
	fillFrom := 0
	for i := 0; i < len(pairs); {
		km := pairs[i].km
		j := i
		for j < len(pairs) && pairs[j].km == km {
			positions[j] = pairs[j].pos
			j++
		}
		for x := fillFrom; x <= int(km); x++ {
			start[x] = cum
		}
		fillFrom = int(km) + 1
		cum += int32(j - i)
		si.markPresent(km)
		i = j
	}
	for x := fillFrom; x <= numKmers; x++ {
		start[x] = cum
	}
	si.tab.Start = start
	si.tab.Positions = positions
}

// buildDense is the counting build for segments that populate a large
// fraction of the k-mer space: count occurrences, prefix-sum into offsets,
// then scatter positions. The counts array doubles as the fill cursors
// (the classic counting-sort trick), so the build allocates one table, not
// two: occurrences are tallied two slots ahead, the prefix sum turns slot
// km+1 into the km cursor, and after the scatter slot km holds start[km].
func (si *SegmentIndex) buildDense(kms []dna.Kmer, numKmers int) {
	c := make([]int32, numKmers+2)
	for _, km := range kms {
		c[km+2]++
		si.markPresent(km)
	}
	for i := 2; i < len(c); i++ {
		c[i] += c[i-1]
	}
	positions := make([]int32, len(kms))
	for p, km := range kms {
		positions[c[km+1]] = int32(p)
		c[km+1]++
	}
	si.tab.Start = c[: numKmers+1 : numKmers+1]
	si.tab.Positions = positions
}

// NewSegmentIndexFromRuns rebuilds a SegmentIndex from its sparse run
// representation — the format the on-disk index cache stores: kmers holds
// the distinct k-mers present (strictly ascending), counts[i] how many
// times kmers[i] occurs, and positions the occurrence lists concatenated in
// k-mer order (each list strictly ascending). ref is the segment's
// reference slice; the positions slice is adopted, not copied. The runs are
// validated structurally (ordering, ranges, totals) so a corrupt or
// mismatched file cannot produce an index that panics later.
func NewSegmentIndexFromRuns(ref dna.Seq, id, offset, k int, kmers []dna.Kmer, counts, positions []int32) (*SegmentIndex, error) {
	if k < 1 || k > dna.MaxK {
		return nil, fmt.Errorf("seed: k-mer length %d out of range [1,%d]", k, dna.MaxK)
	}
	codec, err := dna.NewKmerCodec(k)
	if err != nil {
		return nil, err
	}
	if len(kmers) != len(counts) {
		return nil, fmt.Errorf("seed: %d run k-mers vs %d counts", len(kmers), len(counts))
	}
	numKmers := codec.NumKmers()
	n := len(ref) - k + 1
	if n < 0 {
		n = 0
	}
	if len(positions) != n {
		return nil, fmt.Errorf("seed: %d positions for a %d-base segment (want %d windows)", len(positions), len(ref), n)
	}
	si := &SegmentIndex{ID: id, Offset: offset, Ref: ref, codec: codec}
	si.tab.Presence = make([]uint64, presenceWords(numKmers))
	start := make([]int32, numKmers+1)
	cum := int32(0)
	fillFrom := 0
	prevKm := dna.Kmer(0)
	for i, km := range kmers {
		if int(km) >= numKmers {
			return nil, fmt.Errorf("seed: run k-mer %d out of range for k=%d", km, k)
		}
		if i > 0 && km <= prevKm {
			return nil, fmt.Errorf("seed: run k-mers not strictly ascending at %d", i)
		}
		prevKm = km
		cnt := counts[i]
		if cnt <= 0 {
			return nil, fmt.Errorf("seed: non-positive run count %d for k-mer %d", cnt, km)
		}
		if int(cum)+int(cnt) > len(positions) {
			return nil, fmt.Errorf("seed: run counts overflow the position table")
		}
		run := positions[cum : cum+cnt]
		for j, p := range run {
			if p < 0 || int(p) >= n {
				return nil, fmt.Errorf("seed: position %d of k-mer %d outside [0,%d)", p, km, n)
			}
			if j > 0 && run[j-1] >= p {
				return nil, fmt.Errorf("seed: positions of k-mer %d not strictly ascending", km)
			}
		}
		for x := fillFrom; x <= int(km); x++ {
			start[x] = cum
		}
		fillFrom = int(km) + 1
		cum += cnt
		si.markPresent(km)
	}
	if int(cum) != len(positions) {
		return nil, fmt.Errorf("seed: run counts sum to %d, position table holds %d", cum, len(positions))
	}
	for x := fillFrom; x <= numKmers; x++ {
		start[x] = cum
	}
	si.tab.Start = start
	si.tab.Positions = positions
	return si, nil
}

// NewSegmentIndexFromTables binds a SegmentIndex directly over a table
// view — the zero-copy path the mapped GAXI v2 loader uses: t's slices may
// alias a read-only file mapping and are adopted, never copied. The length
// invariants (start table sized for 4^k+1, positions matching the window
// count, presence bitmap sized for the k-mer space) are always enforced;
// validate additionally runs the full structural scan (monotone start
// table, in-range ascending positions, presence/start agreement), which
// touches every table page and therefore defeats lazy residency — mapped
// callers leave it false and rely on the clamped lookup paths plus the
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
	if len(t.Start) != numKmers+1 {
		return nil, fmt.Errorf("seed: start table holds %d entries, k=%d needs %d", len(t.Start), k, numKmers+1)
	}
	if len(t.Positions) != n {
		return nil, fmt.Errorf("seed: %d positions for a %d-base segment (want %d windows)", len(t.Positions), len(ref), n)
	}
	if len(t.Presence) != presenceWords(numKmers) {
		return nil, fmt.Errorf("seed: presence bitmap holds %d words, k=%d needs %d", len(t.Presence), k, presenceWords(numKmers))
	}
	si := &SegmentIndex{ID: id, Offset: offset, Ref: ref, codec: codec, tab: t}
	if validate {
		if err := si.ValidateTables(); err != nil {
			return nil, err
		}
	}
	return si, nil
}

// ValidateTables runs the full structural scan over the table view: the
// start table must begin at zero, stay monotone, and end at the position
// count; every occurrence list must be strictly ascending and in range;
// and the presence bitmap must agree with the start table bit for bit.
// The scan touches every page of every table, so mapped indexes run it
// only on demand (indexio's Verify paths), not on open.
func (si *SegmentIndex) ValidateTables() error {
	t := &si.tab
	numKmers := si.codec.NumKmers()
	n := len(t.Positions)
	if t.Start[0] != 0 {
		return fmt.Errorf("seed: start table begins at %d, want 0", t.Start[0])
	}
	if int(t.Start[numKmers]) != n {
		return fmt.Errorf("seed: start table ends at %d, position table holds %d", t.Start[numKmers], n)
	}
	for km := 0; km < numKmers; km++ {
		lo, hi := t.Start[km], t.Start[km+1]
		if hi < lo || lo < 0 || int(hi) > n {
			return fmt.Errorf("seed: start table not monotone at k-mer %d (%d..%d)", km, lo, hi)
		}
		present := t.Presence[km>>6]&(1<<(uint(km)&63)) != 0
		if present != (hi > lo) {
			return fmt.Errorf("seed: presence bit for k-mer %d disagrees with start table", km)
		}
		for j := lo; j < hi; j++ {
			p := t.Positions[j]
			if p < 0 || int(p) >= n {
				return fmt.Errorf("seed: position %d of k-mer %d outside [0,%d)", p, km, n)
			}
			if j > lo && t.Positions[j-1] >= p {
				return fmt.Errorf("seed: positions of k-mer %d not strictly ascending", km)
			}
		}
	}
	return nil
}

// AppendRuns appends the index's sparse run representation to kmers and
// counts (see NewSegmentIndexFromRuns) and returns the extended slices.
// The walk skips absent k-mers through the presence bitmap, so the cost is
// proportional to the distinct k-mers present plus one load per 64-k-mer
// word, not to the 4^k table size.
func (si *SegmentIndex) AppendRuns(kmers []dna.Kmer, counts []int32) ([]dna.Kmer, []int32) {
	for w, word := range si.tab.Presence {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << b
			km := dna.Kmer(w<<6 + b)
			kmers = append(kmers, km)
			counts = append(counts, si.tab.Start[km+1]-si.tab.Start[km])
		}
	}
	return kmers, counts
}

// PositionTable returns the whole position table: every occurrence list
// concatenated in k-mer order. The slice is the index's backing store —
// read-only, like Lookup results.
//
//genax:borrowed
func (si *SegmentIndex) PositionTable() []int32 { return si.tab.Positions }

// StartTable returns the dense start table (4^k+1 offsets). It is the
// index's backing store under the same borrow contract as PositionTable:
// a read-only view, valid for the index's lifetime, possibly aliasing a
// file mapping.
//
//genax:borrowed
func (si *SegmentIndex) StartTable() []int32 { return si.tab.Start }

// PresenceWords returns the presence bitmap words under the same borrow
// contract as PositionTable.
//
//genax:borrowed
func (si *SegmentIndex) PresenceWords() []uint64 { return si.tab.Presence }

// K returns the k-mer length.
func (si *SegmentIndex) K() int { return si.codec.K() }

// Lookup returns the sorted (strictly ascending) local positions of km.
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
	lo, hi := si.tab.Start[km], si.tab.Start[km+1]
	if lo < 0 || hi < lo || int(hi) > len(si.tab.Positions) {
		// Clamp, never panic: a mapped view skips the full structural scan
		// (it would fault every page), so a corrupt start table that slipped
		// past the file checksums must degrade to "no hits", not a crash.
		// Built and validated tables never take this branch.
		return nil
	}
	return si.tab.Positions[lo:hi]
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
// sparse runs — so two builds (serial vs parallel, in-memory vs loaded from
// the on-disk cache) can be compared with one integer. It deliberately
// hashes the run representation rather than the 4(4^k+1)-byte start tables:
// the runs determine the tables uniquely and are proportional to the data,
// not the k-mer space.
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
	var kmers []dna.Kmer
	var counts []int32
	for _, si := range sx.Samples {
		put(uint64(si.ID))
		put(uint64(si.Offset))
		put(uint64(len(si.Ref)))
		put(uint64(si.K()))
		kmers, counts = si.AppendRuns(kmers[:0], counts[:0])
		put(uint64(len(kmers)))
		for i, km := range kmers {
			put(uint64(km))
			put(uint64(uint32(counts[i])))
		}
		for _, p := range si.tab.Positions {
			put(uint64(uint32(p)))
		}
	}
	return h.Sum64()
}
