package seed

import "genax/internal/dna"

// Options select the seeding optimizations of §V so each can be ablated
// for the Fig 16 experiments.
type Options struct {
	// MinSeedLen is BWA-MEM's minimum reported seed length (19 default).
	MinSeedLen int
	// SMEMFilter enables RMEM/SMEM computation; disabled, the seeder is
	// the naive hash baseline that forwards every k-mer window's hits.
	SMEMFilter bool
	// BinaryExtension enables the stride-halving refinement that grows
	// RMEMs to their exact length (optimization two); disabled, RMEMs
	// stop at multiples of k and carry correspondingly more hits.
	BinaryExtension bool
	// BinarySearch lets the modelled FSM binary-search the sorted position
	// table when that is cheaper than the CAM; disabled, lists too large
	// for the CAM stream through it in chunks (the Fig 16b "linear"
	// baseline). It changes only the CAMLookups charge (see camCost): the
	// host intersects every set the same way.
	BinarySearch bool
	// Probing looks up several low-stride second k-mers and starts the
	// intersection from the smallest hit set (optimization three).
	Probing bool
	// ExactFastPath short-circuits reads that match the reference
	// exactly (~75% of real reads, optimization four).
	ExactFastPath bool
}

// DefaultOptions returns the full GenAx configuration.
func DefaultOptions() Options {
	return Options{
		MinSeedLen:      19,
		SMEMFilter:      true,
		BinaryExtension: true,
		BinarySearch:    true,
		Probing:         true,
		ExactFastPath:   true,
	}
}

// Seed is one reported seed: the read substring [Start,End) occurs in the
// segment at every position in Positions (global coordinates of Start).
type Seed struct {
	Start, End int
	Positions  []int32
}

// Len returns the seed length.
func (s Seed) Len() int { return s.End - s.Start }

// Stats counts the work a seeding lane performed.
type Stats struct {
	Reads        int
	ExactReads   int // reads resolved by the exact-match fast path
	IndexLookups int // index-table accesses
	CAMLookups   int // modelled CAM loads and probes (see camCost)
	SeedsEmitted int
	HitsEmitted  int // total (seed, position) pairs sent to extension
}

// HostStats counts seeding work the host does and the chip has no
// counterpart for, so the hardware model never reads it: rows loaded (one
// per window per set group, or per segment through Seed), spans resolved
// (rank → start-table reads, one per held window a probe may read), and
// segments skipped (Seed or SeedRows calls whose segment holds none of the
// read's windows, which therefore scan and probe nothing).
type HostStats struct {
	RowLoads, SpanResolves, SegmentsSkipped int
}

// segWin is one stride-k window of the exact-match fast path.
type segWin struct {
	q    int
	hits []int32
}

// Seeder is one seeding lane bound to a segment index. A lane is long-lived:
// Reset rebinds it to the next segment's tables while all scratch buffers
// survive, so steady-state seeding does not allocate.
type Seeder struct {
	si   *SegmentIndex
	opts Options
	// Stats accumulates across Seed calls; reset it directly. Host does
	// the same for the host-only counters.
	Stats Stats
	Host  HostStats

	// Lane-owned scratch. curBuf double-buffers the candidate sets flowing
	// through intersect: writes always go to the buffer live does NOT name,
	// and adopt flips live when the caller keeps a result, so an input set
	// is never overwritten while still being read. seedBuf backs the
	// returned seeds; winBuf backs the exact-match window list; scan
	// memoizes the read's per-position k-mers for the current Seed call;
	// spans is the probe table marked from the read's rows (see mark);
	// rowBuf holds Seed's rows, which no caller keeps; arena is the flat
	// hit-list buffer every emitted Positions slice is carved from (see
	// emit for its lifetime rules).
	curBuf  [2][]int32
	live    int
	seedBuf []Seed
	winBuf  []segWin
	scan    []dna.Kmer
	spans   []span
	rowBuf  []uint8
	arena   []int32
}

// NewSeeder builds a lane over si.
func NewSeeder(si *SegmentIndex, opts Options) *Seeder {
	if opts.MinSeedLen < 1 {
		opts.MinSeedLen = 1
	}
	return &Seeder{si: si, opts: opts}
}

// Reset rebinds the lane to another segment's tables in place, mirroring
// the chip streaming a fresh per-segment table pair into SRAM while the
// lane hardware persists: scratch buffers and accumulated Stats survive.
// Seed reads si.K() on every call, so the new index may use a different
// k-mer length.
func (sd *Seeder) Reset(si *SegmentIndex) { sd.si = si }

// Options returns the lane configuration.
func (sd *Seeder) Options() Options { return sd.opts }

// adopt records that the caller now holds the most recent intersect result
// as its live candidate set, so the next intersect writes the other buffer.
//
//genax:hotpath
func (sd *Seeder) adopt() { sd.live ^= 1 }

// lookup charges an index-table access and returns the (sorted, local)
// hits of the window at read position q. The answer comes from the probe
// table, not the index; the model counts one table access per in-bounds
// window, as the chip makes one.
//
//genax:borrowed
//genax:hotpath
func (sd *Seeder) lookup(q int) ([]int32, bool) {
	if uint(q) >= uint(len(sd.scan)) {
		return nil, false
	}
	sd.Stats.IndexLookups++
	return sd.hitsAt(q), true
}

// hitsAt is lookup without the IndexLookups charge, for re-reading a window
// that was already charged (rmem's probe winner).
//
//genax:borrowed
//genax:hotpath
func (sd *Seeder) hitsAt(q int) []int32 {
	if uint(q) >= uint(len(sd.spans)) {
		return nil
	}
	return sd.si.positions(sd.spans[q])
}

// loadRows fills rows with the row of every window in the scan memo: one
// load per window, all independent, so the core overlaps their misses.
//
//genax:hotpath
func (sd *Seeder) loadRows(rows []uint8) {
	for q, km := range sd.scan {
		rows[q] = sd.si.row(km)
	}
	sd.Host.RowLoads += len(sd.scan)
}

// names reports whether the bound segment holds any window of rows.
//
//genax:hotpath
func (sd *Seeder) names(rows []uint8) bool {
	var any uint8
	for _, r := range rows {
		any |= r
	}
	return any>>sd.si.col&1 != 0
}

// unresolved marks a probe-table window the segment holds whose span is
// not resolved yet; no probe reads one.
var unresolved = span{-1, -1}

// mark fills the probe table from rows: a window the bound segment holds
// is marked unresolved, any other gets the empty span. Then it resolves
// the windows exactMatch and naiveSeeds read — every k-th and the last —
// so that an exact read, whose fast path reads nothing else, pays the
// rank and start-table reads of those few windows only.
//
//genax:hotpath
func (sd *Seeder) mark(rows []uint8, k int) {
	sd.spans = sd.spans[:len(rows)]
	col := sd.si.col
	for q, r := range rows {
		sd.spans[q] = span{}
		if r>>col&1 != 0 {
			sd.spans[q] = unresolved
		}
	}
	last := len(rows) - 1
	for q := 0; q <= last; q += k {
		if sd.spans[q] == unresolved {
			sd.resolve(q)
		}
	}
	if sd.spans[last] == unresolved {
		sd.resolve(last)
	}
}

// resolveRest resolves every window mark left unresolved.
//
//genax:hotpath
func (sd *Seeder) resolveRest() {
	for q, s := range sd.spans {
		if s == unresolved {
			sd.resolve(q)
		}
	}
}

// resolve gives window q its span: rank, then two start entries.
//
//genax:hotpath
func (sd *Seeder) resolve(q int) {
	sd.spans[q] = sd.si.spanOf(sd.scan[q])
	sd.Host.SpanResolves++
}

// fit sizes the probe table and the row scratch for n windows. It
// allocates only when a read has more windows than any before it on this
// lane.
func (sd *Seeder) fit(n int) {
	if cap(sd.spans) < n {
		sd.spans = make([]span, n)
	}
	if cap(sd.rowBuf) < n {
		sd.rowBuf = make([]uint8, n)
	}
}

// intersect intersects the sorted candidate set cur (pivot-normalized)
// with the hits of window q (normalized by delta = q - pivot) into the
// buffer live does not name, and charges the CAM operations the chip's
// FSM would spend on the two set sizes (§V).
//
//genax:borrowed
//genax:hotpath
func (sd *Seeder) intersect(cur []int32, raw []int32, delta int32) []int32 {
	sd.Stats.CAMLookups += camCost(len(cur), len(raw), camSize, sd.opts.BinarySearch)
	sd.curBuf[1-sd.live] = intersectSorted(sd.curBuf[1-sd.live][:0], cur, raw, delta)
	return sd.curBuf[1-sd.live]
}

// rmem computes the right-maximal exact match from pivot p: the matched
// length and the candidate positions (local, normalized to p). A length
// below k means the pivot's own window had no hits.
//
//genax:borrowed
//genax:hotpath
func (sd *Seeder) rmem(read dna.Seq, p int) (int, []int32) {
	k := sd.si.K()
	m := len(read)
	h1, ok := sd.lookup(p)
	if !ok || len(h1) == 0 {
		return 0, nil
	}
	cur := h1
	last := p // start of the last matched window
	// Optimization three: probe a few second windows at decreasing
	// strides and continue from the one with the fewest hits.
	if sd.opts.Probing {
		bestQ, bestLen := -1, 1<<30
		for _, s := range [...]int{k, k/2 + 1, k/4 + 1} {
			q := p + s
			if q <= p || q > m-k {
				continue
			}
			h, ok := sd.lookup(q)
			if !ok {
				continue
			}
			if len(h) < bestLen {
				bestQ, bestLen = q, len(h)
			}
		}
		if bestQ > 0 {
			h := sd.hitsAt(bestQ) // already charged above
			next := sd.intersect(cur, h, int32(bestQ-p))
			if len(next) == 0 {
				// The probed window mismatched; fall back to refining
				// within the first window's span.
				return sd.refine(read, p, p, cur)
			}
			cur, last = next, bestQ
			sd.adopt()
		}
	}
	// Doubling phase: stride k while the intersection survives.
	for {
		q := last + k
		if q > m-k {
			break
		}
		h, ok := sd.lookup(q)
		if !ok {
			break
		}
		next := sd.intersect(cur, h, int32(q-p))
		if len(next) == 0 {
			break
		}
		cur, last = next, q
		sd.adopt()
	}
	return sd.refine(read, p, last, cur)
}

// refine runs the stride-halving phase (optimization two) to pin the exact
// RMEM end between last+k and last+2k, then returns the match.
//
//genax:borrowed
//genax:hotpath
func (sd *Seeder) refine(read dna.Seq, p, last int, cur []int32) (int, []int32) {
	k := sd.si.K()
	m := len(read)
	if sd.opts.BinaryExtension {
		for s := k / 2; s >= 1; s /= 2 {
			q := last + s
			if q > m-k {
				continue
			}
			h, ok := sd.lookup(q)
			if !ok {
				continue
			}
			next := sd.intersect(cur, h, int32(q-p))
			if len(next) > 0 {
				cur, last = next, q
				sd.adopt()
			}
		}
	}
	return last + k - p, cur
}

// Seed reports the seeds of a read against this lane's segment, in read
// order, with positions translated to global coordinates. The returned
// slice and the Positions slices inside it are backed by lane-owned
// scratch (the hit-list arena): they are valid only until the next Seed
// call on this Seeder.
//
//genax:borrowed
//genax:hotpath
func (sd *Seeder) Seed(read dna.Seq) []Seed { return sd.SeedRows(read, nil) }

// SeedRows is Seed for a caller that keeps a read's rows across the
// segments of a set group. rows has one byte per window of read
// (len(read)-k+1). At the group's first segment (Tables.Col 0) SeedRows
// loads every window's row into rows; at the group's later segments it
// reads them, and scans and probes the read only if some window's row
// names the segment. So a read pays one row load per window per set
// group, not one presence load per window per segment. The caller hands
// the same rows, untouched, to every segment of the group in order from
// its first. Nil rows means lane scratch, loaded afresh: that is Seed.
// Seeds, counters and the result's lifetime are Seed's.
//
//genax:borrowed
//genax:hotpath
func (sd *Seeder) SeedRows(read dna.Seq, rows []uint8) []Seed {
	sd.Stats.Reads++
	sd.arena = sd.arena[:0]
	k := sd.si.K()
	m := len(read)
	if m < k {
		return nil
	}
	n := m - k + 1
	sd.fit(n)
	// Encode every window of the read once, here or once the rows name
	// the segment; all probes below hit this memo, including RMEM restarts
	// and refine re-probes of the same position.
	scanned := rows == nil || sd.si.col == 0
	if rows == nil {
		rows = sd.rowBuf
	}
	rows = rows[:n]
	if scanned {
		sd.scan = sd.si.codec.AppendScan(sd.scan[:0], read)
		sd.loadRows(rows)
	}
	if sd.opts.SMEMFilter && !sd.names(rows) {
		// No window is present: charge the probes the executed path makes.
		sd.Host.SegmentsSkipped++
		sd.spans = sd.spans[:0]
		sd.Stats.IndexLookups += n
		if sd.opts.ExactFastPath {
			sd.Stats.IndexLookups++
		}
		return nil
	}
	if !scanned {
		sd.scan = sd.si.codec.AppendScan(sd.scan[:0], read)
	}
	// The fast path and the naive baseline read only the stride windows;
	// the rest are resolved only when the SMEM loop is to read them.
	sd.mark(rows, k)
	if !sd.opts.SMEMFilter {
		return sd.naiveSeeds(read)
	}
	if sd.opts.ExactFastPath {
		if out, ok := sd.exactMatch(read); ok {
			sd.Stats.ExactReads++
			return out
		}
	}
	sd.resolveRest()
	out := sd.seedBuf[:0]
	maxEnd := -1
	for p := 0; p+k <= m; p++ {
		l, cur := sd.rmem(read, p)
		if l < k {
			continue
		}
		end := p + l
		if end <= maxEnd {
			continue // contained in an earlier SMEM: not super-maximal
		}
		// Skip non-left-maximal RMEMs: a longer match from an earlier
		// pivot covering this span has already set maxEnd past end,
		// which the containment test above caught. (Any RMEM from p-1
		// reaching end would give maxEnd >= end.)
		maxEnd = end
		if l < sd.opts.MinSeedLen {
			continue
		}
		out = sd.emit(out, p, end, cur)
	}
	sd.seedBuf = out
	return out
}

// emit appends a Seed for the pivot-normalized local candidates to out,
// translating to global coordinates and charging the hit counters. Every
// Positions slice is carved out of the lane's flat arena: one append run,
// then a full-capacity reslice so later emits cannot grow into it. The
// arena resets at each Seed call, so a warm lane emits without allocating;
// if an append does grow the arena mid-read, earlier seeds keep aliasing
// the old backing array — still correct, since emitted positions are never
// rewritten, and the grown arena makes the next read allocation-free.
//
//genax:borrowed
//genax:hotpath
func (sd *Seeder) emit(out []Seed, start, end int, cur []int32) []Seed {
	a := sd.arena
	base := len(a)
	off := int32(sd.si.Offset)
	for _, c := range cur {
		a = append(a, c+off)
	}
	sd.arena = a
	positions := a[base:len(a):len(a)]
	sd.Stats.SeedsEmitted++
	sd.Stats.HitsEmitted += len(positions)
	return append(out, Seed{Start: start, End: end, Positions: positions})
}

// exactMatch implements optimization four: intersect ceil(m/k) windows
// spanning the whole read, smallest hit set first; a non-empty result is a
// whole-read exact match and seed-extension can be skipped entirely. On
// success it returns the lane's seed buffer holding the single seed.
//
//genax:borrowed
//genax:hotpath
func (sd *Seeder) exactMatch(read dna.Seq) ([]Seed, bool) {
	k := sd.si.K()
	m := len(read)
	wins := sd.winBuf[:0]
	// Persist the (possibly grown) window buffer on every exit so the next
	// read reuses it; a defer would make this function heap-allocate.
	for q := 0; ; q += k {
		if q > m-k {
			if last := m - k; last > wins[len(wins)-1].q {
				h, ok := sd.lookup(last)
				if !ok || len(h) == 0 {
					sd.winBuf = wins
					return nil, false
				}
				wins = append(wins, segWin{last, h})
			}
			break
		}
		h, ok := sd.lookup(q)
		if !ok || len(h) == 0 {
			sd.winBuf = wins
			return nil, false
		}
		wins = append(wins, segWin{q, h})
	}
	sd.winBuf = wins
	// Smallest set first minimizes CAM work.
	smallest := 0
	for i, w := range wins {
		if len(w.hits) < len(wins[smallest].hits) {
			smallest = i
		}
	}
	base := wins[smallest]
	cur := sd.curBuf[0][:0]
	for _, h := range base.hits {
		cur = append(cur, h-int32(base.q)) // normalize to read start
	}
	sd.curBuf[0] = cur
	sd.live = 0
	for i, w := range wins {
		if i == smallest || len(cur) == 0 {
			continue
		}
		cur = sd.intersect(cur, w.hits, int32(w.q))
		sd.adopt()
	}
	// Negative positions would run off the segment start.
	valid := cur[:0]
	for _, c := range cur {
		if c >= 0 {
			valid = append(valid, c)
		}
	}
	if len(valid) == 0 {
		return nil, false
	}
	sd.seedBuf = sd.emit(sd.seedBuf[:0], 0, m, valid)
	return sd.seedBuf, true
}

// naiveSeeds is the baseline without SMEM filtering: every stride-k window
// forwards all of its hits to extension (Fig 16a's "naive hash" bar).
//
//genax:borrowed
//genax:hotpath
func (sd *Seeder) naiveSeeds(read dna.Seq) []Seed {
	k := sd.si.K()
	m := len(read)
	out := sd.seedBuf[:0]
	for q := 0; q+k <= m; q += k {
		h, ok := sd.lookup(q)
		if !ok || len(h) == 0 {
			continue
		}
		out = sd.emit(out, q, q+k, h)
	}
	sd.seedBuf = out
	return out
}
