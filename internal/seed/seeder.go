package seed

import "genax/internal/dna"

// Options select the seeding optimizations of §V so each can be ablated
// for the Fig 16 experiments.
type Options struct {
	// MinSeedLen is BWA-MEM's minimum reported seed length (19 default).
	MinSeedLen int
	// CAMSize is the per-lane CAM capacity (512 in GenAx).
	CAMSize int
	// SMEMFilter enables RMEM/SMEM computation; disabled, the seeder is
	// the naive hash baseline that forwards every k-mer window's hits.
	SMEMFilter bool
	// BinaryExtension enables the stride-halving refinement that grows
	// RMEMs to their exact length (optimization two); disabled, RMEMs
	// stop at multiples of k and carry correspondingly more hits.
	BinaryExtension bool
	// BinarySearch enables the sorted-position-table binary search for
	// hit lists that exceed the CAM; disabled, oversized lists stream
	// through the CAM in chunks (the Fig 16b "linear" baseline).
	BinarySearch bool
	// Probing looks up several low-stride second k-mers and starts the
	// intersection from the smallest hit set (optimization three).
	Probing bool
	// ExactFastPath short-circuits reads that match the reference
	// exactly (~75% of real reads, optimization four).
	ExactFastPath bool
	// MaxHits, when positive, caps the hits reported per seed.
	MaxHits int
}

// DefaultOptions returns the full GenAx configuration.
func DefaultOptions() Options {
	return Options{
		MinSeedLen:      19,
		CAMSize:         512,
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
	CAMLookups   int // associative/binary probe operations
	SeedsEmitted int
	HitsEmitted  int // total (seed, position) pairs sent to extension
}

// segWin is one stride-k window of the exact-match fast path.
type segWin struct {
	q    int
	hits []int32
}

// Seeder is one seeding lane bound to a segment index. A lane is long-lived:
// Reset rebinds it to the next segment's tables while the CAM and all
// scratch buffers survive, so steady-state seeding does not allocate.
type Seeder struct {
	si   *SegmentIndex
	cam  *CAM
	opts Options
	// Stats accumulates across Seed calls; reset it directly.
	Stats Stats

	// Lane-owned scratch. curBuf double-buffers the candidate sets flowing
	// through intersect: writes always go to the buffer live does NOT name,
	// and adopt flips live when the caller keeps a result, so an input set
	// is never overwritten while still being read. inBuf holds the
	// delta-normalized incoming hits of one intersect call; seedBuf backs
	// the returned seeds; winBuf backs the exact-match window list; scan
	// memoizes the read's per-position k-mers for the current Seed call;
	// arena is the flat hit-list buffer every emitted Positions slice is
	// carved from (see emit for its lifetime rules).
	inBuf   []int32
	curBuf  [2][]int32
	live    int
	seedBuf []Seed
	winBuf  []segWin
	scan    []dna.Kmer
	arena   []int32
}

// NewSeeder builds a lane over si.
func NewSeeder(si *SegmentIndex, opts Options) *Seeder {
	if opts.MinSeedLen < 1 {
		opts.MinSeedLen = 1
	}
	if opts.CAMSize < 1 {
		opts.CAMSize = 512
	}
	return &Seeder{si: si, cam: NewCAM(opts.CAMSize), opts: opts}
}

// Reset rebinds the lane to another segment's tables in place, mirroring
// the chip streaming a fresh per-segment table pair into SRAM while the
// lane hardware persists: the CAM, scratch buffers, and accumulated Stats
// all survive. The new index must use the same k-mer length workflow as
// any previous one only in the sense that Seed consults si.K() per call —
// differing k is allowed.
func (sd *Seeder) Reset(si *SegmentIndex) { sd.si = si }

// Options returns the lane configuration.
func (sd *Seeder) Options() Options { return sd.opts }

// adopt records that the caller now holds the most recent intersect result
// as its live candidate set, so the next intersect writes the other buffer.
//
//genax:hotpath
func (sd *Seeder) adopt() { sd.live ^= 1 }

// lookup charges an index-table access and returns the (sorted, local)
// hits of the window at read position q. The k-mer comes from the per-read
// memo Seed filled and the probe takes the presence-bitmap pre-filter; the
// model counts one table access per in-bounds window.
//
//genax:borrowed
//genax:hotpath
func (sd *Seeder) lookup(q int) ([]int32, bool) {
	if q < 0 || q >= len(sd.scan) {
		return nil, false
	}
	sd.Stats.IndexLookups++
	return sd.si.Lookup(sd.scan[q]), true
}

// hitsAt is lookup without the IndexLookups charge, for re-reading a window
// that was already charged (rmem's probe winner).
//
//genax:borrowed
//genax:hotpath
func (sd *Seeder) hitsAt(q int) []int32 {
	if q < 0 || q >= len(sd.scan) {
		return nil
	}
	return sd.si.Lookup(sd.scan[q])
}

// intersect intersects the sorted candidate set cur (pivot-normalized)
// with the hits of window q (normalized by delta = q - pivot), charging
// the CAM model per §V. The dispatcher is cost-aware, as the hardware FSM
// knows both set sizes: it probes the smaller set against the CAM when
// everything fits, binary-searches the sorted position list when that is
// cheaper (optimization two), and — with binary search disabled — streams
// oversized lists through the CAM in chunks.
//
//genax:borrowed
//genax:hotpath
func (sd *Seeder) intersect(cur []int32, raw []int32, delta int32) []int32 {
	incoming := sd.inBuf[:0]
	for _, h := range raw {
		incoming = append(incoming, h-delta)
	}
	sd.inBuf = incoming
	cam := sd.cam
	const inf = 1 << 60
	// Feasible strategies and their CAM-operation costs (loads + probes;
	// binary search runs against the sorted position table instead and
	// pays log2 probes per candidate). The FSM knows both set sizes and
	// picks the cheapest.
	probeIncomingCost, probeCurCost, chunkedCost, binaryCost := inf, inf, inf, inf
	if len(cur) <= cam.Size() {
		probeIncomingCost = len(cur) + len(incoming)
	}
	if len(incoming) <= cam.Size() {
		probeCurCost = len(incoming) + len(cur)
	}
	chunks := (len(incoming) + cam.Size() - 1) / cam.Size()
	chunkedCost = len(incoming) + len(cur)*chunks
	if sd.opts.BinarySearch {
		binaryCost = BinaryCost(len(cur), len(incoming))
	}

	dst := sd.curBuf[1-sd.live][:0]
	var out []int32
	switch minOf(probeIncomingCost, probeCurCost, chunkedCost, binaryCost) {
	case binaryCost:
		out = cam.IntersectBinaryInto(dst, cur, incoming)
	case probeIncomingCost:
		cam.Load(cur)
		out = cam.IntersectProbeInto(dst, incoming)
	case probeCurCost:
		cam.Load(incoming)
		out = cam.IntersectProbeInto(dst, cur)
	default:
		out = cam.IntersectChunkedInto(dst, cur, incoming)
	}
	sd.curBuf[1-sd.live] = out
	sd.Stats.CAMLookups = cam.Lookups + cam.Writes
	return out
}

//genax:hotpath
func minOf(vs ...int) int {
	m := vs[0]
	for _, v := range vs[1:] {
		if v < m {
			m = v
		}
	}
	return m
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
func (sd *Seeder) Seed(read dna.Seq) []Seed {
	sd.Stats.Reads++
	sd.arena = sd.arena[:0]
	k := sd.si.K()
	m := len(read)
	if m < k {
		return nil
	}
	// Encode every window of the read once; all probes below hit this
	// memo, including RMEM restarts and refine re-probes of the same
	// position.
	sd.scan = sd.si.codec.AppendScan(sd.scan[:0], read)
	if !sd.opts.SMEMFilter {
		return sd.naiveSeeds(read)
	}
	if sd.opts.ExactFastPath {
		if out, ok := sd.exactMatch(read); ok {
			sd.Stats.ExactReads++
			return out
		}
	}
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
		if sd.opts.MaxHits > 0 && len(a)-base >= sd.opts.MaxHits {
			break
		}
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
