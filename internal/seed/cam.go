package seed

// CAM models the 512-entry content-addressable memory each seeding lane
// uses to intersect hit sets (§V). It tracks the lookup counts that Fig 16b
// reports. The stored set is the current candidate hits; intersection
// probes one incoming value per lookup.
//
// The store is a flat open-addressed table (power-of-two slots, linear
// probing) instead of a Go map: one multiply and a handful of contiguous
// slots per probe, no per-entry hashing overhead, and — the part the
// chunked path leans on — reloads are O(1). Each slot carries a generation
// tag; a slot is live only when its tag equals the CAM's current
// generation, so Load just bumps the generation and the previous contents
// expire wholesale, with no tombstones and no clearing pass. This mirrors
// the hardware: a CAM reload is a broadcast invalidate, not a sweep.
type CAM struct {
	size int

	// keys/gens form the open-addressed table; slot i holds keys[i] only
	// when gens[i] == gen. Sized to at least twice the largest loaded set
	// (load factor <= 1/2 bounds probe runs), grown lazily by ensureTable
	// so a huge logical capacity (experiment configs use one to disable
	// the binary-search fallback) costs nothing until sets that big load.
	keys  []int32
	gens  []uint32
	gen   uint32
	mask  uint32
	shift uint32

	// matched is the reusable scratch of IntersectChunkedInto (one flag
	// per candidate, latched across chunk passes); the hardware equivalent
	// is the per-entry match bit.
	matched []bool

	// Stats accumulated across operations (reset with ResetStats).
	Lookups  int // associative probes
	Writes   int // entry loads
	Overflow int // times a set larger than the CAM had to be handled
}

// minTableBits keeps the smallest table at 8 slots so the probe masks are
// always valid.
const minTableBits = 3

// camHashMul spreads keys over the table's top bits (Fibonacci hashing).
const camHashMul = 0x9E3779B1

// NewCAM builds a CAM with the given capacity (512 in GenAx).
func NewCAM(size int) *CAM {
	if size < 1 {
		size = 1
	}
	c := &CAM{size: size, gen: 1}
	c.grow(minTableBits)
	return c
}

// Size returns the capacity.
func (c *CAM) Size() int { return c.size }

// ResetStats clears the counters.
func (c *CAM) ResetStats() { c.Lookups, c.Writes, c.Overflow = 0, 0, 0 }

// grow replaces the table with a fresh 2^bits-slot one. The generation
// restarts at 1 over the zeroed tags, so no slot is live.
func (c *CAM) grow(bits uint32) {
	n := 1 << bits
	c.keys = make([]int32, n)
	c.gens = make([]uint32, n)
	c.mask = uint32(n - 1)
	c.shift = 32 - bits
	c.gen = 1
}

// beginLoad starts a new stored set of up to n values: it guarantees table
// slack (at least 2n slots) and expires the previous set by bumping the
// generation. On the rare tag wraparound the tags are cleared so ancient
// entries cannot resurrect.
//
//genax:hotpath
func (c *CAM) beginLoad(n int) {
	if need := 2 * n; need > len(c.keys) {
		bits := uint32(minTableBits)
		for 1<<bits < need {
			bits++
		}
		c.grow(bits)
		return
	}
	c.gen++
	if c.gen == 0 {
		for i := range c.gens {
			c.gens[i] = 0
		}
		c.gen = 1
	}
}

// insert stores v in the current generation (duplicates collapse, like the
// set semantics of the hardware's parallel write).
//
//genax:hotpath
func (c *CAM) insert(v int32) {
	h := (uint32(v) * camHashMul) >> c.shift
	for c.gens[h] == c.gen {
		if c.keys[h] == v {
			return
		}
		h = (h + 1) & c.mask
	}
	c.keys[h] = v
	c.gens[h] = c.gen
}

// contains probes v against the current generation.
//
//genax:hotpath
func (c *CAM) contains(v int32) bool {
	h := (uint32(v) * camHashMul) >> c.shift
	for c.gens[h] == c.gen {
		if c.keys[h] == v {
			return true
		}
		h = (h + 1) & c.mask
	}
	return false
}

// Load replaces the stored set with vals. It reports false (and counts an
// overflow) when vals exceeds capacity — callers then fall back to binary
// search on the sorted position table.
//
//genax:hotpath
func (c *CAM) Load(vals []int32) bool {
	if len(vals) > c.size {
		c.Overflow++
		return false
	}
	c.beginLoad(len(vals))
	for _, v := range vals {
		c.insert(v)
	}
	c.Writes += len(vals)
	return true
}

// IntersectProbeInto probes every incoming value against the stored set
// and appends the matches to dst (one CAM lookup each); dst may be a
// reused scratch slice. It returns the extended slice.
//
//genax:hotpath
func (c *CAM) IntersectProbeInto(dst, incoming []int32) []int32 {
	c.Lookups += len(incoming)
	for _, v := range incoming {
		if c.contains(v) {
			dst = append(dst, v)
		}
	}
	return dst
}

// BinaryCost returns the modelled probe cost of IntersectBinaryInto on the
// given set sizes: ceil(log2 nHits) probes per candidate.
//
//genax:hotpath
func BinaryCost(nCur, nHits int) int {
	if nHits == 0 || nCur == 0 {
		return 0
	}
	logN := 1
	for n := nHits; n > 1; n >>= 1 {
		logN++
	}
	return nCur * logN
}

// IntersectBinaryInto intersects the candidate set cur against a large
// sorted hit list by binary search (§V optimization two: position tables
// are sorted offline, so oversized sets cost log time instead of a full
// CAM load), appending the matches to dst, which may be a reused scratch
// slice. The lookup counter charges ceil(log2 n) probes per candidate.
// The search is open-coded rather than sort.Search: the closure there
// costs an allocation per candidate on the hottest intersection path.
//
//genax:hotpath
func (c *CAM) IntersectBinaryInto(dst, cur, sortedHits []int32) []int32 {
	if len(sortedHits) == 0 || len(cur) == 0 {
		return dst
	}
	c.Lookups += BinaryCost(len(cur), len(sortedHits))
	for _, v := range cur {
		lo, hi := 0, len(sortedHits)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if sortedHits[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(sortedHits) && sortedHits[lo] == v {
			dst = append(dst, v)
		}
	}
	return dst
}

// ensureMatched returns the cleared per-candidate match-flag scratch, growing
// it if needed. Growth happens only until the scratch reaches the largest
// candidate set; it is the one allocation the chunked path amortizes away.
func (c *CAM) ensureMatched(n int) []bool {
	if cap(c.matched) < n {
		c.matched = make([]bool, n)
	}
	matched := c.matched[:n]
	clear(matched)
	return matched
}

// IntersectChunkedInto is the baseline without binary search when neither
// set fits the CAM: the incoming list streams through in CAM-sized chunks
// and the candidates probe every chunk. It is what forces the §V
// binary-search optimization — the cost is len(cur) probes per chunk plus
// the loads. Matches are appended to dst (which may be a reused scratch
// slice) in the order of cur. The per-candidate match flags live in a
// scratch slice owned by the CAM and cleared between lookups, so
// steady-state intersection does not allocate; each chunk's reload is a
// generation bump, not a table sweep.
//
//genax:hotpath
func (c *CAM) IntersectChunkedInto(dst, cur, incoming []int32) []int32 {
	if len(cur) == 0 || len(incoming) == 0 {
		return dst
	}
	matched := c.ensureMatched(len(cur))
	for lo := 0; lo < len(incoming); lo += c.size {
		hi := lo + c.size
		if hi > len(incoming) {
			hi = len(incoming)
		}
		c.beginLoad(hi - lo)
		for _, v := range incoming[lo:hi] {
			c.insert(v)
		}
		c.Writes += hi - lo
		c.Lookups += len(cur)
		for j, v := range cur {
			if c.contains(v) {
				matched[j] = true
			}
		}
	}
	for j, v := range cur { // preserve sorted order of cur
		if matched[j] {
			dst = append(dst, v)
		}
	}
	return dst
}
