package core

import "genax/internal/hw"

// Candidate flags. candReverse occupies bit 0 so the filter's diagonal key
// reproduces the fused loop's (diagonal<<1 | strand) layout exactly.
const (
	candReverse = 1 << 0 // reverse-complement strand
	candExact   = 1 << 1 // whole-read exact match: skip extension (§V)
)

// cand is one extension candidate: read[seedStart:seedEnd] matches the
// reference exactly at refPos (global coordinate of seedStart). Candidates
// appear in a batch in canonical order — forward strand before reverse,
// seeds in read order, hits in position order — which is what gives every
// candidate its deterministic merge rank.
type cand struct {
	read               int32 // window-relative read index
	seedStart, seedEnd int32
	refPos             int32
	workIdx            int32 // index into batch.work, -1 when untraced
	flags              uint8
}

// batch is a lane's working set for one claim: every candidate both
// strands of one chunk of reads produced against one segment. It lives in
// its lane and is reset per claim, so steady-state flow does not allocate
// and at most one batch per lane is ever in flight.
type batch struct {
	win   *window
	seg   int32
	cands []cand
	// work holds one hw.LaneWork per (read, strand) of the claimed chunk
	// when the window is traced: SeedOps filled by seedOne (left zero for
	// a retired read), ExtJobs appended by process.
	work []hw.LaneWork
}

// reset rebinds the batch to a window and segment. Traced ExtJobs slices
// were handed to the window's trace, so the old items are dropped rather
// than reused.
//
//genax:hotpath
func (b *batch) reset(w *window, seg int32) {
	b.win = w
	b.seg = seg
	b.cands = b.cands[:0]
	clear(b.work)
	b.work = b.work[:0]
}
