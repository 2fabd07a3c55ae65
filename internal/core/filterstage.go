package core

import "genax/internal/chain"

// filterLane is a lane's filtering half: the anchor dedup set and the
// long-read chainer, reused across batches.
type filterLane struct {
	anchors map[int64]struct{}

	// chainMin gates the chaining pass by read length (<= 0 disables);
	// maxGap is the edit bound K — the diagonal drift one gapped
	// extension can reconcile.
	chainMin int
	maxGap   int32
	chainer  chain.Chainer
	stats    *Stats // the owning lane's work counters
}

// filter compacts a batch in place: exact-match candidates short-circuit
// straight through (the fast path needs no extension and no dedup), while
// extension candidates are deduplicated by alignment diagonal — two seeds
// of one read whose hits imply the same reference offset would extend to
// the same alignment, so only the first survives. Candidates arrive
// grouped by (read, strand); the dedup set resets at each group boundary,
// reproducing the fused loop's per-(read, strand, segment) anchor set
// exactly.
//
// For reads at or above chainMin a second pass chains each surviving
// group's anchors (collinear within maxGap drift = one alignment) and
// keeps one representative per chain: without it, a 10 kb read's seeds
// land on dozens of indel-shifted diagonals per locus, and every diagonal
// the dedup keeps costs a full gapped extension of the whole read.
//
//genax:hotpath
func (f *filterLane) filter(b *batch) {
	out := b.cands[:0]
	curRead := int32(-1)
	var curFlags uint8
	for _, c := range b.cands {
		if c.read != curRead || c.flags != curFlags {
			curRead, curFlags = c.read, c.flags
			clear(f.anchors)
		}
		if c.flags&candExact == 0 {
			key := int64(c.refPos-c.seedStart)<<1 | int64(c.flags&candReverse)
			if _, dup := f.anchors[key]; dup {
				continue
			}
			f.anchors[key] = struct{}{}
		}
		out = append(out, c)
	}
	b.cands = out
	if f.chainMin > 0 {
		f.chainGroups(b)
	}
}

// chainGroups runs the chaining pass over a filtered batch: each
// contiguous (read, strand) group of extension candidates belonging to a
// long read is collapsed to its chain representatives, compacting
// b.cands in place (forward copies only — the write cursor never passes
// the read cursor). Group contents are deterministic (canonical batch
// order), and chain.Collapse is order-independent on top of that, so
// serial and parallel runs keep identical candidate sets.
//
//genax:hotpath
func (f *filterLane) chainGroups(b *batch) {
	cands := b.cands
	n := len(cands)
	out := cands[:0]
	for g0 := 0; g0 < n; {
		g1 := g0 + 1
		for g1 < n && cands[g1].read == cands[g0].read && cands[g1].flags == cands[g0].flags {
			g1++
		}
		if cands[g0].flags&candExact != 0 || g1-g0 < 2 ||
			len(b.win.reads[cands[g0].read]) < f.chainMin {
			out = append(out, cands[g0:g1]...)
			g0 = g1
			continue
		}
		f.chainer.Reset()
		for i := g0; i < g1; i++ {
			f.chainer.Add(cands[i].seedStart, cands[i].seedEnd, cands[i].refPos)
		}
		keep := f.chainer.Collapse(f.maxGap)
		for _, ki := range keep {
			out = append(out, cands[g0+int(ki)])
		}
		f.stats.ChainGroups++
		f.stats.ChainAnchors += int64(g1 - g0)
		f.stats.ChainKept += int64(len(keep))
		g0 = g1
	}
	b.cands = out
}
