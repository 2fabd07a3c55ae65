package core

import (
	"genax/internal/align"
	"genax/internal/bitsilla"
	"genax/internal/extend"
	"genax/internal/sillax"
)

// extendLane is a lane's extension half: the engine newEngine builds
// behind the stitcher with its reversal scratch. At a multi-word K the
// engine is the expensive part of a lane — a wide bitsilla machine with
// its trail ring — which is why lanes are kept on the Aligner instead of
// built per call.
type extendLane struct {
	a     *Aligner
	st    extend.Stitcher
	stats *Stats // the owning lane's work counters
}

// newEngine builds one lane's extension engine: bitsilla, or the
// cycle-level SillaX machine under Config.CycleModel; process counts its
// work from the stitcher's per-call Cycles and ReRuns.
func (a *Aligner) newEngine() extend.Engine {
	k, sc := a.cfg.K, a.cfg.Scoring
	if a.cfg.CycleModel {
		return extend.SillaXEngine{M: sillax.NewTracebackMachine(k, sc)}
	}
	return extend.BitSillaEngine{M: bitsilla.New(k, sc)}
}

// exactCigar materializes the single-run cigar of a whole-read exact match.
// It is the one allocation an adopted fast-path candidate is allowed, kept
// out of the annotated process body on purpose.
func exactCigar(n int) align.Cigar {
	return align.Cigar{{Op: align.OpMatch, Len: n}}
}

// betterThan reports whether a candidate result with the given canonical
// rank should replace the slot's incumbent: strictly better under
// align.Result's total order, or equal with a lower rank. Because the
// order is total, this merge is associative and commutative — the slot
// converges to the same value under any batch interleaving.
//
//genax:hotpath
func betterThan(res align.Result, rank int64, sl *slot) bool {
	if !sl.aligned {
		return true
	}
	if res.Better(sl.res) {
		return true
	}
	if sl.res.Better(res) {
		return false
	}
	return rank < sl.rank
}

// process runs every candidate of a batch through the extension engine
// and merges outcomes into the window's slots. Slot writes need no lock:
// within a segment a read belongs to exactly one claimed chunk, and the
// segment barrier orders the claims of successive segments, so each slot
// has a single writer at a time, as does each trace item. Exact-match
// candidates skip extension — their score is the full match and the cigar
// is materialized only on adoption, keeping the fast path allocation-free
// for out-scored positions.
//
//genax:hotpath
func (l *extendLane) process(b *batch) {
	w := b.win
	segRank := int64(b.seg) << 32
	scoring := l.a.cfg.Scoring
	for i := range b.cands {
		c := &b.cands[i]
		rank := segRank | int64(i)
		sl := &w.slots[c.read]
		reverse := c.flags&candReverse != 0
		if c.flags&candExact != 0 {
			n := len(w.reads[c.read])
			res := align.Result{RefPos: int(c.refPos), Score: n * scoring.Match, Reverse: reverse}
			if betterThan(res, rank, sl) {
				res.Cigar = exactCigar(n)
				sl.res, sl.rank, sl.aligned = res, rank, true
			}
			continue
		}
		q := w.reads[c.read]
		if reverse {
			q = w.revs[c.read]
		}
		res := l.st.AlignAt(scoring, l.a.ref, q, int(c.seedStart), int(c.seedEnd), int(c.refPos), l.a.cfg.K)
		res.Reverse = reverse
		cycles := int64(l.st.Cycles)
		l.stats.Extensions++
		l.stats.ExtensionCycles += cycles
		l.stats.ReRuns += int64(l.st.ReRuns)
		if w.trace != nil {
			it := w.item(b.seg, c.read, reverse)
			it.ExtJobs = append(it.ExtJobs, cycles)
		}
		if betterThan(res, rank, sl) {
			sl.res, sl.rank, sl.aligned = res, rank, true
		}
	}
}
