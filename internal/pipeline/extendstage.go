package pipeline

import (
	"genax/internal/align"
	"genax/internal/bitsilla"
	"genax/internal/dna"
	"genax/internal/extend"
	"genax/internal/sillax"
	"genax/internal/sw"
)

// countingEngine wraps every extension engine uniformly, folding each
// call's work report (Extension.Cycles and ReRuns, in the engine's native
// unit) into the lane stats. Before this wrapper covered all engines the
// banded baseline bypassed it and was invisible in the -stages busy and
// cycle counters.
type countingEngine struct {
	inner  extend.Engine
	cycles *int64
	reruns *int64
}

//genax:hotpath
func (e countingEngine) Extend(ref, query dna.Seq) extend.Extension {
	res := e.inner.Extend(ref, query)
	*e.cycles += int64(res.Cycles)
	*e.reruns += int64(res.ReRuns)
	return res
}

// extendLane is a lane's extension half: the engine selected by
// Params.Engine behind the stitcher with its reversal scratch. At a
// multi-word K the engine is the expensive part of a lane — a wide
// bitsilla machine with its trail ring — which is why lanes are kept on
// the Pipeline instead of built per call.
type extendLane struct {
	p     *Pipeline
	st    extend.Stitcher
	stats *Stats // the owning lane's work counters
}

// newEngine builds one lane's extension engine per Params.Engine, wiring
// the engine's work counters into the lane's stats.
func (p *Pipeline) newEngine(stats *Stats) extend.Engine {
	k, sc := p.params.K, p.params.Scoring
	var inner extend.Engine
	switch p.params.Engine {
	case EngineSillaX:
		inner = extend.SillaXEngine{M: sillax.NewTracebackMachine(k, sc)}
	case EngineBanded:
		inner = extend.BandedEngine{A: sw.NewBandedAligner(sc, k)}
	default: // EngineBitSilla
		inner = extend.BitSillaEngine{M: bitsilla.New(k, sc)}
	}
	return countingEngine{inner: inner, cycles: &stats.ExtensionCycles, reruns: &stats.ReRuns}
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
// has a single writer at a time. Exact-match candidates skip extension — their score is the full
// match and the cigar is materialized only on adoption, keeping the fast
// path allocation-free for out-scored positions.
//
//genax:hotpath
func (l *extendLane) process(b *batch) {
	w := b.win
	segRank := int64(b.seg) << 32
	scoring := l.p.params.Scoring
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
		cyclesBefore := l.stats.ExtensionCycles
		res := l.st.AlignAt(scoring, l.p.ref, q, int(c.seedStart), int(c.seedEnd), int(c.refPos), l.p.params.K)
		res.Reverse = reverse
		l.stats.Extensions++
		if c.workIdx >= 0 {
			b.work[c.workIdx].ExtJobs = append(b.work[c.workIdx].ExtJobs, l.stats.ExtensionCycles-cyclesBefore)
		}
		if betterThan(res, rank, sl) {
			sl.res, sl.rank, sl.aligned = res, rank, true
		}
	}
}
