// Package extend stitches seed extensions into whole-read alignments. Both
// pipelines share it: the BWA-MEM-like software baseline plugs in a banded
// Smith-Waterman engine, the GenAx model plugs in a SillaX traceback lane.
// Given a seed (an exact match anchoring the read on the reference), the
// stitcher extends left over reversed strings, extends right, and fuses
// the two traces with the seed's match run — exactly how a SillaX lane
// consumes the hits buffered by the seeding lanes (§VI).
package extend

import (
	"genax/internal/align"
	"genax/internal/bitsilla"
	"genax/internal/dna"
	"genax/internal/sillax"
	"genax/internal/sw"
)

// Extension is one directional seed extension: the best clipped score and
// the consumed prefix lengths, with the trace when the engine produces one.
type Extension struct {
	Score            int
	QueryLen, RefLen int
	// Cigar covers the query completely (consumed part plus a trailing
	// soft clip).
	Cigar align.Cigar
	// Cycles is the engine's work report for this call in its native
	// unit — architectural cycles for the Silla machines, DP cells for
	// the banded aligner, diagonal characters for the certified genasm
	// path — and ReRuns counts traceback re-executions (SillaX only).
	// Every engine fills Cycles so the stage instrumentation sees
	// uniform busy counters regardless of Params.Engine.
	Cycles, ReRuns int
}

// Engine runs one anchored, clipped extension. Implementations must treat
// ref and query as anchored at position 0, and the returned Extension
// (including its Cigar) must stay valid across subsequent Extend calls —
// the stitcher holds the left extension while running the right one.
type Engine interface {
	Extend(ref, query dna.Seq) Extension
}

// BandedEngine adapts the software banded Smith-Waterman.
type BandedEngine struct{ A *sw.BandedAligner }

// Extend implements Engine.
//
//genax:hotpath
func (e BandedEngine) Extend(ref, query dna.Seq) Extension {
	res := e.A.Extend(ref, query)
	ql := res.Cigar.QueryLen()
	if n := len(res.Cigar); n > 0 && res.Cigar[n-1].Op == align.OpClip {
		ql -= res.Cigar[n-1].Len
	}
	return Extension{Score: res.Score, QueryLen: ql, RefLen: res.Cigar.RefLen(), Cigar: res.Cigar, Cycles: e.A.Cells()}
}

// SillaXEngine adapts a SillaX traceback lane.
type SillaXEngine struct{ M *sillax.TracebackMachine }

// Extend implements Engine.
//
//genax:hotpath
func (e SillaXEngine) Extend(ref, query dna.Seq) Extension {
	res := e.M.Extend(ref, query)
	return Extension{Score: res.Score, QueryLen: res.QueryLen, RefLen: res.RefLen, Cigar: res.Cigar, Cycles: res.Cycles, ReRuns: res.ReRuns}
}

// BitSillaEngine adapts the bit-parallel Silla machine — byte-identical
// results to SillaXEngine at word-parallel speed; the production default.
type BitSillaEngine struct{ M *bitsilla.Machine }

// Extend implements Engine.
//
//genax:hotpath
func (e BitSillaEngine) Extend(ref, query dna.Seq) Extension {
	res := e.M.Extend(ref, query)
	return Extension{Score: res.Score, QueryLen: res.QueryLen, RefLen: res.RefLen, Cigar: res.Cigar, Cycles: res.Cycles}
}

// Stitcher runs anchored seed extensions through one engine, reusing
// scratch buffers for the reversed left-extension strings across calls so
// that steady-state stitching only allocates the result cigar. Not safe
// for concurrent use; give each lane its own Stitcher.
type Stitcher struct {
	Eng Engine

	revRef, revQuery dna.Seq // reversed-string scratch for left extensions
}

// AlignAt aligns read against ref given that read[seedStart:seedEnd]
// matches ref exactly at refPos (global coordinate of seedStart). margin
// is the extra reference window allowed beyond the read ends (the edit
// bound K). The returned result carries a full-query cigar and does not
// alias the stitcher's scratch.
func (st *Stitcher) AlignAt(sc align.Scoring, ref, read dna.Seq, seedStart, seedEnd, refPos, margin int) align.Result {
	if margin < 0 {
		margin = 0 // a negative edit bound would shrink the windows below the read
	}
	seedLen := seedEnd - seedStart

	// Left extension on reversed strings.
	var left Extension
	if seedStart > 0 {
		lo := refPos - seedStart - margin
		if lo < 0 {
			lo = 0
		}
		st.revRef = dna.AppendReverse(st.revRef[:0], ref[lo:refPos])
		st.revQuery = dna.AppendReverse(st.revQuery[:0], read[:seedStart])
		left = st.Eng.Extend(st.revRef, st.revQuery)
	}
	// Right extension.
	var right Extension
	rightRef := refPos + seedLen
	if seedEnd < len(read) && rightRef <= len(ref) {
		hi := rightRef + (len(read) - seedEnd) + margin
		if hi > len(ref) {
			hi = len(ref)
		}
		right = st.Eng.Extend(ref[rightRef:hi], read[seedEnd:])
	}

	cig := make(align.Cigar, 0, len(left.Cigar)+len(right.Cigar)+2)
	if seedStart > 0 {
		if len(left.Cigar) > 0 {
			cig = cig.ConcatReversed(left.Cigar)
		} else {
			cig = cig.Append(align.OpClip, seedStart)
		}
	}
	cig = cig.Append(align.OpMatch, seedLen)
	if seedEnd < len(read) {
		if len(right.Cigar) > 0 {
			cig = cig.Concat(right.Cigar)
		} else {
			cig = cig.Append(align.OpClip, len(read)-seedEnd)
		}
	}
	return align.Result{
		RefPos: refPos - left.RefLen,
		Score:  left.Score + seedLen*sc.Match + right.Score,
		Cigar:  cig,
	}
}

// AlignAt is the one-shot convenience form of Stitcher.AlignAt; hot paths
// should hold a Stitcher instead so the reversal scratch is reused.
func AlignAt(eng Engine, sc align.Scoring, ref, read dna.Seq, seedStart, seedEnd, refPos, margin int) align.Result {
	if margin < 0 {
		margin = 0
	}
	st := Stitcher{Eng: eng}
	return st.AlignAt(sc, ref, read, seedStart, seedEnd, refPos, margin)
}
