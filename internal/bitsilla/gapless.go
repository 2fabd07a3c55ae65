package bitsilla

// The certified gapless step, run before the grid on every extension. One
// scan along the anchored diagonal either proves what the grid would
// report — Score, QueryLen, RefLen and Cigar, byte for byte — or refuses,
// and the grid runs as if the step did not exist.
//
// Certification rule. Let s(j) be the score of the gapless alignment of
// query[:j] against ref[:j] (+Match per equal pair, -Mismatch per differing
// pair; the rest of the query soft-clips for free), over j in
// 0..min(qn, n). The scan certifies iff
//
//  1. the maximizing j* is unique,
//  2. s(j*) > 0,
//  3. the scan saw at most K mismatches before j*, and
//  4. s(j*) > qn*Match - (GapOpen+GapExtend).
//
// Soundness: every alignment the machine can report is either gapless — a
// diagonal prefix, whose score the scan evaluated exactly (positions past n
// only lose score, so stopping at min(qn, n) is safe) — or contains a gap
// and therefore scores at most qn*Match - (GapOpen+GapExtend), which (4)
// strictly beats. With (1) the optimum is unique over all candidate
// alignments, so no tie-break of the grid can pick anything else; with (2)
// it beats the all-clipped empty extension; with (3) it is inside the edit
// bound, so the grid reaches it. Uniqueness also pins QueryLen, RefLen and
// the '='/'X' runs of the cigar, because a gapless alignment is fully
// determined by its endpoint.
//
// The rule needs Match >= 1 and Mismatch >= 1 (otherwise distinct gapless
// prefixes tie on score and (1) and (4) lose their teeth, as under unit
// scoring), so other scorings, and the empty query, always go to the grid.
//
// A certified call reports the grid's cycle count, which depends only on
// the lengths and K, so the architectural work model does not see the
// step. It crosses no §IV-D mux, so its MuxCrossings is zero.
//
// Whether it certifies or not, the scan also yields the gapless witness
// L0: the best score of a diagonal prefix with at most K mismatches,
// floored at the empty extension's 0. That prefix is a path the grid runs
// (one edit per substitution), so L0 <= S, and the bound pass bands its
// table by it (widebound.go) without scanning the diagonal again.

import (
	"genax/internal/align"
	"genax/internal/dna"
)

// tryGapless runs the certified gapless step: the grid-identical result
// and true, or false when the certification rule does not hold. Either
// way it returns the gapless witness L0.
//
//genax:hotpath
func (m *Machine) tryGapless(ref, query dna.Seq) (Result, int32, bool) {
	qn := len(query)
	a, b := int(m.cs.A), int(m.cs.B)
	n, k := min(qn, len(ref)), m.k
	s, x := 0, 0
	best, bestJ, bestX := 0, 0, 0
	wit := -1 // L0 once the (K+1)-th mismatch has frozen it
	unique := true
	for j := 0; j < n; j++ {
		if query[j] == ref[j] {
			s += a
		} else {
			s -= b
			if x++; x == k+1 {
				wit = best // the best prefix with at most K mismatches
			}
		}
		if s > best {
			best, bestJ, bestX, unique = s, j+1, x, true
		} else if s == best {
			unique = false
		}
	}
	if wit < 0 {
		wit = best
	}
	if qn == 0 || a < 1 || b < 1 || !unique || best <= 0 || bestX > k || best <= qn*a-int(m.cs.Open) {
		return Result{}, int32(wit), false
	}
	cig := m.revBuf[:0]
	for j := 0; j < bestJ; j++ {
		op := align.OpMatch
		if query[j] != ref[j] {
			op = align.OpMismatch
		}
		cig = cig.Append(op, 1)
	}
	cig = cig.Append(align.OpClip, qn-bestJ)
	m.revBuf = cig
	return Result{
		Score:    best,
		Cigar:    cig.Clone(),
		QueryLen: bestJ,
		RefLen:   bestJ,
		Cycles:   m.cycles(len(ref), qn),
	}, int32(wit), true
}
