package bitsilla

import (
	"math/rand"
	"testing"

	"genax/internal/align"
	"genax/internal/dna"
	"genax/internal/sillax"
)

// TestGaplessMatchesGrid pins the gapless step's contract: Extend answers
// from it exactly when it certifies, its result then equals the grid's on
// Score, QueryLen, RefLen, Cigar and Cycles, and a certified cigar
// survives later calls on the same machine. It also holds the step to a
// nonzero certified share of 101 bp reads at 2 % error against 141 bp
// windows at K=40, so a refactor cannot silently disable it.
func TestGaplessMatchesGrid(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	sc := align.BWAMEMDefaults()
	var held align.Cigar
	heldStr := held.String()
	check := func(m *Machine, ref, query dna.Seq) bool {
		t.Helper()
		m.wide.bound = -1 // the grid always stores a witness >= 0 here
		got := m.Extend(ref, query)
		_, _, ok := m.tryGapless(ref, query)
		if held.String() != heldStr {
			t.Fatalf("k=%d: earlier certified cigar mutated: %s, was %s", m.k, held, heldStr)
		}
		if stepped := m.wide.bound == -1; stepped != ok {
			t.Fatalf("k=%d: Extend skipped the grid: %v, but the gapless step certified: %v", m.k, stepped, ok)
		}
		if !ok {
			return false
		}
		// Witness 0 is always legal and keeps the reference at the widest
		// band, not the one the certified L0 would set.
		want := m.extendWide(ref, query, 0)
		if got.Score != want.Score || got.QueryLen != want.QueryLen || got.RefLen != want.RefLen ||
			got.Cigar.String() != want.Cigar.String() || got.Cycles != want.Cycles {
			t.Fatalf("k=%d ref=%v query=%v:\ngapless (score=%d q=%d r=%d cigar=%s cycles=%d)\ngrid    (score=%d q=%d r=%d cigar=%s cycles=%d)",
				m.k, ref, query,
				got.Score, got.QueryLen, got.RefLen, got.Cigar, got.Cycles,
				want.Score, want.QueryLen, want.RefLen, want.Cigar, want.Cycles)
		}
		held, heldStr = got.Cigar, got.Cigar.String()
		return true
	}
	for _, k := range diffK {
		m := New(k, sc)
		hits := 0
		for trial := 0; trial < diffTrials(k); trial++ {
			ref := randSeq(r, r.Intn(90))
			e := r.Intn(k + 3)
			if trial%2 == 0 {
				e = r.Intn(3) // the step's habitat
			}
			if check(m, ref, mutate(r, ref, e)) {
				hits++
			}
		}
		if hits == 0 {
			t.Errorf("k=%d: no input certified; the sweep does not exercise the step", k)
		}
	}

	m := New(40, sc)
	const reads = 400
	hits := 0
	for trial := 0; trial < reads; trial++ {
		ref := randSeq(r, 141)
		if check(m, ref, mutateRate(r, ref[:101], 0.02, 0.3)) {
			hits++
		}
	}
	t.Logf("gapless step certified %d of %d 101 bp reads at 2%% error", hits, reads)
	if hits < reads/10 {
		t.Fatalf("gapless step certified %d of %d 101 bp reads at 2%% error, want at least a tenth", hits, reads)
	}
}

// TestGaplessCertifyEdges pins the certification rule's boundaries: the
// edit-bound edge (K interior mismatches certify, K+1 do not), the
// gap-escape threshold (a mismatch deficit equal to the gap-open cost must
// refuse, one less must certify), score ties, unit scoring, all-mismatch,
// reference-end and zero-length inputs. Every case must match the oracle
// through Extend either way.
func TestGaplessCertifyEdges(t *testing.T) {
	expect := func(k int, sc align.Scoring, ref, query dna.Seq, want bool, label string) {
		t.Helper()
		m := New(k, sc)
		if _, _, ok := m.tryGapless(ref, query); ok != want {
			t.Errorf("%s: certified=%v, want %v", label, ok, want)
		}
		checkSame(t, k, ref, query, m.Extend(ref, query), sillax.NewTracebackMachine(k, sc).Extend(ref, query))
	}
	r := rand.New(rand.NewSource(102))
	bwa := align.BWAMEMDefaults()
	ref := randSeq(r, 60)
	flip := func(s dna.Seq, from, to int) dna.Seq {
		out := s.Clone()
		for i := from; i < to; i++ {
			out[i] = (out[i] + 1) % dna.NumBases
		}
		return out
	}

	// Edit-bound edge: one interior substitution against K=1 and K=0. With
	// BWA-MEM costs one mismatch keeps the full-length optimum unique and
	// above the gap escape (deficit 5 < open 7), so only the bound decides.
	oneSub := flip(ref[:40], 20, 21)
	expect(1, bwa, ref, oneSub, true, "one sub, k=1")
	expect(0, bwa, ref, oneSub, false, "one sub, k=0")

	// Gap-escape threshold, Open = GapOpen+GapExtend. One mismatch costs
	// Match+Mismatch = 3: with Open = 3 the gapless optimum only ties the
	// bound qn*Match-Open and must refuse; with Open = 4 it clears it.
	expect(4, align.Scoring{Match: 1, Mismatch: 2, GapOpen: 2, GapExtend: 1}, ref, oneSub, false, "deficit == Open")
	expect(4, align.Scoring{Match: 1, Mismatch: 2, GapOpen: 3, GapExtend: 1}, ref, oneSub, true, "deficit < Open")

	// Score tie: = = X = under Match=1, Mismatch=1 ties prefixes 2 and 4.
	tieRef, _ := dna.ParseSeq("ACGTAAAA")
	tieQ, _ := dna.ParseSeq("ACTT")
	expect(4, align.Scoring{Match: 1, Mismatch: 1, GapOpen: 6, GapExtend: 1}, tieRef, tieQ, false, "tied clip points")

	// Scorings with Match < 1 or Mismatch < 1 go to the grid: under unit
	// scoring distinct clip points tie, and a free mismatch would otherwise
	// certify here.
	expect(4, align.Unit(), ref, ref[:40], false, "unit scoring")
	expect(4, align.Scoring{Match: 1, Mismatch: 0, GapOpen: 6, GapExtend: 1}, ref, oneSub, false, "free mismatch")

	// The empty extension is the grid's to report, even when a query too
	// short to pay for a gap makes it the unique optimum.
	expect(8, bwa, ref, flip(ref[:30], 0, 30), false, "all mismatch")
	expect(8, bwa, ref, flip(ref[:3], 0, 3), false, "short all mismatch")
	expect(8, bwa, ref, ref[:40].Clone(), true, "exact")
	// A query running past the reference end: a short overhang clips
	// cheaply enough to certify, a long one falls below the gap escape.
	expect(8, bwa, ref[:30], append(ref[:30].Clone(), randSeq(r, 2)...), true, "two bases past ref end")
	expect(8, bwa, ref[:30], append(ref[:30].Clone(), randSeq(r, 20)...), false, "twenty bases past ref end")

	// The empty query and an empty reference go to the grid.
	expect(8, bwa, ref, nil, false, "empty query")
	expect(8, bwa, nil, ref[:20], false, "empty ref")
	expect(8, bwa, nil, nil, false, "both empty")

	// Mismatches past the clip point do not count against the bound, and a
	// short clipped tail (cost under the gap-open threshold) certifies; a
	// long one pushes the optimum below qn*Match - Open and must refuse.
	expect(1, bwa, ref, flip(ref[:40], 37, 40), true, "clipped mismatch tail")
	expect(1, bwa, ref, flip(ref[:40], 30, 40), false, "long clipped tail")
}
