package pipeline

import (
	"testing"

	"genax/internal/align"
)

// TestStatsMergeFields pins Merge field by field: every work counter must
// sum, and the per-batch bookkeeping fields (Reads, Aligned, ExactReads,
// Segments) must pass through untouched — they are set once at finalize,
// not folded across lanes.
func TestStatsMergeFields(t *testing.T) {
	dst := Stats{
		Reads: 3, Aligned: 2, ExactReads: 1, Segments: 5,
		IndexLookups: 10, CAMLookups: 20, SeedsEmitted: 30,
		HitsEmitted: 40, Extensions: 50, ExtensionCycles: 60, ReRuns: 70,
	}
	src := Stats{
		Reads: 100, Aligned: 100, ExactReads: 100, Segments: 100,
		IndexLookups: 1, CAMLookups: 2, SeedsEmitted: 3,
		HitsEmitted: 4, Extensions: 5, ExtensionCycles: 6, ReRuns: 7,
	}
	dst.Merge(src)
	want := Stats{
		Reads: 3, Aligned: 2, ExactReads: 1, Segments: 5,
		IndexLookups: 11, CAMLookups: 22, SeedsEmitted: 33,
		HitsEmitted: 44, Extensions: 55, ExtensionCycles: 66, ReRuns: 77,
	}
	if dst != want {
		t.Errorf("Merge result %+v, want %+v", dst, want)
	}
	// Merging a zero block is the identity.
	dst.Merge(Stats{})
	if dst != want {
		t.Errorf("Merge(zero) changed stats: %+v", dst)
	}
}

// TestFinalizeSlotMinScore pins the single MinScore gate, in particular
// the Aligned && Score < MinScore edge: an alignment that was found (its
// extension work already counted) but scores below the floor must come
// out as a zero ReadResult, while a score exactly at the floor survives.
func TestFinalizeSlotMinScore(t *testing.T) {
	mk := func(score int) slot {
		return slot{res: align.Result{RefPos: 7, Score: score}, aligned: true}
	}
	below := mk(92)
	if rr := finalizeSlot(&below, 93); rr.Aligned || rr.Result.Score != 0 || rr.Result.Cigar != nil {
		t.Errorf("sub-MinScore slot leaked: %+v", rr)
	}
	at := mk(93)
	if rr := finalizeSlot(&at, 93); !rr.Aligned || rr.Result.Score != 93 {
		t.Errorf("at-floor slot dropped: %+v", rr)
	}
	empty := slot{}
	if rr := finalizeSlot(&empty, 0); rr.Aligned {
		t.Errorf("unaligned slot reported: %+v", rr)
	}
}

// TestBetterThanRank pins the deterministic merge rule: strict wins by
// score, position, and strand, and rank breaks exact ties — lower rank
// (earlier canonical candidate) always prevails, in either arrival order.
func TestBetterThanRank(t *testing.T) {
	base := align.Result{RefPos: 100, Score: 50}
	sl := slot{res: base, rank: 10, aligned: true}

	if !betterThan(align.Result{RefPos: 100, Score: 51}, 99, &sl) {
		t.Error("higher score lost")
	}
	if betterThan(align.Result{RefPos: 100, Score: 49}, 1, &sl) {
		t.Error("lower score won on rank")
	}
	if !betterThan(align.Result{RefPos: 99, Score: 50}, 99, &sl) {
		t.Error("leftmost tiebreak lost")
	}
	if betterThan(align.Result{RefPos: 100, Score: 50, Reverse: true}, 1, &sl) {
		t.Error("reverse strand won an exact positional tie")
	}
	// Exact tie: rank decides, regardless of arrival order.
	if !betterThan(base, 9, &sl) {
		t.Error("lower rank lost an exact tie")
	}
	if betterThan(base, 11, &sl) {
		t.Error("higher rank won an exact tie")
	}
	var fresh slot
	if !betterThan(base, 1<<40, &fresh) {
		t.Error("empty slot rejected a candidate")
	}
}
