package sillax

import (
	"math/rand"
	"testing"

	"genax/internal/align"
	"genax/internal/dna"
	"genax/internal/sw"
)

// enumerateExtendBounded is the exhaustive oracle: the best affine-gap
// score over every alignment of every prefix pair using at most k edits.
func enumerateExtendBounded(ref, query dna.Seq, sc align.Scoring, k int) int {
	best := 0
	var rec func(ri, qi, edits, score int, prev align.Op)
	rec = func(ri, qi, edits, score int, prev align.Op) {
		if score > best {
			best = score
		}
		if edits > k {
			return
		}
		if ri < len(ref) && qi < len(query) {
			if ref[ri] == query[qi] {
				rec(ri+1, qi+1, edits, score+sc.Match, align.OpMatch)
			} else if edits < k {
				rec(ri+1, qi+1, edits+1, score-sc.Mismatch, align.OpMismatch)
			}
		}
		if qi < len(query) && edits < k {
			cost := sc.GapExtend
			if prev != align.OpIns {
				cost += sc.GapOpen
			}
			rec(ri, qi+1, edits+1, score-cost, align.OpIns)
		}
		if ri < len(ref) && edits < k {
			cost := sc.GapExtend
			if prev != align.OpDel {
				cost += sc.GapOpen
			}
			rec(ri+1, qi, edits+1, score-cost, align.OpDel)
		}
	}
	rec(0, 0, 0, 0, 0)
	return best
}

func TestScoringAgainstBoundedEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(60))
	sc := align.BWAMEMDefaults()
	for _, k := range []int{0, 1, 2, 3, 4} {
		sm := NewScoringMachine(k, sc)
		for trial := 0; trial < 150; trial++ {
			ref := randSeq(r, r.Intn(8))
			query := randSeq(r, r.Intn(8))
			want := enumerateExtendBounded(ref, query, sc, k)
			got := sm.Extend(ref, query)
			if got.Score != want {
				t.Fatalf("k=%d trial=%d: machine %d, oracle %d (ref=%v query=%v)", k, trial, got.Score, want, ref, query)
			}
		}
	}
}

func TestScoringMatchesUnboundedExtendForGenerousK(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	sc := align.BWAMEMDefaults()
	full := sw.NewAligner(sc)
	sm := NewScoringMachine(16, sc)
	for trial := 0; trial < 150; trial++ {
		query := randSeq(r, 20+r.Intn(60))
		ref := mutate(r, query, r.Intn(4))
		want := full.Align(ref, query)
		got := sm.Extend(ref, query)
		if got.Score != want.Score {
			t.Fatalf("trial %d: machine %d, Gotoh %d (ref=%v query=%v)", trial, got.Score, want.Score, ref, query)
		}
	}
}

func TestScoringPerfectRead(t *testing.T) {
	sc := align.BWAMEMDefaults()
	sm := NewScoringMachine(8, sc)
	s := dna.MustParseSeq("ACGTACGTACGTACG")
	res := sm.Extend(s, s)
	if res.Score != len(s) {
		t.Errorf("score = %d, want %d", res.Score, len(s))
	}
	if res.QueryLen != len(s) || res.RefLen != len(s) {
		t.Errorf("consumed = (%d,%d), want (%d,%d)", res.QueryLen, res.RefLen, len(s), len(s))
	}
}

func TestScoringClipsHopelessRead(t *testing.T) {
	sc := align.BWAMEMDefaults()
	sm := NewScoringMachine(4, sc)
	ref := dna.MustParseSeq("AAAAAAAAAA")
	query := dna.MustParseSeq("TTTTTTTTTT")
	res := sm.Extend(ref, query)
	if res.Score != 0 {
		t.Errorf("score = %d, want 0 (fully clipped)", res.Score)
	}
	if res.QueryLen != 0 {
		t.Errorf("QueryLen = %d, want 0", res.QueryLen)
	}
}

func TestScoringUnitSchemeTracksEditDistance(t *testing.T) {
	// Under unit scoring the best extension is trivially 0 (no reward),
	// so instead check a mixed scheme degenerating toward edit distance
	// still agrees with the bounded oracle.
	sc := align.Scoring{Match: 1, Mismatch: 1, GapOpen: 0, GapExtend: 1}
	r := rand.New(rand.NewSource(62))
	sm := NewScoringMachine(3, sc)
	for trial := 0; trial < 100; trial++ {
		ref := randSeq(r, r.Intn(7))
		query := randSeq(r, r.Intn(7))
		want := enumerateExtendBounded(ref, query, sc, 3)
		if got := sm.Extend(ref, query); got.Score != want {
			t.Fatalf("trial %d: %d vs %d (ref=%v query=%v)", trial, got.Score, want, ref, query)
		}
	}
}

func TestScoringDelayedMergeRegression(t *testing.T) {
	// Figure 8's scenario: a path that already opened a gap must be able
	// to beat a higher-scoring closed path when the gap continues.
	// ref  = A C G T T T A C G T
	// query= A C G T ---- A C G T (4-base deletion in the query)
	// wait: deletion means ref has extra bases. Use BWA scoring.
	sc := align.BWAMEMDefaults()
	sm := NewScoringMachine(8, sc)
	ref := dna.MustParseSeq("ACGTTTTACGT")
	query := dna.MustParseSeq("ACGTACGT")
	res := sm.Extend(ref, query)
	// Best alignment: 4 matches, 3-base deletion (cost 6+3=9), 4 matches
	// => 8 - 9 = -1; clipping prefers the first 4 matches (score 4).
	if res.Score != 4 {
		t.Errorf("score = %d, want 4", res.Score)
	}
	// With a cheaper gap the full alignment must win.
	cheap := align.Scoring{Match: 2, Mismatch: 4, GapOpen: 1, GapExtend: 1}
	sm2 := NewScoringMachine(8, cheap)
	res2 := sm2.Extend(ref, query)
	if res2.Score != 16-1-3 {
		t.Errorf("cheap-gap score = %d, want 12", res2.Score)
	}
}

func TestScoringNaiveMergeWouldBeWrong(t *testing.T) {
	// Ablation for §IV-B delayed merging: merging open and closed paths
	// by raw score at the state loses when the closed path then opens a
	// new gap. Construct: query needs a 2-base deletion; midway there is
	// an alternative closed path of equal score. The exact-affine oracle
	// and the machine agree; a naive single-register merge would not.
	sc := align.Scoring{Match: 1, Mismatch: 3, GapOpen: 4, GapExtend: 1}
	sm := NewScoringMachine(6, sc)
	r := rand.New(rand.NewSource(63))
	for trial := 0; trial < 200; trial++ {
		ref := randSeq(r, 3+r.Intn(5))
		query := randSeq(r, 3+r.Intn(5))
		want := enumerateExtendBounded(ref, query, sc, 6)
		if got := sm.Extend(ref, query); got.Score != want {
			t.Fatalf("trial %d: machine %d oracle %d (ref=%v query=%v)", trial, got.Score, want, ref, query)
		}
	}
}

func TestScoringCycleModel(t *testing.T) {
	sm := NewScoringMachine(8, align.BWAMEMDefaults())
	q := make(dna.Seq, 101)
	sm.Extend(q, q)
	want := 101 + 8 + 1 + 8 // stream + pipeline margin + backprop
	if sm.Cycles != want {
		t.Errorf("Cycles = %d, want %d", sm.Cycles, want)
	}
}

func TestScoringConsumedLengthsConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	sc := align.BWAMEMDefaults()
	sm := NewScoringMachine(10, sc)
	for trial := 0; trial < 100; trial++ {
		query := randSeq(r, 30+r.Intn(40))
		ref := mutate(r, query, r.Intn(4))
		res := sm.Extend(ref, query)
		if res.QueryLen < 0 || res.QueryLen > len(query) {
			t.Fatalf("QueryLen %d out of range [0,%d]", res.QueryLen, len(query))
		}
		if res.RefLen < 0 || res.RefLen > len(ref) {
			t.Fatalf("RefLen %d out of range [0,%d]", res.RefLen, len(ref))
		}
		// Consumed lengths can differ by at most K (indel bound).
		if diff := res.QueryLen - res.RefLen; diff > 10 || diff < -10 {
			t.Fatalf("consumed lengths differ by %d > K", diff)
		}
	}
}
