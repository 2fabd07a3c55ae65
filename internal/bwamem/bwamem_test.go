package bwamem

import (
	"math/rand"
	"testing"

	"genax/internal/align"
	"genax/internal/dna"
	"genax/internal/sim"
)

func testWorkload(seed int64, genomeLen int, errRate float64) *sim.Workload {
	return sim.NewWorkload(seed, genomeLen,
		sim.VariantProfile{SNPRate: 0.001, IndelRate: 0.0002, MaxIndel: 6},
		sim.ReadProfile{Length: 101, Coverage: 2, ErrorRate: errRate, ReverseFraction: 0.5})
}

func TestAlignPerfectReads(t *testing.T) {
	w := testWorkload(200, 20000, 0)
	// Variant-free donor for exactness.
	wl := sim.NewWorkload(201, 20000, sim.VariantProfile{}, sim.ReadProfile{Length: 101, Coverage: 1, ErrorRate: 0, ReverseFraction: 0.5})
	_ = w
	a := New(wl.Ref, DefaultOptions())
	for _, rd := range wl.Reads[:50] {
		res, ok := a.Align(rd.Seq)
		if !ok {
			t.Fatalf("read %s unaligned", rd.ID)
		}
		if res.Score != 101 {
			t.Errorf("read %s score %d, want 101", rd.ID, res.Score)
		}
		if res.RefPos != rd.TruePos {
			// Multi-mapping is possible in random genomes but unlikely;
			// tolerate only exact-score ties.
			if !wl.Ref[res.RefPos : res.RefPos+101].Equal(wl.Ref[rd.TruePos : rd.TruePos+101]) {
				t.Errorf("read %s mapped to %d, true %d", rd.ID, res.RefPos, rd.TruePos)
			}
		}
		if res.Reverse != rd.Reverse {
			t.Errorf("read %s strand %v, true %v", rd.ID, res.Reverse, rd.Reverse)
		}
	}
}

func TestAlignNoisyReads(t *testing.T) {
	wl := testWorkload(202, 30000, 0.02)
	a := New(wl.Ref, DefaultOptions())
	aligned, correct := 0, 0
	n := 200
	if n > len(wl.Reads) {
		n = len(wl.Reads)
	}
	for _, rd := range wl.Reads[:n] {
		res, ok := a.Align(rd.Seq)
		if !ok {
			continue
		}
		aligned++
		if err := res.Cigar.Validate(a.Ref()[res.RefPos:], orient(rd, res)); err != nil {
			t.Fatalf("read %s: invalid cigar: %v", rd.ID, err)
		}
		if res.Cigar.Score(a.Options().Scoring) != res.Score {
			t.Fatalf("read %s: cigar rescore mismatch", rd.ID)
		}
		if abs(res.RefPos-rd.TruePos) <= 12 {
			correct++
		}
	}
	if frac := float64(aligned) / float64(n); frac < 0.95 {
		t.Errorf("only %.1f%% of noisy reads aligned", 100*frac)
	}
	if frac := float64(correct) / float64(aligned); frac < 0.95 {
		t.Errorf("only %.1f%% of aligned reads near true position", 100*frac)
	}
	t.Logf("aligned %d/%d, correct %d", aligned, n, correct)
}

// orient returns the query sequence the reported cigar applies to: the
// reverse complement for reverse-strand alignments.
func orient(rd sim.Read, res align.Result) dna.Seq {
	if res.Reverse {
		return rd.Seq.RevComp()
	}
	return rd.Seq
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestAlignGarbageRead(t *testing.T) {
	wl := testWorkload(203, 20000, 0)
	a := New(wl.Ref, DefaultOptions())
	// A read from a different random universe should rarely clear the
	// score-30 floor; and must never produce an invalid result.
	r := rand.New(rand.NewSource(77))
	garbage := sim.RandomGenome(r, 101)
	res, ok := a.Align(garbage)
	if ok && res.Score < a.Options().MinScore {
		t.Errorf("reported alignment below MinScore: %d", res.Score)
	}
}

func TestAlignTooShortRead(t *testing.T) {
	wl := testWorkload(204, 20000, 0)
	a := New(wl.Ref, DefaultOptions())
	if _, ok := a.Align(wl.Ref[50:60].Clone()); ok {
		t.Error("10-base read aligned despite 19-base seed floor")
	}
}

func TestStatsCount(t *testing.T) {
	wl := testWorkload(206, 20000, 0.02)
	a := New(wl.Ref, DefaultOptions())
	for _, rd := range wl.Reads[:20] {
		a.Align(rd.Seq)
	}
	if a.Stats.Reads != 20 {
		t.Errorf("Reads = %d", a.Stats.Reads)
	}
	if a.Stats.Extensions == 0 {
		t.Error("no extensions recorded")
	}
}
