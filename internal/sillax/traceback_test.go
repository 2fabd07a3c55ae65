package sillax

import (
	"math/rand"
	"testing"

	"genax/internal/align"
	"genax/internal/dna"
	"genax/internal/sw"
)

func TestTracebackScoreMatchesScoringMachine(t *testing.T) {
	r := rand.New(rand.NewSource(70))
	sc := align.BWAMEMDefaults()
	for _, k := range []int{2, 4, 8, 16} {
		tm := NewTracebackMachine(k, sc)
		sm := NewScoringMachine(k, sc)
		for trial := 0; trial < 100; trial++ {
			query := randSeq(r, 10+r.Intn(60))
			ref := mutate(r, query, r.Intn(k/2+1))
			want := sm.Extend(ref, query)
			got := tm.Extend(ref, query)
			if got.Score != want.Score {
				t.Fatalf("k=%d trial=%d: traceback %d, scoring %d", k, trial, got.Score, want.Score)
			}
		}
	}
}

func TestTracebackCigarIsValidAndRescores(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	sc := align.BWAMEMDefaults()
	tm := NewTracebackMachine(12, sc)
	for trial := 0; trial < 300; trial++ {
		query := randSeq(r, 10+r.Intn(90))
		ref := mutate(r, query, r.Intn(5))
		res := tm.Extend(ref, query)
		if err := res.Cigar.Validate(ref, query); err != nil {
			t.Fatalf("trial %d: invalid cigar %v: %v (ref=%v query=%v)", trial, res.Cigar, err, ref, query)
		}
		if got := res.Cigar.Score(sc); got != res.Score {
			t.Fatalf("trial %d: cigar rescores to %d, machine reported %d (cigar=%v)", trial, got, res.Score, res.Cigar)
		}
		if got := res.Cigar.RefLen(); got != res.RefLen {
			t.Fatalf("trial %d: cigar consumes %d ref bases, machine reported %d", trial, got, res.RefLen)
		}
	}
}

func TestTracebackMatchesGotohScore(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	sc := align.BWAMEMDefaults()
	tm := NewTracebackMachine(16, sc)
	full := sw.NewAligner(sc)
	for trial := 0; trial < 150; trial++ {
		query := randSeq(r, 30+r.Intn(70))
		ref := mutate(r, query, r.Intn(4))
		want := full.Align(ref, query)
		got := tm.Extend(ref, query)
		if got.Score != want.Score {
			t.Fatalf("trial %d: machine %d, Gotoh %d", trial, got.Score, want.Score)
		}
	}
}

func TestTracebackPerfectRead(t *testing.T) {
	sc := align.BWAMEMDefaults()
	tm := NewTracebackMachine(8, sc)
	s := dna.MustParseSeq("ACGTACGTACGT")
	res := tm.Extend(s, s)
	if res.Cigar.String() != "12=" {
		t.Errorf("cigar = %v, want 12=", res.Cigar)
	}
	if res.ReRuns != 0 {
		t.Errorf("perfect read required %d re-runs", res.ReRuns)
	}
}

func TestTracebackKnownEdits(t *testing.T) {
	sc := align.BWAMEMDefaults()
	tm := NewTracebackMachine(8, sc)
	// One substitution in the middle.
	ref := dna.MustParseSeq("ACGTACGTACGTACGT")
	query := dna.MustParseSeq("ACGTACTTACGTACGT")
	res := tm.Extend(ref, query)
	if res.Cigar.String() != "6=1X9=" {
		t.Errorf("substitution cigar = %v, want 6=1X9=", res.Cigar)
	}
	if res.Score != 15-4 {
		t.Errorf("score = %d, want 11", res.Score)
	}
	// A two-base deletion (query missing two reference bases) followed by
	// enough matches that the gapped alignment strictly beats clipping.
	ref2 := dna.MustParseSeq("AACCGGTTAACCGGTTAACC")
	query2 := dna.MustParseSeq("AACCGGAACCGGTTAACC")
	res2 := tm.Extend(ref2, query2)
	if res2.Cigar.String() != "6=2D12=" {
		t.Errorf("deletion cigar = %v, want 6=2D12=", res2.Cigar)
	}
	if res2.Score != 18-8 {
		t.Errorf("score = %d, want 10", res2.Score)
	}
}

func TestTracebackFullClip(t *testing.T) {
	sc := align.BWAMEMDefaults()
	tm := NewTracebackMachine(2, sc)
	ref := dna.MustParseSeq("AAAAAAAA")
	query := dna.MustParseSeq("TTTTTTTT")
	res := tm.Extend(ref, query)
	if res.Score != 0 || res.Cigar.String() != "8S" {
		t.Errorf("hopeless read: score=%d cigar=%v", res.Score, res.Cigar)
	}
}

func TestTracebackEmptyInputs(t *testing.T) {
	sc := align.BWAMEMDefaults()
	tm := NewTracebackMachine(4, sc)
	res := tm.Extend(dna.Seq{}, dna.Seq{})
	if res.Score != 0 || len(res.Cigar) != 0 {
		t.Errorf("empty inputs: %+v", res)
	}
	res = tm.Extend(dna.MustParseSeq("ACGT"), dna.Seq{})
	if res.Score != 0 {
		t.Errorf("empty query score = %d", res.Score)
	}
	res = tm.Extend(dna.Seq{}, dna.MustParseSeq("ACGT"))
	if res.Score != 0 || res.Cigar.String() != "4S" {
		t.Errorf("empty ref: %+v", res)
	}
}

func TestTracebackCycleAccounting(t *testing.T) {
	sc := align.BWAMEMDefaults()
	k := 8
	tm := NewTracebackMachine(k, sc)
	q := make(dna.Seq, 101)
	res := tm.Extend(q, q)
	phase1 := 101 + k + 1
	if res.Cycles != phase1+4*k+res.ReRunCycles {
		t.Errorf("Cycles = %d, want phase1(%d)+4K(%d)+reruns(%d)", res.Cycles, phase1, 4*k, res.ReRunCycles)
	}
}

func TestTracebackReRunStatistics(t *testing.T) {
	// Broken pointer trails must (a) occur sometimes on noisy reads —
	// otherwise Fig 13 would be vacuous — and (b) never corrupt the
	// reported alignment.
	r := rand.New(rand.NewSource(73))
	sc := align.BWAMEMDefaults()
	tm := NewTracebackMachine(16, sc)
	total, broken := 0, 0
	for trial := 0; trial < 400; trial++ {
		query := randSeq(r, 60+r.Intn(42))
		ref := mutate(r, query, 2+r.Intn(6))
		res := tm.Extend(ref, query)
		total++
		if res.ReRuns > 0 {
			broken++
			if res.ReRunCycles <= 0 {
				t.Fatalf("trial %d: ReRuns=%d but ReRunCycles=%d", trial, res.ReRuns, res.ReRunCycles)
			}
		}
		if err := res.Cigar.Validate(ref, query); err != nil {
			t.Fatalf("trial %d: broken trail corrupted cigar: %v", trial, err)
		}
		if res.Cigar.Score(sc) != res.Score {
			t.Fatalf("trial %d: score mismatch after re-run", trial)
		}
	}
	if broken == 0 {
		t.Error("no broken pointer trails in 400 noisy reads; re-run model is dead code")
	}
	if broken == total {
		t.Error("every read broke its trail; §VIII-A expects these to be rare-ish (7.59%)")
	}
	t.Logf("broken trails: %d/%d (%.2f%%)", broken, total, 100*float64(broken)/float64(total))
}
