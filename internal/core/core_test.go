package core

import (
	"testing"

	"genax/internal/bwamem"
	"genax/internal/dna"
	"genax/internal/sim"
)

// smallConfig scales the chip configuration to test-sized genomes.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.K = 24
	cfg.KmerLen = 10
	cfg.SegmentLen = 8192
	cfg.Overlap = 256
	cfg.Seeding.MinSeedLen = 19
	return cfg
}

func testWorkload(seed int64, n int, errRate float64) *sim.Workload {
	return sim.NewWorkload(seed, n,
		sim.VariantProfile{SNPRate: 0.001, IndelRate: 0.0002, MaxIndel: 6},
		sim.ReadProfile{Length: 101, Coverage: 2, ErrorRate: errRate, ReverseFraction: 0.5})
}

// sameResults asserts two result lists are byte-identical: the aligned
// flag, position, strand, score and cigar of every read.
func sameResults(t *testing.T, label string, got, want []ReadResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Aligned != want[i].Aligned || got[i].Result.String() != want[i].Result.String() {
			t.Fatalf("%s: read %d: %v (aligned %v), want %v (aligned %v)",
				label, i, got[i].Result, got[i].Aligned, want[i].Result, want[i].Aligned)
		}
	}
}

func TestNewValidation(t *testing.T) {
	ref := make(dna.Seq, 1000)
	cfg := smallConfig()
	cfg.K = 0
	if _, err := New(ref, cfg); err == nil {
		t.Error("K=0 accepted")
	}
	cfg = smallConfig()
	cfg.SegmentLen = 10
	if _, err := New(ref, cfg); err == nil {
		t.Error("segment shorter than overlap accepted")
	}
}

func TestAlignPerfectReads(t *testing.T) {
	wl := sim.NewWorkload(300, 30000, sim.VariantProfile{}, sim.ReadProfile{Length: 101, Coverage: 1, ErrorRate: 0, ReverseFraction: 0.5})
	a, err := New(wl.Ref, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSegments() < 3 {
		t.Fatalf("expected several segments, got %d", a.NumSegments())
	}
	reads := make([]dna.Seq, 40)
	for i := range reads {
		reads[i] = wl.Reads[i].Seq
	}
	results, stats := a.AlignBatch(reads)
	for i, rr := range results {
		rd := wl.Reads[i]
		if !rr.Aligned {
			t.Fatalf("read %s unaligned", rd.ID)
		}
		if rr.Result.Score != 101 {
			t.Errorf("read %s score %d", rd.ID, rr.Result.Score)
		}
		if rr.Result.RefPos != rd.TruePos &&
			!wl.Ref[rr.Result.RefPos:rr.Result.RefPos+101].Equal(wl.Ref[rd.TruePos:rd.TruePos+101]) {
			t.Errorf("read %s mapped to %d, true %d", rd.ID, rr.Result.RefPos, rd.TruePos)
		}
		if rr.Result.Reverse != rd.Reverse {
			t.Errorf("read %s strand mismatch", rd.ID)
		}
	}
	if stats.ExactReads != len(reads) {
		t.Errorf("ExactReads = %d, want %d (error-free workload)", stats.ExactReads, len(reads))
	}
	if stats.Aligned != len(reads) {
		t.Errorf("Aligned = %d", stats.Aligned)
	}
}

func TestAlignNoisyReadsAccuracy(t *testing.T) {
	wl := testWorkload(301, 30000, 0.02)
	a, err := New(wl.Ref, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := 120
	reads := make([]dna.Seq, n)
	for i := range reads {
		reads[i] = wl.Reads[i].Seq
	}
	results, stats := a.AlignBatch(reads)
	aligned, near := 0, 0
	for i, rr := range results {
		if !rr.Aligned {
			continue
		}
		aligned++
		q := reads[i]
		if rr.Result.Reverse {
			q = q.RevComp()
		}
		if err := rr.Result.Cigar.Validate(wl.Ref[rr.Result.RefPos:], q); err != nil {
			t.Fatalf("read %d: invalid cigar: %v", i, err)
		}
		if d := rr.Result.RefPos - wl.Reads[i].TruePos; d >= -12 && d <= 12 {
			near++
		}
	}
	if aligned < n*95/100 {
		t.Errorf("aligned %d/%d", aligned, n)
	}
	if near < aligned*95/100 {
		t.Errorf("only %d/%d near true position", near, aligned)
	}
	if stats.Extensions == 0 || stats.ExtensionCycles == 0 {
		t.Errorf("extension stats empty: %+v", stats)
	}
	t.Logf("stats: %+v", stats)
}

// TestConcordanceWithBWAMEM is the §VIII-A validation: GenAx alignment
// scores must concur with the BWA-MEM-like software pipeline on (nearly)
// every read; the paper reports 0.0023%% variance with equal scores.
func TestConcordanceWithBWAMEM(t *testing.T) {
	wl := testWorkload(302, 40000, 0.02)
	cfg := smallConfig()
	a, err := New(wl.Ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bw := bwamem.New(wl.Ref, bwamem.Options{
		Scoring:    cfg.Scoring,
		Band:       cfg.K,
		MinSeedLen: cfg.Seeding.MinSeedLen,
		MaxHits:    512,
		MinScore:   cfg.MinScore,
	})
	n := 150
	reads := make([]dna.Seq, n)
	for i := range reads {
		reads[i] = wl.Reads[i].Seq
	}
	results, _ := a.AlignBatch(reads)
	same, differ, bothAligned := 0, 0, 0
	for i := range reads {
		swRes, swOK := bw.Align(reads[i])
		gxOK := results[i].Aligned
		if swOK != gxOK {
			differ++
			continue
		}
		if !swOK {
			continue
		}
		bothAligned++
		if swRes.Score == results[i].Result.Score {
			same++
		} else {
			differ++
			t.Logf("read %d: genax score %d pos %d (%v) vs bwamem %d pos %d (%v)",
				i, results[i].Result.Score, results[i].Result.RefPos, results[i].Result.Cigar,
				swRes.Score, swRes.RefPos, swRes.Cigar)
		}
	}
	if bothAligned == 0 {
		t.Fatal("nothing aligned")
	}
	// The paper reports near-perfect concordance; allow a small residue
	// for band-vs-edit-bound boundary effects.
	if float64(differ) > 0.02*float64(n) {
		t.Errorf("%d/%d reads disagree with the software gold", differ, n)
	}
	t.Logf("concordance: %d/%d equal scores, %d differ", same, bothAligned, differ)
}

func TestAlignReadSingle(t *testing.T) {
	wl := testWorkload(303, 20000, 0)
	a, err := New(wl.Ref, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, ok := a.AlignRead(wl.Reads[0].Seq)
	if !ok {
		t.Fatal("unaligned")
	}
	if res.Score < 60 {
		t.Errorf("score %d", res.Score)
	}
}

func TestAlignBatchEmpty(t *testing.T) {
	wl := testWorkload(304, 20000, 0)
	a, _ := New(wl.Ref, smallConfig())
	results, stats := a.AlignBatch(nil)
	if len(results) != 0 || stats.Reads != 0 {
		t.Errorf("empty batch: %v %+v", results, stats)
	}
}

func TestMinScoreGate(t *testing.T) {
	wl := testWorkload(305, 20000, 0)
	cfg := smallConfig()
	cfg.MinScore = 1000 // impossible
	a, _ := New(wl.Ref, cfg)
	results, stats := a.AlignBatch([]dna.Seq{wl.Reads[0].Seq})
	if results[0].Aligned || stats.Aligned != 0 {
		t.Error("alignment reported despite impossible MinScore")
	}
}

// TestMinScoreEdge pins the Aligned && Score < MinScore edge on a read
// with a known exact score: a mutated boundary read scoring 91 must be
// suppressed at MinScore 92 — with its extension work still counted,
// since the gate sits after the merge, not inside the lanes — and
// reported untouched at MinScore 91.
func TestMinScoreEdge(t *testing.T) {
	wl := sim.NewWorkload(313, 40000, sim.VariantProfile{}, sim.ReadProfile{Length: 101, Coverage: 0})
	cfg := smallConfig()
	p := cfg.SegmentLen - 50
	read := wl.Ref[p : p+101].Clone()
	read[10] ^= 1
	read[80] ^= 2 // two SNPs: score 99*1 - 2*4 = 91

	cfg.MinScore = 91
	a, err := New(wl.Ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, stats := a.AlignBatch([]dna.Seq{read})
	if !results[0].Aligned || results[0].Result.Score != 91 {
		t.Fatalf("at-floor read: %+v", results[0])
	}
	if stats.Aligned != 1 {
		t.Errorf("stats.Aligned = %d, want 1", stats.Aligned)
	}

	cfg.MinScore = 92
	a, err = New(wl.Ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, stats = a.AlignBatch([]dna.Seq{read})
	if results[0].Aligned || results[0].Result.Score != 0 || results[0].Result.Cigar != nil {
		t.Fatalf("sub-floor alignment leaked: %+v", results[0])
	}
	if stats.Aligned != 0 {
		t.Errorf("stats.Aligned = %d, want 0", stats.Aligned)
	}
	if stats.Extensions == 0 {
		t.Error("extension work uncounted: the gate must sit after the merge, not suppress the work")
	}

	// The single-read fast path shares the same gate.
	if _, ok := a.AlignRead(read); ok {
		t.Error("AlignRead leaked a sub-MinScore alignment")
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	wl := testWorkload(306, 25000, 0.02)
	reads := make([]dna.Seq, 40)
	for i := range reads {
		reads[i] = wl.Reads[i].Seq
	}
	cfg1 := smallConfig()
	cfg1.Workers = 1
	cfg4 := smallConfig()
	cfg4.Workers = 4
	a1, _ := New(wl.Ref, cfg1)
	a4, _ := New(wl.Ref, cfg4)
	r1, _ := a1.AlignBatch(reads)
	r4, _ := a4.AlignBatch(reads)
	sameResults(t, "4 workers vs 1", r4, r1)
}
