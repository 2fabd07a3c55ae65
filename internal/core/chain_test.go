package core

import (
	"testing"

	"genax/internal/dna"
	"genax/internal/seed"
	"genax/internal/sim"
)

// longReadAligner builds an Aligner over a kilobase-read workload with a
// multi-word edit bound, so the chaining pass and the wide bitsilla
// datapath are both on the executed path.
func longReadAligner(t *testing.T, cfg Config, seedVal int64) (*Aligner, *sim.Workload) {
	t.Helper()
	wl := sim.NewLongReadWorkload(seedVal, 28000,
		sim.VariantProfile{SNPRate: 0.001, IndelRate: 0.0002, MaxIndel: 6},
		sim.LongReadProfile{MeanLength: 1100, Coverage: 0.9, ErrorRate: 0.05, IndelErrorFrac: 0.7, ReverseFraction: 0.5})
	idx, err := seed.BuildSegmentedIndex(wl.Ref, 14336, 1800, 12)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(wl.Ref, over(idx, cfg))
	if err != nil {
		t.Fatal(err)
	}
	return a, wl
}

// kilobaseReads returns the first n reads of wl long enough to be chained
// (DefaultChainMinLen).
func kilobaseReads(wl *sim.Workload, n int) []dna.Seq {
	var reads []dna.Seq
	for _, r := range wl.Reads {
		if len(r.Seq) >= DefaultChainMinLen && len(reads) < n {
			reads = append(reads, r.Seq)
		}
	}
	return reads
}

func longConfig() Config {
	cfg := smallConfig()
	cfg.K = 64 // multi-word bound: the wide datapath serves every extension
	return cfg
}

// TestChainingReducesExtensions pins the point of the stage: with
// chaining, long reads reach the extend lanes with fewer candidates, and
// alignment outcomes survive the collapse.
func TestChainingReducesExtensions(t *testing.T) {
	plOn, wl := longReadAligner(t, longConfig(), 421)
	reads := workloadReads(wl, 14)
	resOn, statsOn := plOn.AlignBatch(reads)

	plOff, err := New(plOn.Ref(), plOn.Config())
	if err != nil {
		t.Fatal(err)
	}
	plOff.chainMin = -1
	resOff, statsOff := plOff.AlignBatch(reads)

	if statsOff.ChainGroups != 0 {
		t.Fatalf("chainMin=-1 still chained %d groups", statsOff.ChainGroups)
	}
	if statsOn.Extensions >= statsOff.Extensions {
		t.Fatalf("chaining did not reduce extensions: %d with vs %d without", statsOn.Extensions, statsOff.Extensions)
	}
	alignedOff, alignedOn := 0, 0
	for i := range resOff {
		if resOff[i].Aligned {
			alignedOff++
		}
		if resOn[i].Aligned {
			alignedOn++
		}
	}
	if alignedOff == 0 {
		t.Fatal("baseline aligned nothing; workload too hard")
	}
	if alignedOn*10 < alignedOff*9 {
		t.Fatalf("chaining lost alignments: %d/%d vs %d/%d", alignedOn, len(reads), alignedOff, len(reads))
	}
}

// TestChainingShortReadsUntouched guards the short-read hash gates: at
// the default gate no 101 bp read is ever chained, so results are byte
// for byte those of a chaining-disabled aligner.
func TestChainingShortReadsUntouched(t *testing.T) {
	base, wl := testAligner(t, smallConfig(), 422, 30000, 0.02)
	reads := workloadReads(wl, 80)
	want, wantStats := base.AlignBatch(reads) // default gate (1000)
	if wantStats.ChainGroups != 0 || wantStats.ChainAnchors != 0 {
		t.Fatalf("short reads were chained: %+v", wantStats)
	}
	plOff, err := New(base.Ref(), base.Config())
	if err != nil {
		t.Fatal(err)
	}
	plOff.chainMin = -1
	got, gotStats := plOff.AlignBatch(reads)
	sameResults(t, "chain-off", got, want)
	if gotStats.Extensions != wantStats.Extensions {
		t.Errorf("extension counts differ: %d vs %d", gotStats.Extensions, wantStats.Extensions)
	}
}
