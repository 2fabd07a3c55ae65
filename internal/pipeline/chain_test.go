package pipeline

import (
	"testing"

	"genax/internal/dna"
	"genax/internal/seed"
	"genax/internal/sim"
)

// longReadPipeline builds a Pipeline over a kilobase-read workload with a
// multi-word edit bound, so the chaining pass and the wide bitsilla
// datapath are both on the executed path.
func longReadPipeline(t *testing.T, p Params, seedVal int64) (*Pipeline, *sim.Workload) {
	t.Helper()
	wl := sim.NewLongReadWorkload(seedVal, 28000,
		sim.VariantProfile{SNPRate: 0.001, IndelRate: 0.0002, MaxIndel: 6},
		sim.LongReadProfile{MeanLength: 1100, Coverage: 0.9, ErrorRate: 0.05, IndelErrorFrac: 0.7, ReverseFraction: 0.5})
	idx, err := seed.BuildSegmentedIndex(wl.Ref, 14336, 1800, 12)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := New(wl.Ref, idx, p)
	if err != nil {
		t.Fatal(err)
	}
	return pl, wl
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

func longParams() Params {
	p := smallParams()
	p.K = 64 // multi-word bound: the wide datapath serves every extension
	return p
}

// TestChainingSerialParallelIdentical is the chaining determinism gate:
// anchor chains collapse identically however chunks fall to lanes — one
// lane in one batch and four lanes over small stream windows must agree
// byte for byte, including the chain work counters. (TestDeterminismMatrix
// sweeps the rest of the worker × path × index grid.)
func TestChainingSerialParallelIdentical(t *testing.T) {
	p := longParams()
	p.Workers = 1
	base, wl := longReadPipeline(t, p, 420)
	reads := workloadReads(wl, 18)
	want, wantStats := base.AlignBatch(reads)
	if wantStats.ChainGroups == 0 || wantStats.ChainKept == 0 {
		t.Fatalf("chaining not exercised: stats %+v", wantStats)
	}
	if wantStats.ChainKept >= wantStats.ChainAnchors {
		t.Fatalf("chaining collapsed nothing: %d anchors -> %d kept", wantStats.ChainAnchors, wantStats.ChainKept)
	}
	p.Workers, p.Window = 4, 8
	got, stats := runPath(t, base, p, "stream", reads)
	for i := range want {
		sameResult(t, "4-lane stream", i, got[i], want[i])
	}
	if stats != wantStats {
		t.Errorf("4-lane stream stats %+v, want %+v", stats, wantStats)
	}
}

// TestChainingReducesExtensions pins the point of the stage: with
// chaining, long reads reach the extend lanes with fewer candidates, and
// alignment outcomes survive the collapse.
func TestChainingReducesExtensions(t *testing.T) {
	off := longParams()
	off.ChainMinLen = -1
	plOff, wl := longReadPipeline(t, off, 421)
	reads := workloadReads(wl, 14)
	resOff, statsOff := plOff.AlignBatch(reads)

	on := longParams()
	plOn, err := New(plOff.ref, plOff.index, on)
	if err != nil {
		t.Fatal(err)
	}
	resOn, statsOn := plOn.AlignBatch(reads)

	if statsOff.ChainGroups != 0 {
		t.Fatalf("ChainMinLen=-1 still chained %d groups", statsOff.ChainGroups)
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
// for byte those of a chaining-disabled pipeline.
func TestChainingShortReadsUntouched(t *testing.T) {
	p := smallParams()
	base, wl := testPipeline(t, p, 422, 30000, 0.02)
	reads := workloadReads(wl, 80)
	want, wantStats := base.AlignBatch(reads) // default gate (1000)
	if wantStats.ChainGroups != 0 || wantStats.ChainAnchors != 0 {
		t.Fatalf("short reads were chained: %+v", wantStats)
	}
	off := smallParams()
	off.ChainMinLen = -1
	plOff, err := New(base.ref, base.index, off)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats := plOff.AlignBatch(reads)
	for i := range want {
		sameResult(t, "chain-off", i, got[i], want[i])
	}
	if gotStats.Extensions != wantStats.Extensions {
		t.Errorf("extension counts differ: %d vs %d", gotStats.Extensions, wantStats.Extensions)
	}
}
