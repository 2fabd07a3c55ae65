package pipeline

import (
	"testing"

	"genax/internal/dna"
)

// TestEngineByteIdentity is the engine-equivalence gate: the bit-parallel
// engine must reproduce the cycle-level oracle's AlignBatch and
// AlignStream output byte for byte — every position, score, strand and
// cigar — so swapping the two is invisible to every consumer of the
// pipeline. The K=80 input puts kilobase reads on the multi-word wide
// datapath, the one wide-vs-oracle identity check that runs through the
// whole pipeline.
func TestEngineByteIdentity(t *testing.T) {
	short := smallParams()
	short.Engine = EngineSillaX
	shortOracle, swl := testPipeline(t, short, 440, 30000, 0.03)
	long := smallParams()
	long.K, long.Engine = 80, EngineSillaX
	longOracle, lwl := longReadPipeline(t, long, 442)

	for _, in := range []struct {
		name   string
		oracle *Pipeline
		reads  []dna.Seq
		paths  []string
	}{
		{"short", shortOracle, workloadReads(swl, 80), []string{"batch", "stream"}},
		{"k80", longOracle, kilobaseReads(lwl, 2), []string{"batch"}},
	} {
		want, wantStats := in.oracle.AlignBatch(in.reads)
		if wantStats.Extensions == 0 {
			t.Fatalf("%s: oracle ran no extensions", in.name)
		}
		bp := in.oracle.Params()
		bp.Engine, bp.Workers, bp.Window = EngineBitSilla, 3, 17
		for _, path := range in.paths {
			got, gotStats := runPath(t, in.oracle, bp, path, in.reads)
			label := in.name + "/" + path
			for i := range want {
				sameResult(t, label, i, got[i], want[i])
			}
			// Work counters that do not depend on engine internals must
			// also agree; re-runs legitimately differ (the bit-vector
			// engine has none), so only their absence is checked.
			if got, want := gotStats.Extensions, wantStats.Extensions; got != want {
				t.Errorf("%s: %d extensions, want %d", label, got, want)
			}
			if got, want := gotStats.Aligned, wantStats.Aligned; got != want {
				t.Errorf("%s: %d aligned, want %d", label, got, want)
			}
			if gotStats.ReRuns != 0 {
				t.Errorf("%s: bit-vector engine reported %d re-runs, want 0", label, gotStats.ReRuns)
			}
		}
	}
}

// TestEngineValidation pins selector resolution: empty means bitsilla,
// the two engines are accepted, and any other name is rejected at
// construction.
func TestEngineValidation(t *testing.T) {
	pl, _ := testPipeline(t, smallParams(), 442, 12000, 0)
	if got := pl.Params().Engine; got != EngineBitSilla {
		t.Errorf("default engine resolved to %q, want %q", got, EngineBitSilla)
	}
	for _, eng := range []Engine{EngineBitSilla, EngineSillaX} {
		p := smallParams()
		p.Engine = eng
		if _, err := New(pl.ref, pl.index, p); err != nil {
			t.Errorf("engine %q rejected: %v", eng, err)
		}
	}
	for _, eng := range []Engine{"banded", "cuda", "cascade", "genasm"} {
		p := smallParams()
		p.Engine = eng
		if _, err := New(pl.ref, pl.index, p); err == nil {
			t.Errorf("unknown engine %q accepted", eng)
		}
	}
}
