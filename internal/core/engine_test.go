package core

import (
	"strings"
	"testing"

	"genax/internal/dna"
)

// TestEngineByteIdentity is the engine-equivalence gate: the bit-parallel
// engine must reproduce the cycle-level oracle's AlignBatch and
// AlignStream output byte for byte — every position, score, strand and
// cigar — so swapping the two is invisible to every consumer of the
// aligner. The K=80 input puts kilobase reads on the multi-word wide
// datapath, the one wide-vs-oracle identity check that runs through the
// whole aligner.
func TestEngineByteIdentity(t *testing.T) {
	short := smallConfig()
	short.Engine = EngineSillaX
	shortOracle, swl := testAligner(t, short, 440, 30000, 0.03)
	long := smallConfig()
	long.K, long.Engine = 80, EngineSillaX
	longOracle, lwl := longReadAligner(t, long, 442)

	for _, in := range []struct {
		name   string
		oracle *Aligner
		reads  []dna.Seq
		paths  []string
		reRuns bool // the oracle re-executes tracebacks on these reads
	}{
		{"short", shortOracle, workloadReads(swl, 80), []string{"batch", "stream"}, false},
		{"k80", longOracle, kilobaseReads(lwl, 2), []string{"batch"}, true},
	} {
		want, wantStats := in.oracle.AlignBatch(in.reads)
		if wantStats.Extensions == 0 {
			t.Fatalf("%s: oracle ran no extensions", in.name)
		}
		if in.reRuns && wantStats.ReRuns == 0 {
			t.Errorf("%s: oracle reported no re-runs", in.name)
		}
		bp := in.oracle.Config()
		bp.Engine, bp.Workers, bp.StreamWindow = EngineBitSilla, 3, 17
		for _, path := range in.paths {
			got, gotStats := runPath(t, in.oracle.Ref(), bp, path, in.reads)
			label := in.name + "/" + path
			sameResults(t, label, got, want)
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
	pl, _ := testAligner(t, smallConfig(), 442, 12000, 0)
	if got := pl.Config().Engine; got != EngineBitSilla {
		t.Errorf("default engine resolved to %q, want %q", got, EngineBitSilla)
	}
	for _, eng := range []Engine{EngineBitSilla, EngineSillaX} {
		cfg := pl.Config()
		cfg.Engine = eng
		if _, err := New(pl.Ref(), cfg); err != nil {
			t.Errorf("engine %q rejected: %v", eng, err)
		}
	}
	for _, eng := range []Engine{"banded", "cuda", "cascade", "genasm"} {
		cfg := pl.Config()
		cfg.Engine = eng
		if _, err := New(pl.Ref(), cfg); err == nil || !strings.Contains(err.Error(), "unknown engine") {
			t.Errorf("engine %q: err %v, want unknown engine", eng, err)
		}
	}
}
