package core

import (
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
	short.CycleModel = true
	shortOracle, swl := testAligner(t, short, 440, 30000, 0.03)
	long := smallConfig()
	long.K, long.CycleModel = 80, true
	longOracle, lwl := longReadAligner(t, long, 442, 14336)

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
		bp.CycleModel, bp.Workers, bp.StreamWindow = false, 3, 17
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
