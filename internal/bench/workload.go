// Package bench contains the experiment drivers that regenerate every
// table and figure of the paper's evaluation (§VIII). Each experiment
// returns a structured result with a String rendering that prints the
// paper's number next to the measured one; cmd/genax-bench is the CLI
// front end and bench_test.go wires the same drivers into testing.B.
package bench

import (
	"genax/internal/core"
	"genax/internal/dna"
	"genax/internal/sim"
)

// WorkloadSpec sizes a synthetic experiment. The full human-genome run of
// the paper (3.1 Gbp, 787 M reads) does not fit a laptop; Scale picks a
// genome size and coverage whose *shape* (error rate, read length,
// variant density) matches the paper's dataset.
type WorkloadSpec struct {
	Seed      int64
	GenomeLen int
	Coverage  float64
	ErrorRate float64
	// IndelErrorFrac routes a fraction of sequencing errors through
	// 1-base indels (Fig 13 raises it to exercise CIGAR-diverse trails).
	IndelErrorFrac float64
	ReadLen        int
}

// DefaultWorkload is the standard experiment input.
func DefaultWorkload() WorkloadSpec {
	return WorkloadSpec{Seed: 1, GenomeLen: 300_000, Coverage: 2, ErrorRate: 0.02, ReadLen: 101}
}

// QuickWorkload is a fast variant for smoke runs.
func QuickWorkload() WorkloadSpec {
	return WorkloadSpec{Seed: 1, GenomeLen: 60_000, Coverage: 1, ErrorRate: 0.02, ReadLen: 101}
}

// Build materializes the workload.
func (w WorkloadSpec) Build() *sim.Workload {
	return sim.NewWorkload(w.Seed, w.GenomeLen,
		sim.DefaultVariantProfile(),
		sim.ReadProfile{Length: w.ReadLen, Coverage: w.Coverage, ErrorRate: w.ErrorRate,
			IndelErrorFrac: w.IndelErrorFrac, ReverseFraction: 0.5})
}

// ReadSeqs extracts the read sequences.
func ReadSeqs(wl *sim.Workload) []dna.Seq {
	out := make([]dna.Seq, len(wl.Reads))
	for i, r := range wl.Reads {
		out[i] = r.Seq
	}
	return out
}

// CoreConfig scales the GenAx configuration to the workload (segment size
// chosen so several segments exist, k sized for the genome).
func CoreConfig(w WorkloadSpec) core.Config {
	cfg := core.DefaultConfig()
	cfg.K = 40
	cfg.KmerLen = 12
	cfg.SegmentLen = w.GenomeLen / 8
	if cfg.SegmentLen < 4096 {
		cfg.SegmentLen = 4096
	}
	cfg.Overlap = w.ReadLen + cfg.K + 16
	return cfg
}
