// Quickstart: build a tiny synthetic genome, simulate Illumina-style
// reads, align them with the GenAx pipeline, and print SAM-like records —
// the five-minute tour of the public API.
package main

import (
	"fmt"
	"log"

	"genax/internal/core"
	"genax/internal/dna"
	"genax/internal/sim"
)

func main() {
	// 1. A synthetic reference with human-like variant density and 101 bp
	//    reads at 2% sequencing error — the paper's workload shape (§VII).
	wl := sim.NewWorkload(42, 100_000, sim.DefaultVariantProfile(),
		sim.ReadProfile{Length: 101, Coverage: 0.5, ErrorRate: 0.02, ReverseFraction: 0.5})
	fmt.Printf("reference: %d bp, reads: %d\n", len(wl.Ref), len(wl.Reads))

	// 2. A GenAx instance: per-segment k-mer tables plus SillaX lanes,
	// which extend on the bit-parallel Silla machine.
	cfg := core.DefaultConfig()
	cfg.SegmentLen = 32_768 // several segments even on a toy genome
	aligner, err := core.New(wl.Ref, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index: %d segments, k=%d, K(edit bound)=%d\n\n",
		aligner.NumSegments(), cfg.KmerLen, cfg.K)

	// 3. Align a batch (seeding -> SillaX extension with traceback).
	seqs := make([]dna.Seq, len(wl.Reads))
	for i, rd := range wl.Reads {
		seqs[i] = rd.Seq
	}
	results, stats := aligner.AlignBatch(seqs)

	// 4. Inspect the first few alignments.
	correct := 0
	for i, rr := range results {
		if rr.Aligned && abs(rr.Result.RefPos-wl.Reads[i].TruePos) <= 12 {
			correct++
		}
		if i < 8 {
			if rr.Aligned {
				fmt.Printf("%-12s %s\n", wl.Reads[i].ID, rr.Result)
			} else {
				fmt.Printf("%-12s unaligned\n", wl.Reads[i].ID)
			}
		}
	}
	fmt.Printf("\naligned %d/%d reads (%d exact fast-path), %d near true position\n",
		stats.Aligned, stats.Reads, stats.ExactReads, correct)
	fmt.Printf("pipeline work: %d extensions, %d SillaX cycles, %d traceback re-runs\n",
		stats.Extensions, stats.ExtensionCycles, stats.ReRuns)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
