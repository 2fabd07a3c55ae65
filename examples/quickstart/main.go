// Quickstart: build a tiny synthetic genome, simulate Illumina-style
// reads, align them with the GenAx pipeline, and print SAM-like records —
// the five-minute tour of the public API. Every read aligns within 12 bp
// of the position it was simulated from.
package main

import (
	"fmt"
	"log"

	"genax/internal/core"
	"genax/internal/dna"
	"genax/internal/sim"
)

// near is how far from its true position an alignment may start and
// still count as correct.
const near = 12

func main() {
	s, err := run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reference: %d bp, reads: %d\n", s.RefLen, s.Stats.Reads)
	fmt.Printf("index: %d segments, k=%d, K(edit bound)=%d\n\n", s.Segments, s.KmerLen, s.K)
	for _, line := range s.First {
		fmt.Println(line)
	}
	fmt.Printf("\naligned %d/%d reads (%d exact fast-path), %d within %d bp of the true position\n",
		s.Stats.Aligned, s.Stats.Reads, s.Stats.ExactReads, s.Near, near)
	fmt.Printf("pipeline work: %d extensions, %d SillaX cycles, %d traceback re-runs\n",
		s.Stats.Extensions, s.Stats.ExtensionCycles, s.Stats.ReRuns)
}

// summary is what one run of the example aligned.
type summary struct {
	RefLen, Segments, KmerLen, K int
	// First holds the records of the first few reads.
	First []string
	// Near counts the reads aligned within near bp of their true position.
	Near  int
	Stats core.Stats
}

// run simulates the workload, aligns it as one batch and scores each
// alignment against the read's true position.
func run() (summary, error) {
	var s summary
	// 1. A synthetic reference with human-like variant density and 101 bp
	//    reads at 2% sequencing error — the paper's workload shape (§VII).
	wl := sim.NewWorkload(42, 100_000, sim.DefaultVariantProfile(),
		sim.ReadProfile{Length: 101, Coverage: 0.5, ErrorRate: 0.02, ReverseFraction: 0.5})
	s.RefLen = len(wl.Ref)

	// 2. A GenAx instance: per-segment k-mer tables plus SillaX lanes,
	// which extend on the bit-parallel Silla machine.
	cfg := core.DefaultConfig()
	cfg.SegmentLen = 32_768 // several segments even on a toy genome
	aligner, err := core.New(wl.Ref, cfg)
	if err != nil {
		return s, err
	}
	s.Segments, s.KmerLen, s.K = aligner.NumSegments(), cfg.KmerLen, cfg.K

	// 3. Align a batch (seeding -> SillaX extension with traceback).
	seqs := make([]dna.Seq, len(wl.Reads))
	for i, rd := range wl.Reads {
		seqs[i] = rd.Seq
	}
	results, stats := aligner.AlignBatch(seqs)
	s.Stats = stats

	// 4. Score every alignment and keep the first few records.
	for i, rr := range results {
		if rr.Aligned && abs(rr.Result.RefPos-wl.Reads[i].TruePos) <= near {
			s.Near++
		}
		if i < 8 {
			if rr.Aligned {
				s.First = append(s.First, fmt.Sprintf("%-12s %s", wl.Reads[i].ID, rr.Result))
			} else {
				s.First = append(s.First, fmt.Sprintf("%-12s unaligned", wl.Reads[i].ID))
			}
		}
	}
	return s, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
