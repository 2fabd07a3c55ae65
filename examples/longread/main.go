// Longread: kilobase reads end to end on the multi-word fast path.
//
// PR 9 made K > 63 first-class: score planes striped across
// ⌈(K+1)/64⌉ machine words (each word a composed "tile", cross-word
// shifts the §IV-D mux crossings), witness- and suffix-bound pruning
// that keeps the live set to a corridor around the true alignment, and
// an anchor-chaining stage that collapses a long read's many seed hits
// into a handful of extensions. This example runs a long-read workload
// through the full pipeline at K=80 and then puts one kilobase
// extension on the wide datapath next to the cycle-level oracle it is
// byte-identical to.
package main

import (
	"fmt"
	"time"

	"genax/internal/align"
	"genax/internal/bitsilla"
	"genax/internal/core"
	"genax/internal/dna"
	"genax/internal/sillax"
	"genax/internal/sim"
)

func main() {
	// A small long-read workload: 1.2 kb mean reads at 2% error with a
	// heavy indel fraction — the regime that needs an edit budget far
	// past 63, the largest K whose grid rows fit one word.
	const k = 80
	wl := sim.NewLongReadWorkload(9, 40_000, sim.DefaultVariantProfile(),
		sim.LongReadProfile{MeanLength: 1200, Coverage: 0.3, ErrorRate: 0.02,
			IndelErrorFrac: 0.3, ReverseFraction: 0.5})
	reads := make([]dna.Seq, len(wl.Reads))
	for i, r := range wl.Reads {
		reads[i] = r.Seq
	}

	cfg := core.DefaultConfig()
	cfg.K = k
	cfg.KmerLen = 12
	cfg.SegmentLen = 10_000
	cfg.Overlap = 3*1200/2 + k + 16
	cfg.Engine = core.EngineBitSilla
	aligner, err := core.New(wl.Ref, cfg)
	if err != nil {
		panic(err)
	}
	t0 := time.Now()
	results, stats := aligner.AlignBatch(reads)
	wall := time.Since(t0)
	aligned := 0
	for _, rr := range results {
		if rr.Aligned {
			aligned++
		}
	}
	fmt.Printf("pipeline: %d reads (mean 1200 bp), K=%d, %v wall\n", len(reads), k, wall.Round(time.Millisecond))
	fmt.Printf("aligned %d/%d; anchor chaining collapsed %d anchors into %d extensions\n",
		aligned, len(reads), stats.ChainAnchors, stats.ChainKept)

	// One extension, wide datapath vs the cycle-level oracle: same score,
	// same CIGAR, orders of magnitude apart in time. The wide machine also
	// counts its cross-word shifts — the mux crossings a composed SillaX
	// die would pay for the same K (sillax.TileArray.Compose).
	sc := align.BWAMEMDefaults()
	var query dna.Seq
	var refPos int
	for _, r := range wl.Reads {
		if !r.Reverse {
			query, refPos = r.Seq, r.TruePos
			break
		}
	}
	end := refPos + len(query) + k
	if end > len(wl.Ref) {
		end = len(wl.Ref)
	}
	ref := wl.Ref[refPos:end]

	wide := bitsilla.New(k, sc)
	t0 = time.Now()
	wres := wide.Extend(ref, query)
	wideT := time.Since(t0)

	oracle := sillax.NewScoringMachine(k, sc)
	t0 = time.Now()
	ores := oracle.Extend(ref, query)
	oracleT := time.Since(t0)

	fmt.Printf("\none %d bp extension at K=%d:\n", len(query), k)
	fmt.Printf("  wide bitsilla  %12v  score=%d  mux crossings=%d\n", wideT.Round(time.Microsecond), wres.Score, wres.MuxCrossings)
	fmt.Printf("  sillax oracle  %12v  score=%d\n", oracleT.Round(time.Microsecond), ores.Score)
	if wres.Score != ores.Score {
		fmt.Println("  MISMATCH — the engines must agree byte for byte")
		return
	}
	fmt.Println("  identical scores; the wide path is the same machine,")
	fmt.Println("  striped across words like §IV-D stripes one engine across tiles.")
}
