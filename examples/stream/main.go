// Stream: align reads through the streaming pipeline — reads go in
// on a channel, results come back on a channel in input order, and only a
// bounded window is ever in flight. This is the shape to use when the
// read set does not fit in memory (or arrives from a sequencer in real
// time); the results are byte-identical to AlignBatch on the same reads.
package main

import (
	"context"
	"fmt"
	"log"

	"genax/internal/core"
	"genax/internal/dna"
	"genax/internal/sim"
)

func main() {
	// 1. The same synthetic workload as the quickstart example.
	wl := sim.NewWorkload(42, 100_000, sim.DefaultVariantProfile(),
		sim.ReadProfile{Length: 101, Coverage: 0.5, ErrorRate: 0.02, ReverseFraction: 0.5})

	// 2. A GenAx instance with a small streaming window so several windows
	//    rotate through the pipeline even on this toy read set. Every
	//    window runs on cfg.Workers fused lanes (default GOMAXPROCS), each
	//    seeding, filtering and extending its share of the reads; the
	//    chip's 128:4 seeding:extension split (§VI) is different silicon,
	//    which a host core is not. Extension runs on the bit-parallel
	//    engine by default; cfg.Engine selects core.EngineSillaX or
	//    core.EngineBanded for byte-identical results from the cycle model
	//    or the software baseline.
	cfg := core.DefaultConfig()
	cfg.SegmentLen = 32_768
	cfg.StreamWindow = 64
	aligner, err := core.New(wl.Ref, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Feed reads into the pipeline from a producer goroutine. Closing
	//    the input channel is what ends the stream; cancel the context to
	//    abandon it early instead.
	in := make(chan dna.Seq)
	results, stats := aligner.AlignStream(context.Background(), in)
	go func() {
		defer close(in)
		for _, rd := range wl.Reads {
			in <- rd.Seq
		}
	}()

	// 4. Results arrive in input order as each window completes, so the
	//    consumer can zip them against the read metadata with a counter.
	aligned, i := 0, 0
	for rr := range results {
		if rr.Aligned {
			aligned++
			if aligned <= 5 {
				fmt.Printf("%-12s %s\n", wl.Reads[i].ID, rr.Result)
			}
		}
		i++
	}

	// 5. The stats pointer is valid once the result channel closes.
	fmt.Printf("\nstreamed %d reads, aligned %d (%d exact fast-path)\n",
		stats.Reads, stats.Aligned, stats.ExactReads)
	fmt.Printf("pipeline work: %d extensions, %d SillaX cycles\n",
		stats.Extensions, stats.ExtensionCycles)
}
