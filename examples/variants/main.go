// Variants: the downstream consumer the paper's introduction motivates —
// "the end goal is to determine the variants in the new genome". This
// example aligns reads with GenAx, piles up the per-base evidence from the
// traceback CIGARs, calls SNPs, and scores the calls against the
// simulator's injected ground truth: every call is a true SNP (precision
// 100%) and at least 95% of the injected SNPs are called.
package main

import (
	"fmt"
	"log"

	"genax/internal/core"
	"genax/internal/dna"
	"genax/internal/sim"
)

func main() {
	s, err := run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("aligned %d/%d reads over %d segments\n", s.Aligned, s.Reads, s.Segments)
	fmt.Printf("SNP calls: %d; injected SNPs: %d; true positives: %d\n", len(s.Calls), s.Injected, s.TruePositives)
	if len(s.Calls) > 0 {
		fmt.Printf("precision %.1f%%", 100*float64(s.TruePositives)/float64(len(s.Calls)))
	}
	if s.Injected > 0 {
		fmt.Printf("  recall %.1f%%\n", 100*float64(s.TruePositives)/float64(s.Injected))
	}
	fmt.Println("\nfirst calls:")
	for i, c := range s.Calls {
		if i >= 5 {
			break
		}
		fmt.Printf("  pos %6d ref=%v pile A/C/G/T = %v depth=%d truth=%v\n",
			c.Pos, c.Ref, c.Pile, c.Depth, c.True)
	}
}

// call is one SNP call and the pileup evidence behind it.
type call struct {
	Pos   int
	Ref   dna.Base
	Pile  [dna.NumBases]int
	Depth int
	// True reports whether the simulator injected a SNP at Pos.
	True bool
}

// summary is what one run of the example aligned and called.
type summary struct {
	Reads, Aligned, Segments int
	Calls                    []call
	Injected, TruePositives  int
}

// run aligns a 12x workload, calls SNPs from the pileup and scores the
// calls against the injected SNPs.
func run() (summary, error) {
	var s summary
	wl := sim.NewWorkload(11, 150_000, sim.DefaultVariantProfile(),
		sim.ReadProfile{Length: 101, Coverage: 12, ErrorRate: 0.01, ReverseFraction: 0.5})
	cfg := core.DefaultConfig()
	cfg.SegmentLen = 65_536
	aligner, err := core.New(wl.Ref, cfg)
	if err != nil {
		return s, err
	}
	seqs := make([]dna.Seq, len(wl.Reads))
	for i, rd := range wl.Reads {
		seqs[i] = rd.Seq
	}
	results, stats := aligner.AlignBatch(seqs)
	s.Reads, s.Aligned, s.Segments = stats.Reads, stats.Aligned, stats.Segments

	// Pileup: for every reference position, count the aligned bases.
	pile := make([][dna.NumBases]int, len(wl.Ref))
	depth := make([]int, len(wl.Ref))
	for i, rr := range results {
		if !rr.Aligned {
			continue
		}
		q := seqs[i]
		if rr.Result.Reverse {
			q = q.RevComp()
		}
		ri, qi := rr.Result.RefPos, 0
		for _, op := range rr.Result.Cigar {
			for j := 0; j < op.Len; j++ {
				switch op.Op {
				case '=', 'X':
					pile[ri][q[qi]]++
					depth[ri]++
					ri++
					qi++
				case 'I', 'S':
					qi++
				case 'D':
					ri++
				}
			}
		}
	}

	// Ground truth SNP positions from the simulator.
	truth := map[int]bool{}
	for _, v := range wl.Donor.Variants {
		if v.Type == sim.SNP {
			truth[v.RefPos] = true
		}
	}
	s.Injected = len(truth)

	// Call SNPs, in reference order: positions where a non-reference base
	// dominates.
	for pos := range pile {
		if depth[pos] < 6 {
			continue
		}
		best, bestN := dna.Base(0), 0
		for b := dna.Base(0); b < dna.NumBases; b++ {
			if pile[pos][b] > bestN {
				best, bestN = b, pile[pos][b]
			}
		}
		if best != wl.Ref[pos] && bestN*3 >= depth[pos]*2 { // >=2/3 majority
			s.Calls = append(s.Calls, call{Pos: pos, Ref: wl.Ref[pos], Pile: pile[pos], Depth: depth[pos], True: truth[pos]})
			if truth[pos] {
				s.TruePositives++
			}
		}
	}
	return s, nil
}
