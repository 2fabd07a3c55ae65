package bench

import (
	"fmt"
	"strings"
	"time"

	"genax/internal/align"
	"genax/internal/dna"
	"genax/internal/hw"
	"genax/internal/sillax"
	"genax/internal/sw"
)

// Fig14Result compares raw seed-extension throughput (Khits/s): the SillaX
// model against measured software baselines, anchored by the paper's bars.
type Fig14Result struct {
	// Measured on this machine (single Go thread).
	BandedSWKhits float64
	FullSWKhits   float64
	MyersKhits    float64 // edit distance only, no traceback
	// SillaX model: 4 lanes at 2 GHz retiring the measured average
	// cycles per traced extension.
	AvgExtensionCycles float64
	SillaXModelKhits   float64
	// Paper anchors.
	PaperSillaXKhits  float64
	PaperSeqAnKhits   float64
	PaperSWSharpKhits float64
}

// extPair is one (reference window, read) extension job.
type extPair struct{ ref, query dna.Seq }

func fig14Pairs(spec WorkloadSpec, n int) []extPair {
	wl := spec.Build()
	var pairs []extPair
	for _, rd := range wl.Reads {
		if len(pairs) >= n {
			break
		}
		q := rd.Seq
		if rd.Reverse {
			q = q.RevComp()
		}
		hi := rd.TruePos + len(q) + 40
		if hi > len(wl.Ref) {
			hi = len(wl.Ref)
		}
		pairs = append(pairs, extPair{wl.Ref[rd.TruePos:hi], q})
	}
	return pairs
}

// Fig14 measures each engine on the same 101 bp extension jobs.
func Fig14(spec WorkloadSpec, n int) Fig14Result {
	if n <= 0 {
		n = 2000
	}
	pairs := fig14Pairs(spec, n)
	sc := align.BWAMEMDefaults()

	rate := func(f func(p extPair)) float64 {
		start := time.Now()
		for _, p := range pairs {
			f(p)
		}
		el := time.Since(start).Seconds()
		if el <= 0 {
			return 0
		}
		return float64(len(pairs)) / el / 1e3
	}

	banded := sw.NewBandedAligner(sc, 40)
	full := sw.NewAligner(sc)
	tm := sillax.NewTracebackMachine(40, sc)

	res := Fig14Result{
		PaperSillaXKhits:  hw.SillaXPaperKHitsPerSec,
		PaperSeqAnKhits:   hw.SeqAnCPUKHitsPerSec,
		PaperSWSharpKhits: hw.SWSharpGPUKHitsPerSec,
	}
	res.BandedSWKhits = rate(func(p extPair) { banded.Extend(p.ref, p.query) })
	res.FullSWKhits = rate(func(p extPair) { full.Align(p.ref, p.query) })
	res.MyersKhits = rate(func(p extPair) { sw.MyersDistance(p.ref, p.query) })

	var cycles int64
	for _, p := range pairs {
		out := tm.Extend(p.ref, p.query)
		cycles += int64(out.Cycles)
	}
	res.AvgExtensionCycles = float64(cycles) / float64(len(pairs))
	res.SillaXModelKhits = hw.DefaultChip().SillaXRawThroughput(res.AvgExtensionCycles) / 1e3
	return res
}

// String renders the figure.
func (r Fig14Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 14: seed-extension throughput (Khits/s), 101 bp reads, K=40\n")
	fmt.Fprintf(&b, "%-28s %12s\n", "engine", "Khits/s")
	fmt.Fprintf(&b, "%-28s %12.1f   (measured, 1 Go thread)\n", "banded SW (SeqAn role)", r.BandedSWKhits)
	fmt.Fprintf(&b, "%-28s %12.1f   (measured, 1 Go thread)\n", "full SW", r.FullSWKhits)
	fmt.Fprintf(&b, "%-28s %12.1f   (measured, edit dist only)\n", "Myers bit-vector", r.MyersKhits)
	fmt.Fprintf(&b, "%-28s %12.1f   (model: 4 lanes @2GHz, %.0f cyc/hit)\n", "SillaX (4 lanes)", r.SillaXModelKhits, r.AvgExtensionCycles)
	fmt.Fprintf(&b, "paper: SillaX %.0fK | SeqAn-CPU %.0fK (62.9x under) | SW#-GPU %.1fK (5287x under)\n",
		r.PaperSillaXKhits/1e3*1e3/1e3, r.PaperSeqAnKhits, r.PaperSWSharpKhits)
	if r.BandedSWKhits > 0 {
		fmt.Fprintf(&b, "shape check: SillaX-model / banded-SW(1 thread) = %.0fx (paper: 62.9x over 28 cores ~= %.0fx over 1 core)\n",
			r.SillaXModelKhits/r.BandedSWKhits, 62.9*28.0)
	}
	return b.String()
}
