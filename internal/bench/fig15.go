package bench

import (
	"fmt"
	"strings"
	"time"

	"genax/internal/bwamem"
	"genax/internal/core"
	"genax/internal/hw"
)

// Fig15Result is the end-to-end comparison: GenAx model throughput versus
// the measured software pipeline and the paper's published bars, plus the
// Fig 15b power comparison.
type Fig15Result struct {
	// Profile measured from the pipeline simulation.
	Profile hw.PipelineProfile
	Stats   core.Stats
	// Model output at paper scale (787,265,109 reads, 512 segments).
	Model hw.ThroughputReport
	// Software baseline measured in Go on this machine, single thread,
	// and its extrapolation to the paper's 56 threads.
	SWReadsPerSec   float64
	SW56ReadsPerSec float64
	// Power (Fig 15b).
	GenAxPowerW float64
	// Lanes is the Fig 11 scheduling simulation at measured scale.
	Lanes hw.LaneReport
}

// Fig15 runs the GenAx pipeline simulation to extract the per-read work
// coefficients, feeds them to the hardware throughput model, and measures
// the software baseline on the same reads.
func Fig15(spec WorkloadSpec) Fig15Result {
	wl := spec.Build()
	reads := ReadSeqs(wl)
	cfg := CoreConfig(spec)
	// The throughput model consumes cycles-per-extension including the
	// §IV-C re-runs, which only the cycle-level machine counts.
	cfg.Engine = core.EngineSillaX
	aligner, err := core.New(wl.Ref, cfg)
	if err != nil {
		panic(err)
	}
	_, stats, work := aligner.AlignBatchTraced(reads)

	nonExact := float64(stats.Reads - stats.ExactReads)
	if nonExact < 1 {
		nonExact = 1
	}
	// Seeding cost splits into "miss" segments — the read's k-mers find
	// nothing, costing one index lookup for the first exact-path window
	// plus one per RMEM pivot, on both strands — and the (roughly one)
	// "hit" segment carrying all the CAM work. Measuring at our small
	// segment count and separating the two lets the model extrapolate to
	// the paper's 512 segments without inflating the miss cost.
	missOps := 2 * float64(spec.ReadLen-cfg.KmerLen+2)
	totalOpsPerRead := float64(stats.IndexLookups+stats.CAMLookups) / float64(stats.Reads)
	hitOps := totalOpsPerRead - float64(stats.Segments-1)*missOps
	if hitOps < missOps {
		hitOps = missOps
	}
	chip := hw.DefaultChip()
	paperSegs := float64(chip.SegmentCount)
	prof := hw.PipelineProfile{
		ReadLen:                  spec.ReadLen,
		ExactFraction:            float64(stats.ExactReads) / float64(stats.Reads),
		SeedingOpsPerReadSegment: ((paperSegs-1)*missOps + hitOps) / paperSegs,
		ExtensionsPerRead:        float64(stats.Extensions) / nonExact,
		ExtensionCycles:          float64(stats.ExtensionCycles) / maxf(1, float64(stats.Extensions)),
	}
	model := chip.Throughput(prof, 787265109)

	// Software baseline on the same workload.
	bw := bwamem.New(wl.Ref, bwamem.Options{
		Scoring: cfg.Scoring, Band: cfg.K, MinSeedLen: cfg.Seeding.MinSeedLen,
		MaxHits: 512, MinScore: cfg.MinScore,
	})
	n := len(reads)
	if n > 2000 {
		n = 2000
	}
	start := time.Now()
	for _, r := range reads[:n] {
		bw.Align(r)
	}
	el := time.Since(start).Seconds()
	swRate := float64(n) / el

	return Fig15Result{
		Profile:         prof,
		Stats:           stats,
		Model:           model,
		SWReadsPerSec:   swRate,
		SW56ReadsPerSec: swRate * 28, // two 14-core sockets, HT discounted
		GenAxPowerW:     chip.TotalPowerW(),
		Lanes:           hw.SimulateLanes(chip, work),
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// String renders the figure.
func (r Fig15Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 15a: end-to-end read-alignment throughput (KReads/s)\n")
	fmt.Fprintf(&b, "measured pipeline profile: exact=%.1f%%, seedOps/read/segment=%.1f, ext/read=%.2f, cyc/ext=%.0f\n",
		100*r.Profile.ExactFraction, r.Profile.SeedingOpsPerReadSegment, r.Profile.ExtensionsPerRead, r.Profile.ExtensionCycles)
	fmt.Fprintf(&b, "%-24s %14s\n", "system", "KReads/s")
	fmt.Fprintf(&b, "%-24s %14.0f   (model at paper scale; bottleneck: %s)\n", "GenAx (model)", r.Model.ReadsPerSec/1e3, r.Model.Bottleneck)
	fmt.Fprintf(&b, "%-24s %14.0f   (paper)\n", "GenAx (paper)", hw.GenAxPaperReadsPerSec/1e3)
	fmt.Fprintf(&b, "%-24s %14.2f   (measured, 1 Go thread)\n", "BWA-MEM-like (Go)", r.SWReadsPerSec/1e3)
	fmt.Fprintf(&b, "%-24s %14.1f   (x28 cores extrapolation)\n", "BWA-MEM-like (28 core)", r.SW56ReadsPerSec/1e3)
	fmt.Fprintf(&b, "%-24s %14.1f   (paper)\n", "BWA-MEM Xeon (paper)", hw.BWAMEMXeonReadsPerSec/1e3)
	fmt.Fprintf(&b, "%-24s %14.1f   (paper)\n", "CUSHAW2-GPU (paper)", hw.CUSHAW2GPUReadsPerSec/1e3)
	fmt.Fprintf(&b, "speedup GenAx-model / software(28-core extrapolated): %.1fx (paper: 31.7x)\n",
		r.Model.ReadsPerSec/maxf(1, r.SW56ReadsPerSec))
	fmt.Fprintf(&b, "model time budget: seeding %.0fs, extension %.0fs, tables %.1fs, reads %.0fs, total %.0fs\n",
		r.Model.SeedingSec, r.Model.ExtensionSec, r.Model.TableLoadSec, r.Model.ReadLoadSec, r.Model.TotalSec)
	fmt.Fprintf(&b, "lane schedule (Fig 11, measured scale): seeding lanes %.0f%% busy, SillaX lanes %.0f%% busy, bottleneck %s\n",
		100*r.Lanes.SeedUtilization, 100*r.Lanes.ExtUtilization, r.Lanes.Bottleneck)
	fmt.Fprintf(&b, "  (at our %d segments every pass is hit-dense; at the paper's 512 segments\n", r.Stats.Segments)
	fmt.Fprintf(&b, "   miss passes dominate seeding and the chip is seeding-bound, per the model above)\n")
	fmt.Fprintf(&b, "\nFigure 15b: power (W)\n")
	fmt.Fprintf(&b, "%-24s %8.1f   (model; paper implies ~%.1f)\n", "GenAx", r.GenAxPowerW, hw.XeonPowerW/12)
	fmt.Fprintf(&b, "%-24s %8.1f   (paper RAPL)\n", "Xeon E5 (BWA-MEM)", hw.XeonPowerW)
	fmt.Fprintf(&b, "%-24s %8.1f   (paper)\n", "TITAN Xp (CUSHAW2)", hw.TitanXpPowerW)
	fmt.Fprintf(&b, "power reduction vs CPU: %.1fx (paper: 12x)\n", hw.XeonPowerW/r.GenAxPowerW)
	return b.String()
}
