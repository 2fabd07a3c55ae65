package bench

import (
	"fmt"
	"strings"

	"genax/internal/bwamem"
	"genax/internal/core"
	"genax/internal/hw"
)

// ValidateResult is the §VIII-A concordance experiment: GenAx versus the
// BWA-MEM-like software pipeline on every read. The paper reports that all
// 351M non-exact reads concur with 0.0023% variance, with equal scores on
// the differing alignments.
type ValidateResult struct {
	Reads         int
	BothAligned   int
	OnlyOne       int
	EqualScore    int
	EqualPosition int
	ScoreVariance float64 // fraction of reads with differing scores
	TableIIRows   []hw.AreaRow
}

// Validate runs both pipelines over the workload.
func Validate(spec WorkloadSpec) ValidateResult {
	wl := spec.Build()
	reads := ReadSeqs(wl)
	cfg := CoreConfig(spec)
	aligner, err := core.New(wl.Ref, cfg)
	if err != nil {
		panic(err)
	}
	results, _ := aligner.AlignBatch(reads)
	bw := bwamem.New(wl.Ref, bwamem.Options{
		Scoring: cfg.Scoring, Band: cfg.K, MinSeedLen: cfg.Seeding.MinSeedLen,
		MaxHits: 512, MinScore: cfg.MinScore,
	})
	res := ValidateResult{Reads: len(reads), TableIIRows: hw.DefaultChip().AreaBreakdown()}
	for i, r := range reads {
		swRes, swOK := bw.Align(r)
		if swOK != results[i].Aligned {
			res.OnlyOne++
			continue
		}
		if !swOK {
			continue
		}
		res.BothAligned++
		if swRes.Score == results[i].Result.Score {
			res.EqualScore++
		}
		if swRes.RefPos == results[i].Result.RefPos && swRes.Reverse == results[i].Result.Reverse {
			res.EqualPosition++
		}
	}
	if res.BothAligned > 0 {
		res.ScoreVariance = float64(res.BothAligned-res.EqualScore+res.OnlyOne) / float64(res.Reads)
	}
	return res
}

// String renders the experiment.
func (r ValidateResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§VIII-A validation: GenAx vs BWA-MEM-like software pipeline\n")
	fmt.Fprintf(&b, "reads: %d; both aligned: %d; aligned by only one: %d\n", r.Reads, r.BothAligned, r.OnlyOne)
	fmt.Fprintf(&b, "equal scores:    %d/%d (%.4f%%)\n", r.EqualScore, r.BothAligned, 100*float64(r.EqualScore)/maxf(1, float64(r.BothAligned)))
	fmt.Fprintf(&b, "equal positions: %d/%d (position ties may map elsewhere with the same score)\n", r.EqualPosition, r.BothAligned)
	fmt.Fprintf(&b, "variance: paper 0.0023%% | measured %.4f%%\n", 100*r.ScoreVariance)
	return b.String()
}

// Table2String renders Table II from the hardware model.
func Table2String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II: GenAx area breakdown (28 nm model)\n")
	fmt.Fprintf(&b, "%-24s %12s %12s\n", "component", "model mm²", "paper mm²")
	paper := map[string]float64{
		"Seeding lanes": 4.224, "SillaX lanes": 5.36, "On-chip SRAM": 163.2, "Total": 172.78,
	}
	for _, row := range hw.DefaultChip().AreaBreakdown() {
		fmt.Fprintf(&b, "%-24s %12.3f %12.3f\n", row.Component, row.AreaMm2, paper[row.Component])
	}
	return b.String()
}
