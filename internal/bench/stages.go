package bench

import (
	"fmt"
	"strings"
	"time"

	"genax/internal/core"
)

// StageRow is one pipeline stage's share of a StageBreakdown.
type StageRow struct {
	Name      string
	Busy      time.Duration
	BusyShare float64 // fraction of summed stage busy time
	Batches   int64
	Items     int64 // candidates seeded / surviving / extended
}

// StageBreakdown reports per-stage busy time for one aligned workload —
// the software mirror of the paper's Fig 11 discussion of seeding-lane vs
// SillaX-lane utilization.
type StageBreakdown struct {
	Reads  int
	Total  time.Duration // wall clock of the whole AlignBatch
	Stages []StageRow
	// IndexBuild is segmented-index construction time, spent before the
	// pipeline ran (not part of Total).
	IndexBuild    time.Duration
	IndexSegments int64
	// ChainGroups/ChainAnchors/ChainKept report the long-read anchor
	// chaining collapse; all-zero (and omitted) for short-read workloads.
	ChainGroups, ChainAnchors, ChainKept int64
}

func (b StageBreakdown) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pipeline stage breakdown (%d reads, wall %v)\n", b.Reads, b.Total.Round(time.Millisecond))
	fmt.Fprintf(&sb, "index build %v (%d segments, before the pipeline)\n",
		b.IndexBuild.Round(time.Microsecond), b.IndexSegments)
	fmt.Fprintf(&sb, "%-8s %12s %6s %9s %9s\n", "stage", "busy", "share", "batches", "items")
	for _, r := range b.Stages {
		fmt.Fprintf(&sb, "%-8s %12v %5.1f%% %9d %9d\n",
			r.Name, r.Busy.Round(time.Microsecond), 100*r.BusyShare, r.Batches, r.Items)
	}
	if b.ChainGroups > 0 {
		fmt.Fprintf(&sb, "anchor chaining: %d groups, %d anchors -> %d extensions kept\n",
			b.ChainGroups, b.ChainAnchors, b.ChainKept)
	}
	return strings.TrimSuffix(sb.String(), "\n")
}

// Stages runs the workload through an instrumented aligner and returns the
// per-stage breakdown. The pipeline itself never reads a clock (it is on
// genaxvet's determinism list); the wall-clock reader is injected here.
func Stages(spec WorkloadSpec) (StageBreakdown, error) {
	wl := spec.Build()
	reads := ReadSeqs(wl)
	cfg := CoreConfig(spec)
	inst := &core.Instrument{Now: func() int64 { return time.Now().UnixNano() }}
	cfg.Instrument = inst
	aligner, err := core.New(wl.Ref, cfg)
	if err != nil {
		return StageBreakdown{}, err
	}
	start := time.Now()
	res, stats := aligner.AlignBatch(reads)
	if len(res) != len(reads) {
		return StageBreakdown{}, fmt.Errorf("bench: AlignBatch dropped reads")
	}
	out := StageBreakdown{
		Reads:         len(reads),
		Total:         time.Since(start),
		IndexBuild:    time.Duration(inst.IndexBuild.BusyNanos.Load()),
		IndexSegments: inst.IndexBuild.Items.Load(),
		ChainGroups:   stats.ChainGroups,
		ChainAnchors:  stats.ChainAnchors,
		ChainKept:     stats.ChainKept,
	}
	rows := []struct {
		name string
		m    *core.StageMetrics
	}{
		{"seed", &inst.Seed},
		{"filter", &inst.Filter},
		{"extend", &inst.Extend},
	}
	var busyTotal int64
	for _, r := range rows {
		busyTotal += r.m.BusyNanos.Load()
	}
	for _, r := range rows {
		busy := r.m.BusyNanos.Load()
		share := 0.0
		if busyTotal > 0 {
			share = float64(busy) / float64(busyTotal)
		}
		out.Stages = append(out.Stages, StageRow{
			Name:      r.name,
			Busy:      time.Duration(busy),
			BusyShare: share,
			Batches:   r.m.Batches.Load(),
			Items:     r.m.Items.Load(),
		})
	}
	return out, nil
}
