package pipeline

import "sync/atomic"

// StageMetrics accumulates one stage's activity. BusyNanos is wall time
// spent inside the stage's hot call (units are whatever the injected
// clock returns — nanoseconds with the usual wall clock); Batches and
// Items count processed batches and candidates.
type StageMetrics struct {
	BusyNanos atomic.Int64
	Batches   atomic.Int64
	Items     atomic.Int64
}

// record charges one processed batch to the stage.
func (m *StageMetrics) record(t0, t1, batches, items int64) {
	m.BusyNanos.Add(t1 - t0)
	m.Batches.Add(batches)
	m.Items.Add(items)
}

// AvgQueue reads 0: fused lanes hand a batch from stage to stage in
// place, so there is no inter-stage queue to sample. It is kept only
// because benchmark/ (which a change claiming a gain may not edit) still
// reports the staged pool's queue averages; it goes when those metrics do.
func (m *StageMetrics) AvgQueue() float64 { return 0 }

// Instrument collects per-stage metrics for a Pipeline. The pipeline
// itself never reads a clock (the package is on genaxvet's determinism
// list); callers inject one via Now — genax-bench passes a wall-clock
// reader, tests can pass a counter.
type Instrument struct {
	// Now returns the current time in nanoseconds. Nil disables timing
	// but still counts batches and items. Every lane calls it
	// concurrently, so it must be safe for concurrent use
	// (time.Now().UnixNano is; a test counter needs an atomic).
	Now func() int64

	Seed, Filter, Extend StageMetrics

	// IndexBuild charges table construction, which happens before the
	// pipeline exists; core.New records it via RecordIndexBuild.
	IndexBuild StageMetrics
}

// now tolerates a nil Instrument or a nil clock.
func (i *Instrument) now() int64 {
	if i == nil || i.Now == nil {
		return 0
	}
	return i.Now()
}

// ClockNow reads the injected clock, tolerating a nil Instrument or clock
// (both read as 0). It exists so code outside the pipeline — the index
// build in core.New — can time itself against the same clock the lanes
// use.
func (i *Instrument) ClockNow() int64 { return i.now() }

// RecordIndexBuild charges one index construction spanning [t0,t1] (clock
// units) covering segments segments. Safe on a nil Instrument.
func (i *Instrument) RecordIndexBuild(t0, t1 int64, segments int) {
	if i == nil {
		return
	}
	i.IndexBuild.record(t0, t1, 1, int64(segments))
}
