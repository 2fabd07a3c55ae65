package core

import "sync/atomic"

// StageMetrics accumulates one stage's activity. BusyNanos is wall time
// spent inside the stage's hot call (units are whatever the injected
// clock returns — nanoseconds with the usual wall clock).
type StageMetrics struct {
	BusyNanos atomic.Int64
}

// record charges one processed batch, from t0 to t1, to the stage.
func (m *StageMetrics) record(t0, t1 int64) { m.BusyNanos.Add(t1 - t0) }

// AvgQueue reads 0: fused lanes hand a batch from stage to stage in
// place, so there is no inter-stage queue to sample. It is kept only
// because benchmark/ (which a change claiming a gain may not edit) still
// reports the staged pool's queue averages; it goes when those metrics do.
func (m *StageMetrics) AvgQueue() float64 { return 0 }

// Instrument collects per-stage metrics for an Aligner. The aligner
// itself never reads a clock (the package is on genaxvet's determinism
// list); callers inject one via Now — the repository benchmark passes its
// tracer's clock, tests can pass a counter.
type Instrument struct {
	// Now returns the current time in nanoseconds; nil charges every
	// stage zero busy time. Every lane calls it concurrently, so it must
	// be safe for concurrent use (time.Now().UnixNano is; a test counter
	// needs an atomic).
	Now func() int64

	Seed, Filter, Extend StageMetrics
}

// now tolerates a nil Instrument or a nil clock.
func (i *Instrument) now() int64 {
	if i == nil || i.Now == nil {
		return 0
	}
	return i.Now()
}
