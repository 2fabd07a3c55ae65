package pipeline

import (
	"genax/internal/align"
	"genax/internal/extend"
)

// Stats aggregates pipeline work counters (the measured coefficients the
// hw throughput model consumes). Work counters are sums over lane-local
// tallies and are partition-independent: the same reads produce the same
// totals no matter how many lanes ran or how batches interleaved.
type Stats struct {
	// Reads, Aligned and ExactReads are per-window outcome tallies, folded
	// by window.emit as each window completes — never by merge,
	// which only folds lane-local work counters.
	//
	//genax:nomerge
	Reads, Aligned, ExactReads int
	// Segments is an identity of the index, set once per run, not a sum.
	//
	//genax:nomerge
	Segments                  int
	IndexLookups, CAMLookups  int64
	SeedsEmitted, HitsEmitted int64
	Extensions                int64
	ExtensionCycles           int64
	ReRuns                    int64
	// ChainGroups / ChainAnchors / ChainKept tally the long-read anchor
	// chaining stage: groups chained, anchors fed in, representatives kept.
	// Anchors minus kept is extension work avoided.
	ChainGroups, ChainAnchors, ChainKept int64
	// Routing is the cascade's per-leg histogram (extensions routed /
	// accepted / fell-through); all-zero for non-cascading engines.
	Routing extend.Routing
}

// ReadResult is the outcome for one read.
type ReadResult struct {
	Result  align.Result
	Aligned bool
}

// merge folds another stats block's work counters into t.
//
//genax:hotpath
func (t *Stats) merge(s Stats) {
	t.IndexLookups += s.IndexLookups
	t.CAMLookups += s.CAMLookups
	t.SeedsEmitted += s.SeedsEmitted
	t.HitsEmitted += s.HitsEmitted
	t.Extensions += s.Extensions
	t.ExtensionCycles += s.ExtensionCycles
	t.ReRuns += s.ReRuns
	t.ChainGroups += s.ChainGroups
	t.ChainAnchors += s.ChainAnchors
	t.ChainKept += s.ChainKept
	t.Routing.Merge(s.Routing)
}

// Merge folds another stats block's work counters into t. It is the
// exported face of the lane-stats fold so callers composing their own
// aggregation (bench, tests) share the one field list.
func (t *Stats) Merge(s Stats) { t.merge(s) }

// finalizeSlot converts a merged slot into the reported ReadResult. This
// is the single MinScore gate of the whole package: batch, stream and
// single-read paths all pass through here, so a sub-threshold alignment
// can never leak out of one path but not another.
//
//genax:hotpath
func finalizeSlot(sl *slot, minScore int) ReadResult {
	if !sl.aligned || sl.res.Score < minScore {
		return ReadResult{}
	}
	return ReadResult{Result: sl.res, Aligned: true}
}
