package core

import (
	"genax/internal/align"
	"genax/internal/seed"
)

// Stats aggregates the lanes' work counters (the measured coefficients the
// hw throughput model consumes). Work counters are sums over lane-local
// tallies and are partition-independent: the same reads produce the same
// totals no matter how many lanes ran or how batches interleaved.
type Stats struct {
	// Reads, Aligned and ExactReads are per-window outcome tallies, folded
	// by window.emit as each window completes — never by merge,
	// which only folds lane-local work counters (TestStatsMergeFields).
	Reads, Aligned, ExactReads int
	// Segments is an identity of the index, set once per run, not a sum.
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
}

// HostSeeding counts the host's own seeding work (seed.HostStats): rows
// loaded into the window state, spans resolved, and (read, strand,
// segment) seedings skipped because the segment holds none of the read's
// windows. It sits beside Stats, not in it: Stats holds the chip's
// counters, which the hardware model consumes, and these have no chip
// counterpart. Like Stats they do not depend on Workers.
// Aligner.HostSeeding returns the totals since New.
type HostSeeding struct {
	RowLoads, SpanResolves, SegmentsSkipped int64
}

// add folds one lane's counters into t.
func (t *HostSeeding) add(s seed.HostStats) {
	t.RowLoads += int64(s.RowLoads)
	t.SpanResolves += int64(s.SpanResolves)
	t.SegmentsSkipped += int64(s.SegmentsSkipped)
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
