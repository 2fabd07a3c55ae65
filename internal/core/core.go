// Package core is the GenAx top level (§VI): it binds a reference and its
// per-segment tables to the execution engine in internal/pipeline, whose
// fused lanes stream the per-segment tables like the chip streams them
// into SRAM, and seed (package seed), filter and extend (package extend)
// each chunk of reads in place. This package is the stable API surface;
// the lanes, their free list, the segment barrier and result merging all
// live in internal/pipeline.
package core

import (
	"context"
	"fmt"

	"genax/internal/align"
	"genax/internal/dna"
	"genax/internal/hw"
	"genax/internal/pipeline"
	"genax/internal/seed"
)

// Stats aggregates pipeline work counters (the measured coefficients the
// hw throughput model consumes).
type Stats = pipeline.Stats

// ReadResult is the outcome for one read in a batch.
type ReadResult = pipeline.ReadResult

// Instrument collects per-stage busy time; see pipeline.Instrument.
type Instrument = pipeline.Instrument

// StageMetrics is one stage's share of an Instrument.
type StageMetrics = pipeline.StageMetrics

// Engine names the extension engine backing the extend lanes; see
// pipeline.Engine.
type Engine = pipeline.Engine

// Extension engine selectors.
const (
	// EngineBitSilla is the bit-parallel Silla machine (the default).
	EngineBitSilla = pipeline.EngineBitSilla
	// EngineSillaX is the cycle-level reference machine.
	EngineSillaX = pipeline.EngineSillaX
)

// Config parametrizes a GenAx instance.
type Config struct {
	// K is the SillaX edit bound (40 in the paper).
	K int
	// Scoring is the extension scheme (BWA-MEM defaults).
	Scoring align.Scoring
	// Engine selects the extension engine ("" = EngineBitSilla). The
	// cycle-level EngineSillaX stays available as the reference oracle
	// and for figure reproductions that need re-run accounting.
	Engine Engine
	// KmerLen is the index k-mer size (12 in the paper; smaller values
	// keep laptop-scale index tables dense).
	KmerLen int
	// SegmentLen cuts the reference for per-segment tables; Overlap must
	// cover readLen+K so no alignment straddles a boundary unseen.
	SegmentLen, Overlap int
	// Seeding carries the §V optimization switches.
	Seeding seed.Options
	// MinScore suppresses alignments below the BWA-MEM reporting floor.
	MinScore int
	// Workers is the number of fused lanes — each seeds, filters and
	// extends — a window of reads runs on (0 = GOMAXPROCS). Results and
	// work counters do not depend on it.
	Workers int
	// StreamWindow bounds reads in flight per AlignStream window
	// (0 = pipeline.DefaultWindow).
	StreamWindow int
	// Instrument, when non-nil, collects per-stage metrics.
	Instrument *Instrument
	// Index, when non-nil, is a prebuilt segmented index (typically loaded
	// from the on-disk cache via internal/indexio) used instead of building
	// tables from ref. Its geometry must match KmerLen, SegmentLen,
	// Overlap, and len(ref); New rejects mismatches so a stale cache can
	// never silently misalign reads.
	Index *seed.SegmentedIndex
	// Residency, when non-nil, lets a mapped index bound how many shard
	// groups of its tables are resident while the lanes walk the
	// segments (indexio.ShardResidency). Results are byte-identical with
	// or without it; see pipeline.Residency.
	Residency pipeline.Residency
}

// DefaultConfig mirrors the paper, scaled to a laptop-sized reference.
func DefaultConfig() Config {
	return Config{
		K:          40,
		Scoring:    align.BWAMEMDefaults(),
		KmerLen:    12,
		SegmentLen: 1 << 20,
		Overlap:    256,
		Seeding:    seed.DefaultOptions(),
		MinScore:   30,
	}
}

// Aligner is a GenAx instance bound to one reference.
type Aligner struct {
	cfg   Config
	ref   dna.Seq
	index *seed.SegmentedIndex
	pipe  *pipeline.Pipeline
}

// New builds the per-segment tables for ref and the pipeline over them.
func New(ref dna.Seq, cfg Config) (*Aligner, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("core: edit bound %d must be positive", cfg.K)
	}
	if cfg.SegmentLen < cfg.Overlap {
		return nil, fmt.Errorf("core: segment length %d below overlap %d", cfg.SegmentLen, cfg.Overlap)
	}
	idx := cfg.Index
	if idx != nil {
		switch {
		case idx.RefLen != len(ref):
			return nil, fmt.Errorf("core: prebuilt index covers %d bases, reference has %d", idx.RefLen, len(ref))
		case idx.SegLen != cfg.SegmentLen:
			return nil, fmt.Errorf("core: prebuilt index segment length %d, config wants %d", idx.SegLen, cfg.SegmentLen)
		case idx.Overlap != cfg.Overlap:
			return nil, fmt.Errorf("core: prebuilt index overlap %d, config wants %d", idx.Overlap, cfg.Overlap)
		case idx.K != cfg.KmerLen:
			return nil, fmt.Errorf("core: prebuilt index k-mer length %d, config wants %d", idx.K, cfg.KmerLen)
		}
	} else {
		built, err := seed.BuildSegmentedIndex(ref, cfg.SegmentLen, cfg.Overlap, cfg.KmerLen)
		if err != nil {
			return nil, err
		}
		idx = built
	}
	pipe, err := pipeline.New(ref, idx, pipeline.Params{
		K:          cfg.K,
		Scoring:    cfg.Scoring,
		Engine:     cfg.Engine,
		Seeding:    cfg.Seeding,
		MinScore:   cfg.MinScore,
		Workers:    cfg.Workers,
		Window:     cfg.StreamWindow,
		Instrument: cfg.Instrument,
		Residency:  cfg.Residency,
	})
	if err != nil {
		return nil, err
	}
	return &Aligner{cfg: cfg, ref: ref, index: idx, pipe: pipe}, nil
}

// Config returns the configuration.
func (a *Aligner) Config() Config { return a.cfg }

// Ref returns the reference.
func (a *Aligner) Ref() dna.Seq { return a.ref }

// NumSegments returns the segment count.
func (a *Aligner) NumSegments() int { return a.index.NumSegments() }

// Index returns the segmented index the aligner runs against — the one
// built by New or the prebuilt one passed via Config.Index. Callers (the
// index cache writer) must treat it as read-only: the pipeline's lanes
// borrow its tables concurrently.
func (a *Aligner) Index() *seed.SegmentedIndex { return a.index }

// AlignBatch maps all reads, processing the reference segment-major like
// the chip: for each segment, every read is seeded against that segment's
// tables and surviving hits are extended, keeping each read's best
// alignment across segments.
func (a *Aligner) AlignBatch(reads []dna.Seq) ([]ReadResult, Stats) {
	return a.pipe.AlignBatch(reads)
}

// AlignBatchTraced is AlignBatch plus the per-(read,segment) work items
// consumed by hw.SimulateLanes (the Fig 11 lane-scheduling model).
func (a *Aligner) AlignBatchTraced(reads []dna.Seq) ([]ReadResult, Stats, []hw.LaneWork) {
	return a.pipe.AlignBatchTraced(reads)
}

// AlignStream maps reads arriving on in, emitting results in input order
// with a bounded window of reads in flight; see pipeline.AlignStream.
func (a *Aligner) AlignStream(ctx context.Context, in <-chan dna.Seq) (<-chan ReadResult, *Stats) {
	return a.pipe.AlignStream(ctx, in)
}

// AlignRead maps a single read (both strands, all segments) as a
// one-read window on one lane, inline on the caller's goroutine.
func (a *Aligner) AlignRead(read dna.Seq) (align.Result, bool) {
	return a.pipe.AlignRead(read)
}
