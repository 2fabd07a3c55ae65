// Package core is the GenAx top level (§VI): an Aligner binds a reference
// and its per-segment tables to fused lanes that stream those tables like
// the chip streams them into SRAM, and seed (package seed), filter and
// extend (package extend) each chunk of reads in place. The chip
// decouples 128 seeding lanes from 4 SillaX lanes because they are
// different silicon; on a host every core can do both jobs, and a worker
// pinned to one stage idles whenever the other is the bottleneck. So the
// package runs one kind of worker, the fused lane: a seeder, a filter and
// an extension engine wired back to back around one lane-local candidate
// batch. The 128:4 geometry survives only as a model (pipeline.SplitLanes,
// hw.SimulateLanes fed by the work trace).
//
// Reads are admitted in windows: the whole batch for AlignBatch, a
// bounded slice of the stream for AlignStream, one read for AlignRead.
// All three call runWindow, which checks lanes out of the Aligner's free
// list and has each walk the reference segment by segment:
//
//	Acquire(s) → bind segment s → claim a chunk of reads off cursors[s]
//	  → seed both strands of each live read → filter (dedup, chain)
//	  → extend, merging into the window's slots → claim the next chunk …
//	→ barrier → Release(s) → segment s+1
//
// A read stays live until a segment resolves it by the exact-match fast
// path (§V); no later segment can change that answer, so none seeds it.
//
// The barrier between segments is the chip's table-streaming boundary. It
// gives every result slot a single writer at a time (one claimant per
// chunk per segment, segments ordered by the barrier) and lets a mapped
// index retire a shard group the moment its last segment drains. Memory
// in flight is bounded by construction: one batch per lane, two windows
// per stream.
//
// Determinism holds by construction, not by ordering: every candidate
// carries a canonical rank (segment-major, forward strand before reverse,
// emission order within a batch), and a candidate replaces the incumbent
// best alignment only if it scores strictly better under align.Result's
// total order or ties it with a lower rank. That merge is associative and
// commutative, so any assignment of chunks to lanes reproduces the
// one-lane sequential loop byte for byte. The package is on genaxvet's
// determinism list: no map iteration, wall-clock reads, or multi-channel
// selects — every channel operation is a single blocking send or receive.
package core

import (
	"fmt"
	"runtime"
	"sync"

	"genax/internal/align"
	"genax/internal/dna"
	"genax/internal/seed"
)

// DefaultWindow bounds the reads a stream holds in flight per window.
const DefaultWindow = 1024

// DefaultChainMinLen is the read length at which anchor chaining kicks
// in: long enough that every short-read workload (~100-300 bp) is
// byte-identical with chaining compiled in, and well below the 10 kb+
// reads whose per-locus anchor counts make the extension stage quadratic
// without it.
const DefaultChainMinLen = 1000

// Engine names the extension engine backing the extend lanes. Both
// engines produce full-query cigars through the same extend.Stitcher and
// are byte-identical to one another by construction.
type Engine string

const (
	// EngineBitSilla is the bit-parallel Silla machine — the production
	// default: same observable semantics as the cycle model at
	// word-parallel speed.
	EngineBitSilla Engine = "bitsilla"
	// EngineSillaX is the cycle-level SillaX traceback machine, kept as
	// the reference oracle and for hardware figure reproductions that
	// need per-cycle re-run accounting.
	EngineSillaX Engine = "sillax"
)

// Config parametrizes a GenAx instance.
type Config struct {
	// K is the SillaX edit bound (40 in the paper): the margin allowed
	// around a read.
	K int
	// Scoring is the extension scheme (BWA-MEM defaults).
	Scoring align.Scoring
	// Engine selects the extension engine ("" = EngineBitSilla).
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
	// The gate is applied in exactly one place (finalizeSlot), after all
	// segments merged, for batch, stream and single-read paths alike.
	MinScore int
	// Workers is the number of fused lanes — each seeds, filters and
	// extends — a window of reads runs on (0 = GOMAXPROCS); a window with
	// fewer chunks than that uses one lane per chunk. Results and work
	// counters do not depend on it.
	Workers int
	// StreamWindow bounds reads in flight per AlignStream window
	// (0 = DefaultWindow).
	StreamWindow int
	// Instrument, when non-nil, collects per-stage busy time. The aligner
	// never reads a clock itself; the caller injects one.
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
	// or without it.
	Residency Residency
}

// Residency is the segment-residency protocol: Acquire(seg) is called by
// each lane before it binds segment seg's tables, Release(seg) after the
// per-segment barrier. Acquire may block to bound the number of
// simultaneously resident segment groups; Release must never block.
// Implementations must tolerate every lane calling both for every
// segment, in ascending segment order per window. A stream executes one
// window at a time, so a bound of one resident group stays live.
type Residency interface {
	Acquire(seg int)
	Release(seg int)
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

// Aligner is a GenAx instance bound to one reference and its segmented
// index, safe for concurrent use. Its configuration is immutable after
// New; the only mutable state is the free lists below, so no call builds
// lanes or windows once the aligner is warm.
type Aligner struct {
	cfg Config
	ref dna.Seq
	// chainMin gates the filter stage's anchor-chaining pass: reads at
	// least this long have their per-(read, strand, segment) candidate
	// groups chained (internal/chain) and collapsed to one representative
	// per chain before extension. New sets DefaultChainMinLen; tests set
	// it negative, before the first call, to disable chaining.
	chainMin int

	// mu guards the free lists and host. The lists are plain slices, not
	// the sync package's collector-emptied pool: a garbage collection
	// must not drop them, or every GC would cost a wide extension engine
	// per lane and peak memory would vary run to run.
	mu sync.Mutex
	// lanes holds idle fused lanes, at most Workers: more could not run
	// at once, so a burst's surplus is dropped on return.
	lanes []*lane
	// wins holds idle windows, at most Workers+1: one per call that can
	// make progress at once, plus the one a stream fills meanwhile.
	wins []*window
	// host sums the lanes' host seeding counters, folded in at checkin.
	host HostSeeding
}

// New resolves cfg's defaults and builds the per-segment tables for ref,
// or checks that cfg.Index was built from a reference of ref's length
// with cfg's geometry. No lane is built until the first window runs.
func New(ref dna.Seq, cfg Config) (*Aligner, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("core: edit bound %d must be positive", cfg.K)
	}
	if cfg.SegmentLen < cfg.Overlap {
		return nil, fmt.Errorf("core: segment length %d below overlap %d", cfg.SegmentLen, cfg.Overlap)
	}
	switch cfg.Engine {
	case "":
		cfg.Engine = EngineBitSilla
	case EngineBitSilla, EngineSillaX:
	default:
		return nil, fmt.Errorf("core: unknown engine %q", cfg.Engine)
	}
	if idx := cfg.Index; idx != nil {
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
		cfg.Index = built
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.StreamWindow <= 0 {
		cfg.StreamWindow = DefaultWindow
	}
	return &Aligner{cfg: cfg, ref: ref, chainMin: DefaultChainMinLen}, nil
}

// Config returns the resolved configuration: Engine, Workers,
// StreamWindow and Index are the values the aligner runs with.
func (a *Aligner) Config() Config { return a.cfg }

// Ref returns the reference.
func (a *Aligner) Ref() dna.Seq { return a.ref }

// NumSegments returns the segment count.
func (a *Aligner) NumSegments() int { return a.cfg.Index.NumSegments() }

// HostSeeding returns the host seeding counters of every window the
// aligner has completed since New.
func (a *Aligner) HostSeeding() HostSeeding {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.host
}

// Index returns the segmented index the aligner runs against — the one
// built by New or the prebuilt one passed via Config.Index. Callers (the
// index cache writer) must treat it as read-only: the lanes borrow its
// tables concurrently.
func (a *Aligner) Index() *seed.SegmentedIndex { return a.cfg.Index }

// claimChunk sizes the work-claiming granule: small enough that one lane
// stuck on expensive reads cannot strand a long tail behind it at the
// segment barrier, large enough that the atomic cursor stays uncontended.
//
//genax:hotpath
func claimChunk(reads, workers int) int64 {
	c := reads / (workers * 8)
	if c < 1 {
		c = 1
	}
	if c > 32 {
		c = 32
	}
	return int64(c)
}

// barrier is a reusable synchronization point: every party blocks in await
// until all parties of the current generation have arrived, then all are
// released together. A window places one between segments so no lane
// starts claiming segment s+1 while another still works on s — exactly
// the chip's table-streaming boundary.
type barrier struct {
	mu      sync.Mutex
	cond    sync.Cond
	parties int
	arrived int
	gen     int
}

// reset sizes an idle barrier (no party inside await) for the next run.
func (b *barrier) reset(parties int) {
	b.cond.L = &b.mu
	b.parties = parties
}

//genax:hotpath
func (b *barrier) await() {
	b.mu.Lock()
	gen := b.gen
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		for gen == b.gen {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}
