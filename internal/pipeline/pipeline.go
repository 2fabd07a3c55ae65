// Package pipeline is the execution engine behind core.Aligner. The GenAx
// chip (§VI) decouples 128 seeding lanes from 4 SillaX lanes because they
// are different silicon; on a host every core can do both jobs, and a
// worker pinned to one stage idles whenever the other is the bottleneck.
// So the package runs one kind of worker, the fused lane: a seeder, a
// filter and an extension engine wired back to back around one lane-local
// candidate batch. The 128:4 geometry survives only as a model
// (SplitLanes, hw.SimulateLanes fed by the work trace).
//
// Reads are admitted in windows: the whole batch for AlignBatch, a
// bounded slice of the stream for AlignStream, one read for AlignRead.
// All three call runWindow, which checks lanes out of the Pipeline's free
// list and has each walk the reference segment by segment:
//
//	Acquire(s) → bind segment s → claim a chunk of reads off cursors[s]
//	  → seed both strands → filter (dedup, chain) → extend,
//	    merging into the window's slots → claim the next chunk …
//	→ barrier → Release(s) → segment s+1
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
package pipeline

import (
	"fmt"
	"runtime"
	"sync"

	"genax/internal/align"
	"genax/internal/dna"
	"genax/internal/seed"
)

// Chip lane counts (§VI): 128 seeding lanes feed 4 SillaX lanes.
const (
	ChipSeedLanes   = 128
	ChipExtendLanes = 4
)

// DefaultWindow bounds the reads a stream holds in flight per window.
const DefaultWindow = 1024

// DefaultChainMinLen is the read length at which anchor chaining kicks in
// when Params.ChainMinLen is zero: long enough that every short-read
// workload (~100-300 bp) is byte-identical with chaining compiled in, and
// well below the 10 kb+ reads whose per-locus anchor counts make the
// extension stage quadratic without it.
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

// Params configures a Pipeline.
type Params struct {
	// K is the SillaX edit bound (margin allowed around a read).
	K int
	// Scoring is the extension scheme.
	Scoring align.Scoring
	// Engine selects the extension engine ("" = EngineBitSilla).
	Engine Engine
	// Seeding carries the §V optimization switches.
	Seeding seed.Options
	// MinScore suppresses alignments below the reporting floor. The gate
	// is applied in exactly one place (finalizeSlot), after all segments
	// merged, for batch, stream and single-read paths alike.
	MinScore int
	// Workers is the number of fused lanes a window runs on
	// (0 = GOMAXPROCS); a window with fewer chunks than that uses one
	// lane per chunk.
	Workers int
	// ChainMinLen gates the filter stage's anchor-chaining pass: reads at
	// least this long have their per-(read, strand, segment) candidate
	// groups chained (internal/chain) and collapsed to one representative
	// per chain before extension. 0 applies DefaultChainMinLen — high
	// enough that short-read workloads are untouched byte for byte;
	// negative disables chaining entirely.
	ChainMinLen int
	// Window bounds reads in flight per AlignStream window (0 = DefaultWindow).
	Window int
	// Instrument, when non-nil, collects per-stage busy time. The
	// pipeline never reads a clock itself; bench code injects one (the
	// package stays on the determinism list).
	Instrument *Instrument
	// Residency, when non-nil, is notified as lanes enter and leave each
	// segment so a mapped index can bound how many shard groups are
	// resident at once (indexio.ShardResidency). Purely advisory for
	// correctness — results are byte-identical with or without it — it
	// exists to bound the working set when the index is larger than RAM.
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

// SplitLanes splits a lane budget in the chip's 128:4 seed:extend
// proportion, keeping at least one lane on each side; the chip's own
// budget of 132 maps exactly to (128, 4). It describes the chip, not the
// host: the hw lane model and utilization denominators use it, and it no
// longer schedules anything here — every host lane is fused.
func SplitLanes(budget int) (seedLanes, extendLanes int) {
	if budget < 1 {
		budget = 1
	}
	extendLanes = budget * ChipExtendLanes / (ChipSeedLanes + ChipExtendLanes)
	if extendLanes < 1 {
		extendLanes = 1
	}
	seedLanes = budget - extendLanes
	if seedLanes < 1 {
		seedLanes = 1
	}
	return seedLanes, extendLanes
}

// Pipeline is an aligner bound to one reference and its segmented index,
// safe for concurrent use. Its configuration is immutable after New; the
// only mutable state is the free lists below, so no call builds lanes or
// windows once the pipeline is warm.
type Pipeline struct {
	params Params
	ref    dna.Seq
	index  *seed.SegmentedIndex

	// mu guards the free lists. They are plain slices, not the sync
	// package's collector-emptied pool: a garbage collection must not
	// drop them, or every GC would cost a wide extension engine per lane
	// and peak memory would vary run to run.
	mu sync.Mutex
	// lanes holds idle fused lanes, at most Workers: more could not run
	// at once, so a burst's surplus is dropped on return.
	lanes []*lane
	// wins holds idle windows, at most Workers+1: one per call that can
	// make progress at once, plus the one a stream fills meanwhile.
	wins []*window
}

// New builds a Pipeline over ref and its index, resolving defaults. No
// lane is built until the first window runs. The index must have been
// built from ref.
func New(ref dna.Seq, index *seed.SegmentedIndex, p Params) (*Pipeline, error) {
	if p.K < 1 {
		return nil, fmt.Errorf("pipeline: edit bound %d must be positive", p.K)
	}
	if index == nil {
		return nil, fmt.Errorf("pipeline: nil segment index")
	}
	switch p.Engine {
	case "":
		p.Engine = EngineBitSilla
	case EngineBitSilla, EngineSillaX:
	default:
		return nil, fmt.Errorf("pipeline: unknown engine %q", p.Engine)
	}
	if p.Workers <= 0 {
		p.Workers = runtime.GOMAXPROCS(0)
	}
	if p.Window <= 0 {
		p.Window = DefaultWindow
	}
	if p.ChainMinLen == 0 {
		p.ChainMinLen = DefaultChainMinLen
	}
	return &Pipeline{params: p, ref: ref, index: index}, nil
}

// Params returns the resolved configuration.
func (p *Pipeline) Params() Params { return p.params }

// NumSegments returns the segment count of the bound index.
func (p *Pipeline) NumSegments() int { return p.index.NumSegments() }

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
