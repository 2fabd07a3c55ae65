// Package bitsilla is the bit-parallel rendering of the SillaX traceback
// machine (§IV): the same bounded-edit clipped extension with affine-gap
// scoring and a full-query CIGAR, but with the PE grid's activations and
// comparator outputs packed into uint64 words, so a cycle touches only the
// live sites of the grid instead of all (K+1)² scalar registers. GenASM
// and Scrooge demonstrated that edit-automaton semantics collapse into
// word-parallel bit-vector updates; this package applies the idiom to the
// paper's three-dimensional (i, d, substitution-layer) state space.
//
// There is one datapath for every edit bound. Each grid row's diagonal
// offsets are striped across nw = ⌈(K+1)/64⌉ words (wide.go): K ≤ MaxWordK
// is the one-word instance, and every word past the first is one §IV-D tile
// of a composed engine, its boundary crossings counted as mux crossings.
// Ahead of the grid, one diagonal scan certifies the answer outright when
// the best extension is provably gapless and unique (gapless.go).
//
// The engine is byte-identical to sillax.TracebackMachine by construction:
//
//   - Score registers live exactly one machine cycle (the cycle model wipes
//     its next-planes every swap), so a register's writer is uniquely named
//     by (cycle, i, d, plane). bitsilla stores each write's 2-bit source
//     code in two packed bit-planes per step — a time-indexed trail that
//     later overwrites cannot corrupt, which is why traceback here never
//     re-executes for correctness (the §IV-C broken-trail re-runs are a
//     property of the chip's in-place 2-bit pointers, not of the alignment
//     semantics).
//   - Same-cycle write races resolve by the same strict-greater compares in
//     the same order as the cycle model, so every tie breaks identically.
//   - Offers that cannot reach the pass's final score are dropped. One
//     backward bound pass (widebound.go) certifies a lower bound L on that
//     score and an upper bound on what each position can still add; an
//     offer whose completion bound falls below L can neither set the best
//     nor lie on its traceback chain, so dropping it is unobservable. The
//     cycle model streams those states anyway; dropping them leaves about
//     one live site per cycle on a well-matching read. The pass fills only
//     the diagonals that a path scoring at least the gapless witness can
//     reach (the score band, widebound.go).
//
// Machines are not safe for concurrent use; allocate one per lane.
package bitsilla

import (
	"genax/internal/align"
	"genax/internal/dna"
	"genax/internal/sillax"
)

// MaxWordK is the largest edit bound whose grid rows fit one uint64: all
// K+1 diagonal offsets in a single word, so no shift crosses a word
// boundary and MuxCrossings stays zero.
const MaxWordK = 63

// Register planes. Layer l's closed/insertion/deletion planes are
// 3l, 3l+1, 3l+2; pWT is the collapsed wait state of the merged
// two-substitution path (Fig 6).
const (
	pM0 = iota
	pI0
	pD0
	pM1
	pI1
	pD1
	pWT
	numPlanes
)

// planeWords is the trail stride per (cycle, row, word): two code-bit
// words (lo, hi) for each plane.
const planeWords = 2 * numPlanes

// codeWait is the trail code of a wait-state delivery into a layer-0
// closed register; codes 0..2 name the m/i/d source register.
const codeWait = 3

const negScore = sillax.Neg

// Result is the outcome of one bit-parallel seed extension. It matches
// sillax.TracebackResult field for field where the semantics overlap;
// re-run accounting does not exist here (the time-indexed trail cannot
// break), so Cycles is the five-phase architectural count without the
// re-execution term — figure reproductions that need re-run statistics
// keep using the cycle model.
type Result struct {
	// Score is the best clipped extension score.
	Score int
	// Cigar is the full edit trace including the trailing soft clip.
	Cigar align.Cigar
	// QueryLen and RefLen are the consumed prefix lengths.
	QueryLen, RefLen int
	// Cycles is the architectural cycle count (streaming phase plus the
	// 4K traceback phases of §IV-C, without re-runs).
	Cycles int
	// MuxCrossings counts accepted writes whose d+1 shift crossed a
	// 64-bit word boundary — signals through the §IV-D reconfiguration
	// muxes, the software twin of sillax.ComposedEditMachine.MuxCrossings.
	// Zero for K ≤ MaxWordK (one word per row, no boundary to cross) and
	// on calls the gapless step certifies (the grid never runs). It counts
	// only writes that survive pruning, so unlike Score, Cigar and Cycles
	// it depends on the pruning floor and the suffix table's band.
	MuxCrossings int64
}

// Machine is the bit-parallel Silla extension engine.
type Machine struct {
	k  int
	w  int
	wn int // w*w, the register count per plane
	cs sillax.Costs

	// cur/nxt are the score slabs and live/nlive the liveness masks of
	// the current and next cycle, laid out as wide.go describes.
	cur, nxt    []int32
	live, nlive []uint64

	// revBuf is the reusable cigar scratch of the backward walk and the
	// gapless step; the reported Cigar is a fresh reversal or copy of it,
	// so results stay valid across Extend calls.
	revBuf align.Cigar

	// wide holds the word-striped comparator, row summaries, trail ring,
	// checkpoints and bound tables (wide.go, widebound.go).
	wide *wideState
}

// New builds a bit-parallel machine with edit bound k.
func New(k int, sc align.Scoring) *Machine {
	if k < 0 {
		panic("bitsilla: negative edit bound")
	}
	if err := sc.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{k: k, w: k + 1, wn: (k + 1) * (k + 1), cs: sillax.NewCosts(sc)}
	m.initWide()
	return m
}

// K returns the edit bound.
func (m *Machine) K() int { return m.k }

// cycles is the architectural cycle count of one extension: the streaming
// phase through cycle sillax.StreamCycles, then the 4K traceback phases of
// §IV-C.
//
//genax:hotpath
func (m *Machine) cycles(n, qn int) int {
	return sillax.StreamCycles(n, qn, m.k) + 1 + 4*m.k
}

// Extend runs a bit-parallel traced seed extension of query against ref,
// both anchored at position 0, with clipping: the certified gapless step
// when it proves the answer (gapless.go), the grid otherwise. The returned
// Result is byte-identical to sillax.TracebackMachine.Extend on the same
// inputs (Score, QueryLen, RefLen, Cigar), enforced by the differential
// tests and fuzzers.
//
//genax:hotpath
func (m *Machine) Extend(ref, query dna.Seq) Result {
	res, l0, ok := m.tryGapless(ref, query)
	if ok {
		return res
	}
	return m.extendWide(ref, query, l0)
}
