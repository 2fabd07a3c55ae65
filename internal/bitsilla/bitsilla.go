// Package bitsilla is the bit-parallel rendering of the SillaX traceback
// machine (§IV): the same bounded-edit clipped extension with affine-gap
// scoring and a full-query CIGAR, but with the PE grid's activations and
// comparator outputs packed into uint64 words so each cycle touches
// O(K/64+1) words per live grid row instead of (K+1)² scalar registers.
// GenASM and Scrooge demonstrated that edit-automaton semantics collapse
// into word-parallel bit-vector updates; this package applies the idiom to
// the paper's three-dimensional (i, d, substitution-layer) state space.
//
// The engine is byte-identical to sillax.TracebackMachine by construction:
//
//   - Score registers live exactly one machine cycle (the cycle model wipes
//     its next-planes every swap), so a register's writer is uniquely named
//     by (cycle, i, d, plane). bitsilla stores each write's 2-bit source
//     code in two packed bit-planes per step — a time-indexed trail that
//     later overwrites cannot corrupt, which is why traceback here never
//     re-executes (the §IV-C broken-trail re-runs are a property of the
//     chip's in-place 2-bit pointers, not of the alignment semantics).
//   - Same-cycle write races resolve by the same strict-greater compares in
//     the same scan order (i ascending, d ascending; wait-delivery before
//     layer 0 before layer 1), so every tie breaks identically.
//   - Futile offers — values that could not strictly beat the best score
//     already standing even by matching every remaining base — are
//     dropped. v+potential is non-increasing along every transition and
//     best is monotone, so a pruned lineage can never update best nor
//     appear on the traceback walk, and any viable offer racing for the
//     same register carries a value above the pruning bar, so it wins the
//     register whether or not futile competitors were dropped. The cycle
//     model streams those states anyway; dropping them keeps the live set
//     in a band around the current optimum.
//
// The per-state liveness masks are the software twin of the hardware's
// activation wires: one uint64 per grid row and plane, with the comparator
// periphery reduced to four query-equality shift registers (qeq) indexed by
// the streamed reference base — a row's PEs compare in one AND.
//
// Machines are not safe for concurrent use; allocate one per lane.
package bitsilla

import (
	"math/bits"

	"genax/internal/align"
	"genax/internal/dna"
	"genax/internal/sillax"
)

// MaxWordK is the largest edit bound the single-word datapath supports:
// one uint64 per grid row holds all K+1 diagonal offsets. Larger bounds
// route to the multi-word datapath (wide.go): the same semantics with
// state striped across ceil((K+1)/64) words per row — the §IV-D tile
// composition, with cross-word shifts counted as mux crossings.
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

// planeWords is the trail stride per (cycle, row): two code-bit words
// (lo, hi) for each plane.
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
	// 64-bit word boundary on the multi-word datapath — signals through
	// the §IV-D reconfiguration muxes, the software twin of
	// sillax.ComposedEditMachine.MuxCrossings. Zero on the single-word
	// datapath (one word per row — no boundaries to cross).
	MuxCrossings int64
}

// Machine is the bit-parallel Silla extension engine.
type Machine struct {
	k  int
	w  int
	wn int // w*w, the per-plane register count
	sc align.Scoring
	cs sillax.Costs

	// cur/nxt are the score planes, flat plane-major (p*wn + i*w + d);
	// live/nlive mask which registers hold a real value this cycle
	// (word p*w+i, bit d), and rows summarizes which rows of each plane
	// have any live bit — the scan only visits live rows and live cells.
	cur, nxt    []int32
	live, nlive []uint64
	rows        [numPlanes]uint64

	// qeq is the comparator periphery: bit d of qeq[b] reports whether
	// query[c-d] == b at the current cycle c, maintained by one shift-in
	// per cycle. A whole row's match wires are then qeq[ref[c-i]].
	qeq [dna.NumBases]uint64

	// trail holds the 2-bit write codes as two bit-plane words per
	// (cycle, row, plane). Entries are only ever read for registers that
	// were written this Extend, so the slab is never cleared — every
	// accepted write rewrites both of its code bits.
	trail []uint64

	// revBuf is the reusable backward-walk buffer; the reported Cigar is
	// a fresh reversal of it, so results stay valid across Extend calls.
	revBuf align.Cigar

	// wide is the multi-word datapath state for k > MaxWordK (wide.go).
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
	m := &Machine{k: k, w: k + 1, wn: (k + 1) * (k + 1), sc: sc, cs: sillax.NewCosts(sc)}
	if k > MaxWordK {
		m.initWide()
		return m
	}
	m.cur = make([]int32, numPlanes*m.wn)
	m.nxt = make([]int32, numPlanes*m.wn)
	m.live = make([]uint64, numPlanes*m.w)
	m.nlive = make([]uint64, numPlanes*m.w)
	return m
}

// K returns the edit bound.
func (m *Machine) K() int { return m.k }

// ensureTrail grows the trail slab to at least n words. Growth is kept
// out of the annotated hot path; steady state reuses the slab.
func (m *Machine) ensureTrail(n int) {
	if cap(m.trail) < n {
		m.trail = make([]uint64, n)
	}
	m.trail = m.trail[:n]
}

// reset clears the live masks of the previous call (scores are masked by
// liveness, so only masks need wiping — the O(K²) register clears of the
// cycle model are exactly the work this engine deletes) and arms the
// origin state (0,0|layer 0, closed) with score zero. The next-side masks
// hold a per-cycle invariant: Extend leaves them cleared after every swap,
// so between calls they are already zero.
//
//genax:hotpath
func (m *Machine) reset() {
	for p := 0; p < numPlanes; p++ {
		pw := p * m.w
		for rw := m.rows[p]; rw != 0; rw &= rw - 1 {
			m.live[pw+bits.TrailingZeros64(rw)] = 0
		}
		m.rows[p] = 0
	}
	for b := range m.qeq {
		m.qeq[b] = 0
	}
	m.cur[0] = 0
	m.live[0] = 1
	m.rows[pM0] = 1
}

// futileThr is the lowest non-futile offer for a target register with
// remR reference and remQ query bases left to consume: below it, even
// matching every remaining pair cannot strictly beat the best score
// already standing. Registers written from now on can only matter if
// they are ancestors of a future best endpoint, and best updates are
// strict-greater, so the bar is best+1 minus the maximum remaining
// gain; a path at best+1-a*rem exactly (a pure-match tail of a future
// optimum) is kept. remaining is capped so the product stays far from
// the Neg sentinel.
//
//genax:hotpath
func futileThr(remR, remQ int, a, best int32) int32 {
	rem := remR
	if remQ < rem {
		rem = remQ
	}
	if rem < 0 {
		rem = 0
	}
	if rem > 1<<20 {
		rem = 1 << 20 // a lower threshold only prunes less; never overflows
	}
	return best + 1 - a*int32(rem)
}

// trailCode reads back the 2-bit source code of the register (i,d) of
// plane p that became live at cycle t.
//
//genax:hotpath
func (m *Machine) trailCode(p, t, i, d int) int {
	o := (t*m.w+i)*planeWords + 2*p
	bit := uint64(1) << uint(d)
	code := 0
	if m.trail[o]&bit != 0 {
		code = 1
	}
	if m.trail[o+1]&bit != 0 {
		code |= 2
	}
	return code
}

// Extend runs a bit-parallel traced seed extension of query against ref,
// both anchored at position 0, with clipping. The returned Result is
// byte-identical to sillax.TracebackMachine.Extend on the same inputs
// (Score, QueryLen, RefLen, Cigar), enforced by the differential tests.
//
// The register-offer sequence below (compare against the target's current
// next-cycle value with strict greater, record value, liveness bit, row
// summary and 2-bit trail code) is open-coded at each of its six sites —
// wait delivery, match, the two substitution branches and the two gap
// branches — because a call per offer dominated the cycle loop.
//
//genax:hotpath
func (m *Machine) Extend(ref, query dna.Seq) Result {
	if m.wide != nil {
		return m.extendWide(ref, query)
	}
	k, w, wn := m.k, m.w, m.wn
	n, qn := len(ref), len(query)
	maxCycle := sillax.StreamCycles(n, qn, k)
	m.ensureTrail((maxCycle + 2) * w * planeWords)
	m.reset()
	a, b, open, ext := m.cs.A, m.cs.B, m.cs.Open, m.cs.Ext

	best := int32(0)
	bestI, bestD, bestCycle := 0, 0, 0
	bestPlane := pM0

	for c := 0; c <= maxCycle; c++ {
		// Shift the comparator periphery: after this, bit d of qeq[x]
		// says query[c-d] == x (out-of-range positions stay 0, which is
		// how the phantom mismatches past the string ends arise — the
		// cycle model behaves identically).
		m.qeq[0] <<= 1
		m.qeq[1] <<= 1
		m.qeq[2] <<= 1
		m.qeq[3] <<= 1
		if c < qn {
			m.qeq[query[c]&3] |= 1
		}
		any := false
		t := c + 1
		tw := t * w
		cur, nxt := m.cur, m.nxt
		live, nlive := m.live, m.nlive
		trail := m.trail
		var nr [numPlanes]uint64
		rowsAny := m.rows[pM0] | m.rows[pI0] | m.rows[pD0] |
			m.rows[pM1] | m.rows[pI1] | m.rows[pD1] | m.rows[pWT]
		for rw := rowsAny; rw != 0; rw &= rw - 1 {
			i := bits.TrailingZeros64(rw)
			var rm [numPlanes]uint64
			combined := uint64(0)
			for p := 0; p < numPlanes; p++ {
				v := live[p*w+i]
				rm[p] = v
				combined |= v
			}
			var matchRow uint64
			riPos := c - i
			if riPos >= 0 && riPos < n {
				matchRow = m.qeq[ref[riPos]&3]
			}
			remR := n - riPos // reference bases not yet consumed by this row
			base := i * w
			rowBit := uint64(1) << uint(i)
			for cm := combined; cm != 0; cm &= cm - 1 {
				d := bits.TrailingZeros64(cm)
				bit := uint64(1) << uint(d)
				idx := base + d
				remQ := qn - c + d
				thrDiag := futileThr(remR-1, remQ-1, a, best) // match/sub/wait targets
				// Wait-state delivery: the merged two-substitution
				// path arrives closed at layer 0 of (i+1,d+1).
				if rm[pWT]&bit != 0 {
					v := cur[pWT*wn+idx]
					ti := idx + w + 1
					tb := bit << 1
					ok := v > negScore
					if nlive[i+1]&tb != 0 {
						ok = v > nxt[ti]
					}
					if ok {
						nxt[ti] = v
						nlive[i+1] |= tb
						nr[pM0] |= rowBit << 1
						o := (tw + i + 1) * planeWords
						trail[o] |= tb // codeWait = 3: both bits set
						trail[o+1] |= tb
						any = true
					}
				}
				for layer := 0; layer < 2; layer++ {
					pm := 3 * layer
					mv, iv, dv := negScore, negScore, negScore
					if rm[pm]&bit != 0 {
						mv = cur[pm*wn+idx]
					}
					if rm[pm+1]&bit != 0 {
						iv = cur[(pm+1)*wn+idx]
					}
					if rm[pm+2]&bit != 0 {
						dv = cur[(pm+2)*wn+idx]
					}
					if mv == negScore && iv == negScore && dv == negScore {
						continue
					}
					any = true
					top, topCode := mv, uint64(0)
					if iv > top {
						top, topCode = iv, 1
					}
					if dv > top {
						top, topCode = dv, 2
					}
					if matchRow&bit != 0 {
						v := top + a
						if v >= thrDiag {
							ti := pm*wn + idx
							li := pm*w + i
							ok := v > negScore
							if nlive[li]&bit != 0 {
								ok = v > nxt[ti]
							}
							if ok {
								nxt[ti] = v
								nlive[li] |= bit
								nr[pm] |= rowBit
								o := (tw+i)*planeWords + 2*pm
								lo := trail[o] &^ bit
								hi := trail[o+1] &^ bit
								if topCode&1 != 0 {
									lo |= bit
								}
								if topCode&2 != 0 {
									hi |= bit
								}
								trail[o], trail[o+1] = lo, hi
								if v > best {
									best, bestI, bestD, bestCycle, bestPlane = v, i, d, t, pm
								}
							}
						}
					} else if top > negScore {
						// Substitution branch (the third dimension).
						if layer == 0 {
							if i+d+1 <= k {
								v := top - b
								if v >= thrDiag {
									ti := pM1*wn + idx
									li := pM1*w + i
									ok := v > negScore
									if nlive[li]&bit != 0 {
										ok = v > nxt[ti]
									}
									if ok {
										nxt[ti] = v
										nlive[li] |= bit
										nr[pM1] |= rowBit
										o := (tw+i)*planeWords + 2*pM1
										lo := trail[o] &^ bit
										hi := trail[o+1] &^ bit
										if topCode&1 != 0 {
											lo |= bit
										}
										if topCode&2 != 0 {
											hi |= bit
										}
										trail[o], trail[o+1] = lo, hi
										if v > best {
											best, bestI, bestD, bestCycle, bestPlane = v, i, d, t, pM1
										}
									}
								}
							}
						} else if i+d+2 <= k {
							v := top - b
							if v >= thrDiag {
								ti := pWT*wn + idx
								li := pWT*w + i
								ok := v > negScore
								if nlive[li]&bit != 0 {
									ok = v > nxt[ti]
								}
								if ok {
									nxt[ti] = v
									nlive[li] |= bit
									nr[pWT] |= rowBit
									o := (tw+i)*planeWords + 2*pWT
									lo := trail[o] &^ bit
									hi := trail[o+1] &^ bit
									if topCode&1 != 0 {
										lo |= bit
									}
									if topCode&2 != 0 {
										hi |= bit
									}
									trail[o], trail[o+1] = lo, hi
									if v > best {
										// The wait value becomes a closed
										// score at (i+1,d+1) next cycle;
										// best points there (same score,
										// same clip point).
										best, bestI, bestD, bestCycle, bestPlane = v, i+1, d+1, t+1, pM0
									}
								}
							}
						}
					}
					// Gap branches fire even on a match (§IV-B), with
					// delayed merging: open paths extend cheaply,
					// closed ones pay the open cost. Source priorities
					// replicate the cycle model's compare order.
					if i+1+d+layer <= k {
						v, code := mv-open, uint64(0)
						if dv-open > v {
							v, code = dv-open, 2
						}
						if iv-ext > v {
							v, code = iv-ext, 1
						}
						if v >= futileThr(remR, remQ-1, a, best) {
							pi := pm + 1
							ti := pi*wn + idx + w
							li := pi*w + i + 1
							ok := v > negScore
							if nlive[li]&bit != 0 {
								ok = v > nxt[ti]
							}
							if ok {
								nxt[ti] = v
								nlive[li] |= bit
								nr[pi] |= rowBit << 1
								o := (tw+i+1)*planeWords + 2*pi
								lo := trail[o] &^ bit
								hi := trail[o+1] &^ bit
								if code&1 != 0 {
									lo |= bit
								}
								if code&2 != 0 {
									hi |= bit
								}
								trail[o], trail[o+1] = lo, hi
							}
						}
					}
					if i+d+1+layer <= k {
						v, code := mv-open, uint64(0)
						if iv-open > v {
							v, code = iv-open, 1
						}
						if dv-ext > v {
							v, code = dv-ext, 2
						}
						if v >= futileThr(remR-1, remQ, a, best) {
							pd := pm + 2
							ti := pd*wn + idx + 1
							li := pd*w + i
							tb := bit << 1
							ok := v > negScore
							if nlive[li]&tb != 0 {
								ok = v > nxt[ti]
							}
							if ok {
								nxt[ti] = v
								nlive[li] |= tb
								nr[pd] |= rowBit
								o := (tw+i)*planeWords + 2*pd
								lo := trail[o] &^ tb
								hi := trail[o+1] &^ tb
								if code&1 != 0 {
									lo |= tb
								}
								if code&2 != 0 {
									hi |= tb
								}
								trail[o], trail[o+1] = lo, hi
							}
						}
					}
				}
			}
		}
		m.cur, m.nxt = nxt, cur
		m.live, m.nlive = nlive, live
		old := m.rows
		m.rows = nr
		// The vacated masks (now the next side) are cleared here, which
		// is what maintains reset's between-calls invariant.
		for p := 0; p < numPlanes; p++ {
			pw := p * w
			for rw := old[p]; rw != 0; rw &= rw - 1 {
				live[pw+bits.TrailingZeros64(rw)] = 0
			}
		}
		if !any {
			break
		}
	}

	res := Result{Score: int(best), Cycles: maxCycle + 1 + 4*k}
	rev := m.revBuf[:0]
	if tail := qn - (bestCycle - bestD); best > 0 && tail > 0 {
		rev = rev.Append(align.OpClip, tail)
	} else if best == 0 {
		rev = rev.Append(align.OpClip, qn)
	}
	if best > 0 {
		// Backward walk over the time-indexed trail. Every visited
		// register was written this Extend at exactly the cycle the walk
		// holds, so each code read names the true source; there is no
		// re-execution.
		t, i, d, p := bestCycle, bestI, bestD, bestPlane
		for t > 0 {
			switch p {
			case pM0:
				code := m.trailCode(pM0, t, i, d)
				if code == codeWait {
					// Wait delivery: the second substitution of the
					// merged pair, one X spanning the two-cycle hop
					// back to the wait state's layer-1 source.
					rev = rev.Append(align.OpMismatch, 1)
					i--
					d--
					t -= 2
					p = 3 + m.trailCode(pWT, t+1, i, d)
				} else {
					rev = rev.Append(align.OpMatch, 1)
					p = code
					t--
				}
			case pM1:
				// Written either by layer 1's own match or by layer 0's
				// first substitution; the comparator output at the write
				// cycle is recomputable from the strings and names the
				// branch (they are mutually exclusive on the match bit).
				code := m.trailCode(pM1, t, i, d)
				rp, qp := t-1-i, t-1-d
				if rp >= 0 && rp < n && qp >= 0 && qp < qn && ref[rp] == query[qp] {
					rev = rev.Append(align.OpMatch, 1)
					p = 3 + code
				} else {
					rev = rev.Append(align.OpMismatch, 1)
					p = code
				}
				t--
			case pI0, pI1:
				rev = rev.Append(align.OpIns, 1)
				code := m.trailCode(p, t, i, d)
				if p == pI1 {
					code += 3
				}
				p = code
				i--
				t--
			default: // pD0, pD1
				rev = rev.Append(align.OpDel, 1)
				code := m.trailCode(p, t, i, d)
				if p == pD1 {
					code += 3
				}
				p = code
				d--
				t--
			}
		}
	}
	m.revBuf = rev
	res.Cigar = rev.Reverse()
	if best > 0 {
		res.QueryLen = bestCycle - bestD
		res.RefLen = bestCycle - bestI
	}
	return res
}
