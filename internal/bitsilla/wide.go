package bitsilla

// The datapath: every per-row quantity is striped across nw = ⌈(K+1)/64⌉
// machine words along the diagonal-offset axis d, one word for K ≤ MaxWordK.
// This is the software rendering of §IV-D tile composition — each 64-bit
// word is one K-tile of the composed engine, and a shift whose source and
// target bits live in different words is a signal through the
// reconfiguration muxes, counted exactly like
// sillax.ComposedEditMachine.MuxCrossings.
//
// Liveness words, comparator shift registers and the packed trail all have
// a word dimension; carries propagate across word boundaries in the qeq
// shift (word w takes word w-1's top bit) and in the two d+1 transitions
// (wait delivery and deletion), whose target bit wraps into the next word
// when the source sits on bit 63.
//
// Score and liveness arrays are laid out plane-interleaved: the seven plane
// values of one (i, d) register sit in planeStride consecutive slots, and
// the seven liveness words of one (i, vw) stripe share one cache line, so
// the scan, which reads every plane of every live site, pays one cache miss
// per site rather than seven.
//
// The time-indexed trail is a ring of 2C slots (C cycles per window) plus a
// machine-state checkpoint at the head of every window: at long-read scale
// (10 kb reads, K≈100-200) a full cycles × rows × planes × words slab would
// run to hundreds of megabytes per lane. C is sized per pass: whenever 2C
// cycles cover the whole pass within wideTrailBudget (16 MiB; ~920 cycles
// at K=80), the backward walk finds every window still resident, nothing is
// checkpointed and nothing replays; past the budget C is capped there
// (never below wideWindow) and the walk restores the checkpoint for each
// missing window and re-executes its cycles, regenerating exactly the trail
// words it is about to read. Replay is deterministic because a checkpoint
// captures the whole step input: score planes, liveness, row summaries,
// comparator registers and the running best (which the pruning floor
// reads). The total replay cost is bounded by one extra forward pass —
// little on a kilobase read, where the bound pass leaves about one live
// site per cycle — and memory stays within the budget either way.

import (
	"math/bits"

	"genax/internal/align"
	"genax/internal/dna"
	"genax/internal/sillax"
)

// wideWindow is the trail window (cycles per checkpoint) used when the
// whole pass does not fit wideTrailBudget. Ring memory grows with it,
// replay overhead shrinks with it.
const wideWindow = 256

// wideTrailBudget bounds the trail ring per machine. Auto-sized windows
// grow until the ring hits this: at K=80 that holds a pass of ~920 cycles
// entirely resident, and the tail of a longer one replays cheaply because
// the bounds leave about one live site per cycle. A machine that outgrows
// its starter ring allocates the full budget at once (see ensureWide), so
// the budget, not the reads, sets a lane's trail memory.
const wideTrailBudget = 16 << 20

// wideStarterRing is the size of a machine's first trail ring when its
// first pass fits: a 101 bp read at K=40 touches ~0.8 MB of ring, and a
// lane that only ever sees such passes never pays for the budget ring.
const wideStarterRing = 1 << 20

// planeStride is the interleave stride of the wide score and liveness
// arrays: numPlanes rounded to a power of two so index arithmetic is a
// shift and one (i, d) site spans exactly half a cache line.
const planeStride = 8

// wideSnap is one window-head checkpoint of the forward pass.
type wideSnap struct {
	cur  []int32
	live []uint64
	rows []uint64
	qeq  []uint64 // dna.NumBases * nw words

	best                           int32
	bestI, bestD, bestCycle, bPlan int
	mux                            int64
}

// wideState is the datapath state beyond the score and liveness slabs:
// word counts, the striped comparator and row summaries, the trail ring
// with its checkpoints, and the forward-pass cursor shared between Extend
// and replay.
type wideState struct {
	nw   int // words per (plane, row) along d; also row-summary words along i
	winC int // configured checkpoint window in cycles (0 = auto-size per pass)
	win  int // effective window of the current pass, set by ensureWide

	qeq   [dna.NumBases][]uint64
	rows  []uint64 // numPlanes * nw row-summary words
	nrows []uint64 // next-cycle row summaries, cleared at each step's start
	trail []uint64 // ring of 2*win trail slots

	snaps    []wideSnap
	resLoWin int // lowest window whose trail slots are currently resident

	// Forward-pass state, persisted as fields so checkpoint restore and
	// replay see exactly what the original pass saw.
	best                              int32
	bestI, bestD, bestCycle, bestPlan int
	mux                               int64
	ref, query                        dna.Seq
	maxCycle                          int

	// bound is the pass's certified lower bound on the final best score
	// (wideWitness); constant across the pass, so replay sees the same
	// pruning floor without checkpointing it.
	bound int32
	// stab is the pass's suffix bound table (wideSuffixBound): per
	// in-band position and entry state, an upper bound on the score any
	// state there can still add. Like bound it is constant across the
	// pass, so replay reproduces the same pruning without checkpoints.
	stab []int32
}

// initWide sizes the datapath for edit bound m.k.
func (m *Machine) initWide() {
	nw := (m.w + 63) / 64
	m.cur = make([]int32, m.wn*planeStride)
	m.nxt = make([]int32, m.wn*planeStride)
	m.live = make([]uint64, m.w*nw*planeStride)
	m.nlive = make([]uint64, m.w*nw*planeStride)
	wd := &wideState{nw: nw}
	for b := 0; b < dna.NumBases; b++ {
		wd.qeq[b] = make([]uint64, nw)
	}
	wd.rows = make([]uint64, numPlanes*nw)
	wd.nrows = make([]uint64, numPlanes*nw)
	m.wide = wd
}

// ensureWide picks the pass's effective window and sizes the trail ring
// and the checkpoint list for maxCycle+1 cycles. Steady state reuses every
// buffer.
func (m *Machine) ensureWide(maxCycle int) {
	wd := m.wide
	slotWords := m.w * planeWords * wd.nw
	win := wd.winC
	if win == 0 {
		// Auto: a ring of 2*win slots holds the whole pass when
		// win >= (maxCycle+1)/2 — then the walk never replays. Cap by the
		// ring budget (16 bytes per ring word across both windows), and
		// floor a capped window at the fixed replay window.
		win = maxCycle/2 + 1
		if maxWin := wideTrailBudget / (16 * slotWords); win > maxWin {
			win = max(maxWin, wideWindow)
		}
	}
	if win < 2 {
		win = 2 // the walk reads cycles t and t-1; one-cycle windows cannot hold the pair
	}
	wd.win = win
	ringLen := 2 * win * slotWords
	if cap(wd.trail) < ringLen {
		// An auto-sized ring is allocated at most twice: a fixed starter
		// if the machine's first pass fits it, then once at the largest
		// window auto mode can pick. Machines live as long as the pipeline
		// lane that owns them, and which lane meets the longest pass first
		// depends on scheduling: an exact-fit ring regrown pass by pass
		// would leave a run-dependent number of dead rings behind.
		// Untouched slots of a fresh ring cost address space, not memory.
		alloc := ringLen
		if wd.winC == 0 {
			if wd.trail == nil && 8*ringLen <= wideStarterRing {
				alloc = wideStarterRing / 8
			} else {
				alloc = 2 * max(wideTrailBudget/(16*slotWords), wideWindow) * slotWords
			}
		}
		wd.trail = make([]uint64, alloc)
	}
	wd.trail = wd.trail[:ringLen]
	// A ring that holds the whole pass never replays, so it needs no
	// checkpoints (extendWide skips them on the same condition).
	nSnaps := 0
	if 2*win <= maxCycle {
		nSnaps = maxCycle/win + 1
	}
	for len(wd.snaps) < nSnaps {
		wd.snaps = append(wd.snaps, wideSnap{
			cur:  make([]int32, m.wn*planeStride),
			live: make([]uint64, m.w*wd.nw*planeStride),
			rows: make([]uint64, numPlanes*wd.nw),
			qeq:  make([]uint64, dna.NumBases*wd.nw),
		})
	}
}

// resetWide clears the previous call's liveness (masks only — scores are
// masked by liveness, so the O(K²) register clears of the cycle model are
// work this engine never does) and arms the origin state.
//
//genax:hotpath
func (m *Machine) resetWide() {
	wd := m.wide
	nw := wd.nw
	for iw := 0; iw < nw; iw++ {
		rowsAny := wd.rows[pM0*nw+iw] | wd.rows[pI0*nw+iw] | wd.rows[pD0*nw+iw] |
			wd.rows[pM1*nw+iw] | wd.rows[pI1*nw+iw] | wd.rows[pD1*nw+iw] | wd.rows[pWT*nw+iw]
		for rw := rowsAny; rw != 0; rw &= rw - 1 {
			i := iw<<6 + bits.TrailingZeros64(rw)
			lb := i * nw * planeStride
			for x := lb; x < lb+nw*planeStride; x++ {
				m.live[x] = 0
			}
		}
	}
	for x := range wd.rows {
		wd.rows[x] = 0
	}
	for b := 0; b < dna.NumBases; b++ {
		q := wd.qeq[b]
		for x := range q {
			q[x] = 0
		}
	}
	m.cur[0] = 0
	m.live[0] = 1
	wd.rows[pM0*nw] = 1
}

// saveSnap checkpoints the state ahead of window j's first cycle.
func (m *Machine) saveSnap(j int) {
	wd := m.wide
	s := &wd.snaps[j]
	copy(s.cur, m.cur)
	copy(s.live, m.live)
	copy(s.rows, wd.rows)
	for b := 0; b < dna.NumBases; b++ {
		copy(s.qeq[b*wd.nw:(b+1)*wd.nw], wd.qeq[b])
	}
	s.best, s.bestI, s.bestD, s.bestCycle, s.bPlan = wd.best, wd.bestI, wd.bestD, wd.bestCycle, wd.bestPlan
	s.mux = wd.mux
}

// restoreSnap rewinds the machine to window j's head for replay.
//
//genax:hotpath
func (m *Machine) restoreSnap(j int) {
	wd := m.wide
	s := &wd.snaps[j]
	copy(m.cur, s.cur)
	copy(m.live, s.live)
	copy(wd.rows, s.rows)
	for b := 0; b < dna.NumBases; b++ {
		copy(wd.qeq[b], s.qeq[b*wd.nw:(b+1)*wd.nw])
	}
	wd.best, wd.bestI, wd.bestD, wd.bestCycle, wd.bestPlan = s.best, s.bestI, s.bestD, s.bestCycle, s.bPlan
	wd.mux = s.mux
}

// replayWindow re-executes window j's cycles from its checkpoint,
// regenerating that window's trail slots in the ring. The next-side masks
// are all zero at every window head (each step clears what it vacates), so
// restore + re-step reproduces the original writes bit for bit.
//
//genax:hotpath
func (m *Machine) replayWindow(j int) {
	wd := m.wide
	m.restoreSnap(j)
	for c := j * wd.win; c < (j+1)*wd.win; c++ {
		if c > wd.maxCycle || !m.stepWide(c) {
			break
		}
	}
}

// wideTrailCode reads the 2-bit source code of the register (i,d) of plane
// p written at cycle t, replaying older windows into the ring on demand.
// The walk's read cycles never increase, so the resident pair only ever
// slides downward.
//
//genax:hotpath
func (m *Machine) wideTrailCode(p, t, i, d int) int {
	wd := m.wide
	for win := (t - 1) / wd.win; wd.resLoWin > win; {
		m.replayWindow(wd.resLoWin - 1)
		wd.resLoWin--
	}
	slot := t % (2 * wd.win)
	o := (slot*m.w+i)*planeWords*wd.nw + 2*p*wd.nw + d>>6
	bit := uint64(1) << uint(d&63)
	code := 0
	if wd.trail[o]&bit != 0 {
		code = 1
	}
	if wd.trail[o+wd.nw]&bit != 0 {
		code |= 2
	}
	return code
}

// stepWide executes one machine cycle of the datapath: shift the
// striped comparator, then scan TARGET registers ("pull"). For every
// register (i, d) reachable this cycle it resolves all competing offers in
// registers — the wait delivery from (i-1, d-1), match and substitution
// from (i, d), the insertion gap from (i-1, d) and the deletion gap from
// (i, d-1) — and commits each plane with one score store, accumulating
// liveness and the 2-bit trail codes per 64-register word so the
// per-offer read-modify-writes of a source-major scan collapse into one
// masked store per (plane, word). Every target plane has exactly one
// writing source except pM0, where the wait delivery lands first and the
// match must beat it strictly — the same strict-greater race, in the same
// (i-1, d-1) < (i-1, d) < (i, d-1) < (i, d) scan order, as the
// source-major formulation, so every tie breaks exactly like the cycle
// model. All consuming offers into (i, d) share one futility threshold
// (their source rem differences cancel against the consumed base).
// Closing offers see the same pruning floor at the same scan position as
// a source-major scan, so the best chain and every trail word the
// backward walk reads are byte-identical; gap and wait offers are checked
// against a floor that may have risen since their source's scan slot,
// which prunes strictly more — exact by the bound-pass argument, since a
// pruned offer's completion bound is below a floor that never exceeds the
// pass's final score. The two d+1 transitions cross into the next word
// when the source bit is 63; each accepted crossing is one mux crossing
// in the §IV-D composition sense.
//
//genax:hotpath
func (m *Machine) stepWide(c int) bool {
	wd := m.wide
	k, w, nw := m.k, m.w, wd.nw
	ref, query := wd.ref, wd.query
	n, qn := len(ref), len(query)
	a, b, open, ext := m.cs.A, m.cs.B, m.cs.Open, m.cs.Ext

	// Shift the comparator periphery with cross-word carries: after this,
	// bit d of word d/64 of qeq[x] says query[c-d] == x.
	for x := 0; x < dna.NumBases; x++ {
		q := wd.qeq[x]
		for wq := nw - 1; wq > 0; wq-- {
			q[wq] = q[wq]<<1 | q[wq-1]>>63
		}
		q[0] <<= 1
	}
	if c < qn {
		wd.qeq[query[c]&3][0] |= 1
	}

	any := false
	t := c + 1
	slot := t % (2 * wd.win)
	sbase := slot * w * planeWords * nw
	cur, nxt := m.cur, m.nxt
	live, nlive := m.live, m.nlive
	trail := wd.trail
	rows, nr := wd.rows, wd.nrows
	for x := range nr {
		nr[x] = 0
	}
	best := wd.best
	bestI, bestD, bestCycle, bestPlan := wd.bestI, wd.bestD, wd.bestCycle, wd.bestPlan
	mux := wd.mux
	// pb is the pruning floor: the running best, raised to the certified
	// witness bound. futileThr(.., pb) = max(best+1, bound) - a*rem, which
	// keeps every state able to TIE the witness (the canonical winner may
	// be one of them) while the plain best-so-far comparison stays
	// tie-pruning: an offer that can at most equal a best already standing
	// can never replace it.
	pb := best
	if wd.bound-1 > pb {
		pb = wd.bound - 1
	}
	// The suffix bound table sharpens the floor per target: an offer of
	// value v into a position with suffix headroom U can contribute at
	// most v + U, so v must reach pb+1 - U. The generic futileThr floor
	// stays as the fallback for positions off the table's band.
	stab := wd.stab
	sw := 2*k + 1
	useU := len(stab) >= (qn+1)*sw*3

	// Target rows: sources in row i write row i (match, substitution,
	// deletion gap) and row i+1 (insertion gap, wait delivery).
	rcarry := uint64(0)
	for iw := 0; iw < nw; iw++ {
		vR := rows[pM0*nw+iw] | rows[pI0*nw+iw] | rows[pD0*nw+iw] |
			rows[pM1*nw+iw] | rows[pI1*nw+iw] | rows[pD1*nw+iw]
		wR := rows[pWT*nw+iw]
		tg := vR | (vR|wR)<<1 | rcarry
		rcarry = (vR | wR) >> 63
		for rw := tg; rw != 0; rw &= rw - 1 {
			i := iw<<6 + bits.TrailingZeros64(rw)
			if i >= w {
				continue
			}
			riPos := c - i
			base := i * w
			tbase := sbase + i*planeWords*nw
			srow := i * nw * planeStride
			urow := srow - nw*planeStride
			iWord, iBit := i>>6, uint64(1)<<uint(i&63)
			var mrow []uint64
			if riPos >= 0 && riPos < n {
				mrow = wd.qeq[ref[riPos]&3]
			}
			// Cross-word carries: the previous word's top source bit per
			// plane, feeding the two d+1 transitions (mux crossings).
			var cr0, cr1, cr2, cr3, cr4, cr5, crW, crT uint64
			// tp collects which planes row i accepted into, flushed to the
			// row summaries once per row.
			var tp uint64
			for vw := 0; vw < nw; vw++ {
				lb := srow + vw*planeStride
				lv := live[lb : lb+planeStride]
				s0, s1, s2 := lv[pM0], lv[pI0], lv[pD0]
				s3, s4, s5 := lv[pM1], lv[pI1], lv[pD1]
				var u0, u1, u2, u3, u4, u5, u6 uint64
				if i > 0 {
					ub := urow + vw*planeStride
					uv := live[ub : ub+planeStride]
					u0, u1, u2 = uv[pM0], uv[pI0], uv[pD0]
					u3, u4, u5 = uv[pM1], uv[pI1], uv[pD1]
					u6 = uv[pWT]
				}
				sAll := s0 | s1 | s2 | s3 | s4 | s5
				uAll := u0 | u1 | u2 | u3 | u4 | u5
				T := sAll | uAll | (sAll|u6)<<1 | crT
				if T == 0 {
					cr0, cr1, cr2, cr3, cr4, cr5 = s0>>63, s1>>63, s2>>63, s3>>63, s4>>63, s5>>63
					crW, crT = u6>>63, (sAll|u6)>>63
					continue
				}
				// Source (., d-1) liveness, aligned to the target bit.
				sh0 := s0<<1 | cr0
				sh1 := s1<<1 | cr1
				sh2 := s2<<1 | cr2
				sh3 := s3<<1 | cr3
				sh4 := s4<<1 | cr4
				sh5 := s5<<1 | cr5
				shW := u6<<1 | crW
				cr0, cr1, cr2, cr3, cr4, cr5 = s0>>63, s1>>63, s2>>63, s3>>63, s4>>63, s5>>63
				crW, crT = u6>>63, (sAll|u6)>>63
				var matchRow uint64
				if mrow != nil {
					matchRow = mrow[vw]
				}
				var nlA, tLo, tHi [numPlanes]uint64
				dBase := vw << 6
				for tm := T; tm != 0; tm &= tm - 1 {
					db := bits.TrailingZeros64(tm)
					d := dBase + db
					if d >= w {
						break
					}
					bit := uint64(1) << uint(db)
					cbT := (base + d) * planeStride
					cT := cur[cbT : cbT+planeStride]
					nT := nxt[cbT : cbT+planeStride]
					thr := futileThr(n-c+i-1, qn-c+d-1, a, pb)
					thrM, thrI, thrD := thr, thr, thr
					if useU {
						qp := c + 1 - d
						j := d - i + k
						if uint(j) < uint(sw) && uint(qp) <= uint(qn) {
							o := (qp*sw + j) * 3
							if u := pb + 1 - stab[o]; u > thrM {
								thrM = u
							}
							if u := pb + 1 - stab[o+1]; u > thrI {
								thrI = u
							}
							if u := pb + 1 - stab[o+2]; u > thrD {
								thrD = u
							}
						}
					}
					crossed := db == 0 && vw > 0
					if sAll&bit != 0 {
						any = true
					}
					isM := matchRow&bit != 0

					// pM0: the wait delivery from (i-1, d-1) lands first
					// (unthresholded, value already paid), then the layer-0
					// match, which must beat it strictly. The delivery's mux
					// crossing counts at delivery, as in the source scan,
					// even when the match overwrites it.
					v0, code0 := int32(negScore), uint64(3)
					if shW&bit != 0 {
						v0 = cur[cbT-(w+1)*planeStride+pWT]
						any = true
						if crossed {
							mux++
						}
					}
					mv0, iv0, dv0 := int32(negScore), int32(negScore), int32(negScore)
					if s0&bit != 0 {
						mv0 = cT[pM0]
					}
					if s1&bit != 0 {
						iv0 = cT[pI0]
					}
					if s2&bit != 0 {
						dv0 = cT[pD0]
					}
					top0, tc0 := mv0, uint64(0)
					if iv0 > top0 {
						top0, tc0 = iv0, 1
					}
					if dv0 > top0 {
						top0, tc0 = dv0, 2
					}
					mv1, iv1, dv1 := int32(negScore), int32(negScore), int32(negScore)
					if s3&bit != 0 {
						mv1 = cT[pM1]
					}
					if s4&bit != 0 {
						iv1 = cT[pI1]
					}
					if s5&bit != 0 {
						dv1 = cT[pD1]
					}
					top1, tc1 := mv1, uint64(0)
					if iv1 > top1 {
						top1, tc1 = iv1, 1
					}
					if dv1 > top1 {
						top1, tc1 = dv1, 2
					}
					if isM && top0 > negScore {
						v := top0 + a
						if v >= thrM && v > v0 {
							v0, code0 = v, tc0
							if v > best {
								best, bestI, bestD, bestCycle, bestPlan = v, i, d, t, pM0
								if best > pb {
									pb = best
								}
							}
						}
					}
					if v0 > negScore {
						nT[pM0] = v0
						nlA[pM0] |= bit
						if code0&1 != 0 {
							tLo[pM0] |= bit
						}
						if code0&2 != 0 {
							tHi[pM0] |= bit
						}
					}
					// pM1: layer-1 match or layer-0 substitution (the third
					// dimension) — exclusive on matchRow, both sourced at
					// (i, d). pWT: the layer-1 substitution's wait state.
					if isM {
						if top1 > negScore {
							v := top1 + a
							if v >= thrM {
								nT[pM1] = v
								nlA[pM1] |= bit
								if tc1&1 != 0 {
									tLo[pM1] |= bit
								}
								if tc1&2 != 0 {
									tHi[pM1] |= bit
								}
								if v > best {
									best, bestI, bestD, bestCycle, bestPlan = v, i, d, t, pM1
									if best > pb {
										pb = best
									}
								}
							}
						}
					} else {
						if top0 > negScore && i+d+1 <= k {
							v := top0 - b
							if v >= thrM {
								nT[pM1] = v
								nlA[pM1] |= bit
								if tc0&1 != 0 {
									tLo[pM1] |= bit
								}
								if tc0&2 != 0 {
									tHi[pM1] |= bit
								}
								if v > best {
									best, bestI, bestD, bestCycle, bestPlan = v, i, d, t, pM1
									if best > pb {
										pb = best
									}
								}
							}
						}
						if top1 > negScore && i+d+2 <= k {
							v := top1 - b
							if v >= thrM {
								nT[pWT] = v
								nlA[pWT] |= bit
								if tc1&1 != 0 {
									tLo[pWT] |= bit
								}
								if tc1&2 != 0 {
									tHi[pWT] |= bit
								}
								if v > best {
									// The wait value becomes a closed score at
									// (i+1,d+1) next cycle; best points there
									// (same score, same clip point).
									best, bestI, bestD, bestCycle, bestPlan = v, i+1, d+1, t+1, pM0
									if best > pb {
										pb = best
									}
								}
							}
						}
					}
					// Gap branches fire even on a match (§IV-B), with
					// delayed merging; source priorities replicate the cycle
					// model's compare order. Both gap targets of (i, d) share
					// the legality bound i+d+layer <= k of their sources, and
					// each gap plane has a single writing source, so the two
					// layers of one source site share its subslice.
					if i+d <= k {
						if (u0|u1|u2|u3|u4|u5)&bit != 0 {
							cbU := cbT - w*planeStride
							uU := cur[cbU : cbU+planeStride]
							if (u0|u1|u2)&bit != 0 {
								mu, iu, du := int32(negScore), int32(negScore), int32(negScore)
								if u0&bit != 0 {
									mu = uU[pM0]
								}
								if u1&bit != 0 {
									iu = uU[pI0]
								}
								if u2&bit != 0 {
									du = uU[pD0]
								}
								v, code := mu-open, uint64(0)
								if du-open > v {
									v, code = du-open, 2
								}
								if iu-ext > v {
									v, code = iu-ext, 1
								}
								if v > negScore && v >= thrI {
									nT[pI0] = v
									nlA[pI0] |= bit
									if code&1 != 0 {
										tLo[pI0] |= bit
									}
									if code&2 != 0 {
										tHi[pI0] |= bit
									}
								}
							}
							if i+d+1 <= k && (u3|u4|u5)&bit != 0 {
								mu, iu, du := int32(negScore), int32(negScore), int32(negScore)
								if u3&bit != 0 {
									mu = uU[pM1]
								}
								if u4&bit != 0 {
									iu = uU[pI1]
								}
								if u5&bit != 0 {
									du = uU[pD1]
								}
								v, code := mu-open, uint64(0)
								if du-open > v {
									v, code = du-open, 2
								}
								if iu-ext > v {
									v, code = iu-ext, 1
								}
								if v > negScore && v >= thrI {
									nT[pI1] = v
									nlA[pI1] |= bit
									if code&1 != 0 {
										tLo[pI1] |= bit
									}
									if code&2 != 0 {
										tHi[pI1] |= bit
									}
								}
							}
						}
						if (sh0|sh1|sh2|sh3|sh4|sh5)&bit != 0 {
							sD := cur[cbT-planeStride : cbT]
							if (sh0|sh1|sh2)&bit != 0 {
								mv, iv, dv := int32(negScore), int32(negScore), int32(negScore)
								if sh0&bit != 0 {
									mv = sD[pM0]
								}
								if sh1&bit != 0 {
									iv = sD[pI0]
								}
								if sh2&bit != 0 {
									dv = sD[pD0]
								}
								v, code := mv-open, uint64(0)
								if iv-open > v {
									v, code = iv-open, 1
								}
								if dv-ext > v {
									v, code = dv-ext, 2
								}
								if v > negScore && v >= thrD {
									nT[pD0] = v
									nlA[pD0] |= bit
									if code&1 != 0 {
										tLo[pD0] |= bit
									}
									if code&2 != 0 {
										tHi[pD0] |= bit
									}
									if crossed {
										mux++
									}
								}
							}
							if i+d+1 <= k && (sh3|sh4|sh5)&bit != 0 {
								mv, iv, dv := int32(negScore), int32(negScore), int32(negScore)
								if sh3&bit != 0 {
									mv = sD[pM1]
								}
								if sh4&bit != 0 {
									iv = sD[pI1]
								}
								if sh5&bit != 0 {
									dv = sD[pD1]
								}
								v, code := mv-open, uint64(0)
								if iv-open > v {
									v, code = iv-open, 1
								}
								if dv-ext > v {
									v, code = dv-ext, 2
								}
								if v > negScore && v >= thrD {
									nT[pD1] = v
									nlA[pD1] |= bit
									if code&1 != 0 {
										tLo[pD1] |= bit
									}
									if code&2 != 0 {
										tHi[pD1] |= bit
									}
									if crossed {
										mux++
									}
								}
							}
						}
					}
				}
				// Commit the word: one masked store per touched plane.
				nlv := nlive[lb : lb+planeStride]
				for p := 0; p < numPlanes; p++ {
					acc := nlA[p]
					if acc == 0 {
						continue
					}
					nlv[p] |= acc
					tp |= uint64(1) << uint(p)
					o := tbase + 2*p*nw + vw
					trail[o] = trail[o]&^acc | tLo[p]
					trail[o+nw] = trail[o+nw]&^acc | tHi[p]
				}
			}
			for p := 0; p < numPlanes; p++ {
				if tp&(uint64(1)<<uint(p)) != 0 {
					nr[p*nw+iWord] |= iBit
				}
			}
		}
	}

	m.cur, m.nxt = nxt, cur
	m.live, m.nlive = nlive, live
	wd.rows, wd.nrows = nr, rows
	// Clear the vacated masks (now the next side), maintaining the
	// between-cycles invariant that the next side is all zero. One pass
	// over the union of the old row summaries clears all planes of a row
	// in one contiguous run.
	for iw := 0; iw < nw; iw++ {
		rowsAny := rows[pM0*nw+iw] | rows[pI0*nw+iw] | rows[pD0*nw+iw] |
			rows[pM1*nw+iw] | rows[pI1*nw+iw] | rows[pD1*nw+iw] | rows[pWT*nw+iw]
		for rw := rowsAny; rw != 0; rw &= rw - 1 {
			i := iw<<6 + bits.TrailingZeros64(rw)
			lb := i * nw * planeStride
			z := live[lb : lb+nw*planeStride]
			for x := range z {
				z[x] = 0
			}
		}
	}
	wd.best = best
	wd.bestI, wd.bestD, wd.bestCycle, wd.bestPlan = bestI, bestD, bestCycle, bestPlan
	wd.mux = mux
	return any
}

// extendWide runs the bound pass, the forward pass over the trail ring,
// then the backward walk over the time-indexed trail, replaying evicted
// windows on demand. Every register the walk visits was written this pass
// at exactly the cycle it holds, so each code read names the true source.
func (m *Machine) extendWide(ref, query dna.Seq) Result {
	wd := m.wide
	n, qn := len(ref), len(query)
	maxCycle := sillax.StreamCycles(n, qn, m.k)
	wd.ref, wd.query = ref, query
	wd.maxCycle = maxCycle
	m.wideSuffixBound(ref, query)
	wd.bound = m.wideWitness(ref, query)
	m.ensureWide(maxCycle)
	m.resetWide()
	wd.best, wd.bestI, wd.bestD, wd.bestCycle, wd.bestPlan = 0, 0, 0, 0, pM0
	wd.mux = 0
	C := wd.win
	replays := 2*C <= maxCycle // otherwise the ring holds the whole pass
	jLast := 0
	for c := 0; c <= maxCycle; c++ {
		if replays && c%C == 0 {
			m.saveSnap(c / C)
		}
		jLast = c / C
		if !m.stepWide(c) {
			break
		}
	}
	wd.resLoWin = jLast - 1
	if wd.resLoWin < 0 {
		wd.resLoWin = 0
	}

	best := wd.best
	bestI, bestD, bestCycle, bestPlane := wd.bestI, wd.bestD, wd.bestCycle, wd.bestPlan
	res := Result{Score: int(best), Cycles: maxCycle + 1 + 4*m.k, MuxCrossings: wd.mux}
	rev := m.revBuf[:0]
	if tail := qn - (bestCycle - bestD); best > 0 && tail > 0 {
		rev = rev.Append(align.OpClip, tail)
	} else if best == 0 {
		rev = rev.Append(align.OpClip, qn)
	}
	if best > 0 {
		t, i, d, p := bestCycle, bestI, bestD, bestPlane
		for t > 0 {
			switch p {
			case pM0:
				code := m.wideTrailCode(pM0, t, i, d)
				if code == codeWait {
					// The second substitution of a merged pair: one X
					// spanning the two-cycle hop back to the wait state's
					// layer-1 source.
					rev = rev.Append(align.OpMismatch, 1)
					i--
					d--
					t -= 2
					p = 3 + m.wideTrailCode(pWT, t+1, i, d)
				} else {
					rev = rev.Append(align.OpMatch, 1)
					p = code
					t--
				}
			case pM1:
				// Written by layer 1's own match or by layer 0's first
				// substitution; the comparator output at the write cycle,
				// recomputed from the strings, names the branch.
				code := m.wideTrailCode(pM1, t, i, d)
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
				code := m.wideTrailCode(p, t, i, d)
				if p == pI1 {
					code += 3
				}
				p = code
				i--
				t--
			default: // pD0, pD1
				rev = rev.Append(align.OpDel, 1)
				code := m.wideTrailCode(p, t, i, d)
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
	wd.ref, wd.query = nil, nil
	return res
}
