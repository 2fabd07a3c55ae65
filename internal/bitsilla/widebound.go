package bitsilla

// The bound pass, run before every extension at every K. Futility pruning
// against the running best alone is structurally toothless: at cycle c the
// best is ≈ a·c while the completion bound grants a·(cycles remaining) of
// slack, so every state in the (i+d <= K) triangle survives until the
// read's tail and the scan degenerates to the cycle model's dense sweep.
// Pruning against a certified lower bound L on the PASS'S FINAL score S is
// just as exact — see the invariants below — and for a well-matching read
// a near-optimal L collapses the live set to a narrow corridor around the
// true alignment for the whole pass.
//
// Exactness: an offer of value v into a cell with min(remR, remQ) = rem
// can contribute at most v + a·rem to the final best (every remaining
// cycle gains at most a). Dropping offers with v + a·rem < L keeps every
// cell of every final-score-achieving chain (those have v + a·rem >= S >=
// L), and the value-determining ancestry of such cells is closed under the
// same property — a predecessor's bound is never below its successor's.
// Offers of equal value into the same cell share coordinates and therefore
// share prune status, so the strict-greater races that pick trail codes
// are decided among exactly the same contenders; the reported best, its
// chain, and every trail word the walk reads are byte-identical to the
// unpruned pass for ANY L <= S. L > S would be unsound; L is therefore
// always the score of one concrete machine-legal witness alignment.
//
// One backward pass yields both bounds. wideSuffixBound fills the suffix
// table U over the full ±K band, and wideWitness reads L off that table's
// own best path: from the origin's closed entry it follows, cell by cell,
// whichever option produced the stored value — close (match or
// substitution), insertion, deletion, or, in a closed state, stop at the
// >= 0 floor. Every step is a transition the machine allows, priced with
// the machine's costs. One edit per substitution, inserted base and
// deleted base is exactly the machine's budget i + d + layer (the
// i+d+1+layer <= k branch guards of stepWide), and it never falls along a
// path, so every prefix with at most K edits is a path the machine runs
// (|refPos - qPos| <= edits <= K keeps it inside the band). Only closed
// prefixes count, because the machine records a best only from closed
// states; it clips the query tail for free, so the best such prefix scores
// some alignment the machine also scores, and L <= S. When the whole path
// fits the budget its score is U(origin) >= S, so L = S; past the budget
// the walk returns the best prefix before the (K+1)-th edit — weaker, but
// still a witness, so there is no fallback.

import "genax/internal/dna"

// wideSuffixFree marks suffix-table cells whose ref position is outside
// the lattice; the huge value makes the suffix threshold vacuous there,
// deferring to the generic remaining-matches floor.
const wideSuffixFree = int32(1) << 28

// wideSuffixBound fills the suffix bound table for one extension: for
// every position (refPos, qPos) with |refPos - qPos| <= K and entry state
// (closed, insertion, deletion), an UPPER bound on the score any state
// there can still add — the free-end banded affine DP run backward, with
// no edit budget (dropping a constraint only raises an upper bound). A
// state of value v at that position can contribute at most v + U to the
// pass's final best, so offers with v + U < L die without touching
// anything the witness argument protects: a cell on any final-score-
// achieving chain has v + achievable >= S, and U >= achievable by
// soundness, so the whole value-determining ancestry clears the
// threshold. The closed bound is floored at zero because a closed value
// was already a best candidate when written — that floor is what keeps
// every potential recording alive.
//
// The band is the FULL +-K diagonal range: every machine path keeps
// |d - i| <= i + d <= K, so a position outside the band is unreachable
// and a move across the band edge is machine-illegal — the boundary is a
// true -inf, which is what makes the interior tight. (A generous band-exit
// bound would leak inward at -ext per diagonal and cap the whole table
// near the generic floor.) Layout: (qPos*(2K+1) + j)*3 + state, with
// j = refPos - qPos + K and states closed/ins/del.
func (m *Machine) wideSuffixBound(ref, query dna.Seq) {
	n, qn := len(ref), len(query)
	a, b, open, ext := m.cs.A, m.cs.B, m.cs.Open, m.cs.Ext
	kk := m.k
	w := 2*kk + 1
	need := (qn + 1) * w * 3
	wd := m.wide
	if cap(wd.stab) < need {
		wd.stab = make([]int32, need)
	}
	tab := wd.stab[:need]
	wd.stab = tab
	// Query exhausted: nothing can close (a close consumes query), so
	// gap states have no future and closed states gain nothing more.
	for j := 0; j < w; j++ {
		r := qn + j - kk
		o := (qn*w + j) * 3
		if r < 0 || r > n {
			tab[o], tab[o+1], tab[o+2] = wideSuffixFree, wideSuffixFree, wideSuffixFree
			continue
		}
		tab[o], tab[o+1], tab[o+2] = 0, negScore, negScore
	}
	for q := qn - 1; q >= 0; q-- {
		row, nxt := q*w*3, (q+1)*w*3
		for j := w - 1; j >= 0; j-- {
			r := q + j - kk
			o := row + j*3
			if r < 0 || r > n {
				tab[o], tab[o+1], tab[o+2] = wideSuffixFree, wideSuffixFree, wideSuffixFree
				continue
			}
			// Close: consume both, same diagonal in the next row.
			dg := int32(negScore)
			if r < n {
				nm := tab[nxt+j*3]
				if ref[r]&3 == query[q]&3 {
					dg = nm + a
				} else {
					dg = nm - b
				}
			}
			// Insertion entry: consume query, one diagonal down in the
			// next row. A band exit is machine-illegal, never bounded.
			uin := int32(negScore)
			if j > 0 {
				uin = tab[nxt+(j-1)*3+1]
			}
			// Deletion entry: consume ref, within this row; computed
			// first by the descending sweep.
			udn := int32(negScore)
			if r < n && j+1 < w {
				udn = tab[row+(j+1)*3+2]
			}
			um := int32(0)
			if dg > um {
				um = dg
			}
			ui, ud := dg, dg
			if v := uin - open; v > um {
				um = v
			}
			if v := udn - open; v > um {
				um = v
			}
			if v := uin - ext; v > ui {
				ui = v
			}
			if v := udn - open; v > ui {
				ui = v
			}
			if v := uin - open; v > ud {
				ud = v
			}
			if v := udn - ext; v > ud {
				ud = v
			}
			tab[o], tab[o+1], tab[o+2] = um, ui, ud
		}
	}
}

// wideWitness walks the suffix table's best path forward from the origin
// and returns the certified lower bound L: the best score of a closed
// prefix of that path with at most K edits. Options are tried in a fixed
// order (stop, close, insertion, deletion) and the first whose value
// reproduces the stored entry is taken, so the walk is deterministic.
// Every step consumes a query or a reference base, so it ends within
// qn + n steps.
//
//genax:hotpath
func (m *Machine) wideWitness(ref, query dna.Seq) int32 {
	n, qn := len(ref), len(query)
	a, b, open, ext := m.cs.A, m.cs.B, m.cs.Open, m.cs.Ext
	kk := m.k
	w := 2*kk + 1
	tab := m.wide.stab
	const stClosed, stIns, stDel = 0, 1, 2
	q, j, st := 0, kk, stClosed
	score, best := int32(0), int32(0)
	edits := 0
	for {
		r := q + j - kk
		row := q * w * 3
		u := tab[row+j*3+st]
		if st == stClosed {
			if score > best {
				best = score
			}
			if u == 0 {
				return best // the >= 0 floor: nothing left to gain
			}
		}
		if q < qn && r < n {
			nm := tab[row+w*3+j*3]
			step, e := a, 0
			if ref[r]&3 != query[q]&3 {
				step, e = -b, 1
			}
			if nm+step == u {
				score += step
				edits += e
				q, st = q+1, stClosed
				if edits > kk {
					return best
				}
				continue
			}
		}
		gi, gd := open, open // entering an insertion / deletion from st
		if st == stIns {
			gi = ext
		} else if st == stDel {
			gd = ext
		}
		switch {
		case q < qn && j > 0 && tab[row+w*3+(j-1)*3+stIns]-gi == u:
			score -= gi
			q, j, st = q+1, j-1, stIns
		case r < n && j+1 < w && tab[row+(j+1)*3+stDel]-gd == u:
			score -= gd
			j, st = j+1, stDel
		default:
			return best
		}
		if edits++; edits > kk {
			return best
		}
	}
}
