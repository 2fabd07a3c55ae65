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
// Exactness: an offer of value v into a state that can still add at most
// U can contribute at most v + U to the final best. Dropping offers with
// v + U < L keeps every cell of every final-score-achieving chain (those
// have v + U >= S >= L), and the value-determining ancestry of such cells
// is closed under the same property — a predecessor's bound is never below
// its successor's.
// Offers of equal value into the same cell share coordinates and therefore
// share prune status, so the strict-greater races that pick trail codes
// are decided among exactly the same contenders; the reported best, its
// chain, and every trail word the walk reads are byte-identical to the
// unpruned pass for ANY L <= S. L > S would be unsound; L is therefore
// always the score of one concrete machine-legal witness alignment.
//
// One backward pass yields both bounds. wideSuffixBound fills the suffix
// table U over the score band ±h (see there), and wideWitness reads L off
// that table's own best path: from the origin's closed entry it follows,
// cell by cell, whichever option produced the stored value — close (match
// or substitution), insertion, deletion, or, in a closed state, stop at
// the >= 0 floor. Every step is a transition the machine allows, priced
// with the machine's costs. One edit per substitution, inserted base and
// deleted base is exactly the machine's budget i + d + layer (the
// i+d+1+layer <= k branch guards of stepWide), and it never falls along a
// path, so every prefix with at most K edits is a path the machine runs
// (|refPos - qPos| <= edits <= K; the walk never leaves the band either).
// Only closed prefixes count, because the machine records a best only
// from closed states; it clips the query tail for free, so the best such
// prefix scores some alignment the machine also scores, and L <= S. When
// the whole path fits the budget its score is U(origin) >= S, so L = S;
// past the budget the walk returns the best prefix before the (K+1)-th
// edit — weaker, but still a witness, so there is no fallback.

import "genax/internal/dna"

// wideSuffixFree fills suffix-table cells whose ref position is outside
// the lattice: no alignment passes there, so they have no future, and
// stepWide's floor drops every offer into them.
const wideSuffixFree = negScore

// wideSuffixBound fills the suffix bound table for one extension: for
// every position (refPos, qPos) with |refPos - qPos| <= h and entry state
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
// The band is the score band |refPos - qPos| <= h, with
// h = min(K, floor((a*qn - GapOpen - L0) / GapExtend)) for a witness
// L0 <= S (extendWide passes the gapless one, gapless.go). A path through
// a cell |δ| diagonals off the origin's carries a gap of at least |δ|
// bases and at most qn matches, so it scores at most
// a*qn - GapOpen - |δ|*GapExtend, which for |δ| > h is strictly below
// L0 <= S. So no chain that can reach S ever leaves the band: for every
// chain the pruning must keep, a move across the edge is a true -inf, and
// U over the band still bounds what such a chain can add. Cells off the
// band lie on no such chain, so stepWide drops every offer into them. At
// h = K the edge is machine-illegal outright (every machine path keeps
// |d - i| <= i + d <= K). The band does not leak: a narrow band with a
// GENEROUS exit bound would bleed that bound inward at -ext per diagonal
// and cap the whole table near a·min(remR, remQ), the bound of matching
// every remaining base, which prunes almost nothing; the score band's
// edge grants nothing, because nothing past it can reach S. The floor in
// h is exact, never one less: a path at |δ| = h can still reach L0, and
// with GapExtend > 1 beat it (TestWideBandEdge plants one). Layout:
// (qPos*(2h+1) + j)*3 + state, with j = refPos - qPos + h and states
// closed/ins/del.
//
// The fill runs a row at a time, up from the exhausted query. Each row's
// lattice range [jlo, jhi] is computed once; its edge cells, at the
// reference's end (r = n: nothing closes or deletes) and on the band's
// lowest diagonal (j = 0: no insertion entry), are peeled, and wideRow
// fills the rest with no lattice test. It carries the deletion entry from
// the cell above in a register, and takes each close step from the
// reference profile prof[x*n + r] (a or -b for query base x) instead of
// comparing bases. That cuts a cell's cost by more than half (DESIGN.md).
// The layout and every value are the plain recurrence's, cell for cell
// (FuzzSuffixBoundVsRef), so stepWide, wideWitness and replay read the
// table unchanged.
func (m *Machine) wideSuffixBound(ref, query dna.Seq) {
	n, qn := len(ref), len(query)
	wd := m.wide
	h := wd.band
	w3 := 3 * (2*h + 1)
	need := (qn + 1) * w3
	if cap(wd.stab) < need {
		wd.stab = make([]int32, need)
	}
	tab := wd.stab[:need]
	wd.stab = tab
	if cap(wd.prof) < dna.NumBases*n {
		wd.prof = make([]int32, dna.NumBases*n)
	}
	prof := wd.prof[:dna.NumBases*n]
	for r, c := range ref {
		for x := 0; x < dna.NumBases; x++ {
			prof[x*n+r] = -m.cs.B
		}
		prof[int(c&3)*n+r] = m.cs.A
	}
	open, ext := m.cs.Open, m.cs.Ext
	for q := qn; q >= 0; q-- {
		cur := tab[q*w3 : q*w3+w3]
		// The row's lattice cells are jlo..jhi (0 <= r <= n).
		jlo, jhi := max(0, h-q), min(2*h, n+h-q)
		head, tail := cur[:3*jlo], cur[max(3*jlo, 3*jhi+3):]
		for i := range head {
			head[i] = wideSuffixFree
		}
		for i := range tail {
			tail[i] = wideSuffixFree
		}
		if q == qn {
			// Query exhausted: nothing can close (a close consumes query),
			// so gap states have no future and closed states gain nothing.
			for j := jlo; j <= jhi; j++ {
				cur[3*j], cur[3*j+1], cur[3*j+2] = 0, negScore, negScore
			}
			continue
		}
		nxt, pr := tab[q*w3+w3:q*w3+2*w3], prof[int(query[q]&3)*n:][:n]
		udn, j := int32(negScore), jhi
		if j >= jlo && q+j-h == n {
			// At the reference's end nothing closes or deletes.
			uin := int32(negScore)
			if j > 0 {
				uin = nxt[3*j-2]
			}
			cur[3*j], cur[3*j+1], udn = wideCell(negScore, uin, udn, open, ext)
			cur[3*j+2] = udn
			j--
		}
		if lo := max(jlo, 1); j >= lo {
			udn = wideRow(cur[3*lo:3*j+3], nxt[3*lo-2:3*j+1], pr[q+lo-h:q+j-h+1], udn, open, ext)
		}
		if jlo == 0 && j >= 0 {
			// The band's lowest diagonal: no insertion entry below it (a
			// band exit is machine-illegal, never bounded).
			cur[0], cur[1], cur[2] = wideCell(nxt[0]+pr[q-h], negScore, udn, open, ext)
		}
	}
}

// wideRow fills a run of interior cells of one row with wideCell's
// recurrence, its shared terms computed once, top down: it carries the
// deletion entry udn from the cell above and returns the last cell's. c
// holds the run's cells, pr their close steps, and nx the row below from
// the insertion entry under the first cell to the closed entry under the
// last, so cell i reads nx[3i] and nx[3i+2].
//
//genax:hotpath
func wideRow(c, nx, pr []int32, udn, open, ext int32) int32 {
	nx, i := nx[:len(c)], len(pr)
	for o := len(c) - 3; o >= 0; o -= 3 {
		i--
		dg, uin := nx[o+2]+pr[i], nx[o]
		uo, v := uin-open, max(dg, udn-open)
		udn = max(dg, uo, udn-ext)
		c[o], c[o+1], c[o+2] = max(0, v, uo), max(v, uin-ext), udn
	}
	return udn
}

// wideCell is the suffix recurrence at one cell: from the close value dg
// (consume both: same diagonal, next row) and the insertion and deletion
// entries it can move into, uin (consume query: one diagonal down, next
// row) and udn (consume ref: one diagonal up, same row), the cell's
// closed entry (floored at 0), insertion entry and deletion entry.
//
//genax:hotpath
func wideCell(dg, uin, udn, open, ext int32) (int32, int32, int32) {
	return max(0, dg, uin-open, udn-open), max(dg, uin-ext, udn-open), max(dg, uin-open, udn-ext)
}

// wideWitness walks the suffix table's best path forward from the origin
// and returns the certified lower bound L: the best score of a closed
// prefix of that path with at most K edits (the band narrows the table,
// not the budget). Options are tried in a fixed order (stop, close,
// insertion, deletion) and the first whose value reproduces the stored
// entry is taken, so the walk is deterministic.
// Every step consumes a query or a reference base, so it ends within
// qn + n steps.
//
//genax:hotpath
func (m *Machine) wideWitness(ref, query dna.Seq) int32 {
	n, qn := len(ref), len(query)
	a, b, open, ext := m.cs.A, m.cs.B, m.cs.Open, m.cs.Ext
	h := m.wide.band
	w := 2*h + 1
	tab := m.wide.stab
	const stClosed, stIns, stDel = 0, 1, 2
	q, j, st := 0, h, stClosed
	score, best := int32(0), int32(0)
	edits := 0
	for {
		r := q + j - h
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
				if edits > m.k {
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
		if edits++; edits > m.k {
			return best
		}
	}
}
