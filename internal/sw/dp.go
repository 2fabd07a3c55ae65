// Package sw implements the software approximate-string-matching baselines
// the paper compares against (§II, §VII, §VIII-C): full Smith-Waterman with
// affine gaps and traceback (Gotoh) in BWA-MEM's seed-extension mode, its
// banded variant, and Myers' bit-vector edit distance. These serve three
// roles: CPU baselines for the Fig 14/15 benchmarks, components of the
// BWA-MEM-like software pipeline, and oracles for the Silla/SillaX property
// tests.
package sw

import (
	"genax/internal/align"
	"genax/internal/dna"
)

// negInf is a sentinel low enough to never win a max but far from
// overflowing when penalties are subtracted from it.
const negInf = -1 << 29

// matrix identifiers for traceback.
const (
	matH = iota // match/mismatch (closed) state
	matI        // gap in reference (insertion: extra query base)
	matD        // gap in query (deletion: missing query base)
)

// Aligner runs affine-gap dynamic programming with traceback. The zero
// value is not usable; construct with NewAligner. Scratch buffers are
// reused across calls, so an Aligner is not safe for concurrent use.
type Aligner struct {
	sc align.Scoring
	// DP rows (query-major: row i covers ref prefix length i).
	h, e, f []int32
	// Traceback: from[m][idx] encodes, for matrix m at cell idx, which
	// matrix the optimal predecessor lives in (2 bits each).
	fromH, fromI, fromD []uint8
	cols                int
}

// NewAligner returns an Aligner for the given scoring scheme.
func NewAligner(sc align.Scoring) *Aligner {
	return &Aligner{sc: sc}
}

// Align extends query along ref and returns the best alignment with a full
// edit trace. Both sequences are anchored at position 0 and the score is
// maximized over every prefix pair — BWA-MEM's seed-extension step with
// clipping (§IV-B): the best score seen anywhere wins, never below the
// empty extension's 0, and the remaining query suffix is soft-clipped.
func (a *Aligner) Align(ref, query dna.Seq) align.Result {
	n, m := len(ref), len(query)
	cols := n + 1
	rows := m + 1
	size := cols * rows
	if cap(a.h) < size {
		a.h = make([]int32, size)
		a.e = make([]int32, size)
		a.f = make([]int32, size)
		a.fromH = make([]uint8, size)
		a.fromI = make([]uint8, size)
		a.fromD = make([]uint8, size)
	}
	a.cols = cols
	h, e, f := a.h[:size], a.e[:size], a.f[:size]
	fromH, fromI, fromD := a.fromH[:size], a.fromI[:size], a.fromD[:size]

	open := int32(a.sc.GapOpen + a.sc.GapExtend)
	ext := int32(a.sc.GapExtend)
	match := int32(a.sc.Match)
	mismatch := int32(a.sc.Mismatch)

	// Boundary conditions. Row index q = query prefix length, column
	// index r = ref prefix length. e = gap-in-ref (consumes query,
	// vertical in this layout), f = gap-in-query (consumes ref).
	idx := func(q, r int) int { return q*cols + r }
	h[0] = 0
	e[0], f[0] = negInf, negInf
	for r := 1; r <= n; r++ {
		i := idx(0, r)
		e[i] = negInf
		f[i] = -open - ext*int32(r-1)
		h[i] = f[i]
		fromH[i] = matD
		fromD[i] = matD
	}
	for q := 1; q <= m; q++ {
		i := idx(q, 0)
		f[i] = negInf
		e[i] = -open - ext*int32(q-1)
		h[i] = e[i]
		fromH[i] = matI
		fromI[i] = matI
	}

	bestScore := int32(0)
	bestQ, bestR := 0, 0
	for q := 1; q <= m; q++ {
		qb := query[q-1]
		rowi := idx(q, 0)
		prowi := idx(q-1, 0)
		for r := 1; r <= n; r++ {
			i := rowi + r
			up := rowi + r - 1 // (q, r-1): left neighbour (consumes ref)
			diag := prowi + r - 1
			vert := prowi + r // (q-1, r): consumes query

			// e: gap in reference (insertion). Extends from above.
			eo := h[vert] - open
			ee := e[vert] - ext
			if eo >= ee {
				e[i], fromI[i] = eo, matH
			} else {
				e[i], fromI[i] = ee, matI
			}
			// f: gap in query (deletion). Extends from the left.
			fo := h[up] - open
			fe := f[up] - ext
			if fo >= fe {
				f[i], fromD[i] = fo, matH
			} else {
				f[i], fromD[i] = fe, matD
			}
			// h: diagonal step plus best of the three states.
			var sub int32
			if ref[r-1] == qb {
				sub = h[diag] + match
			} else {
				sub = h[diag] - mismatch
			}
			hv, from := sub, uint8(matH)
			if e[i] > hv {
				hv, from = e[i], matI
			}
			if f[i] > hv {
				hv, from = f[i], matD
			}
			h[i], fromH[i] = hv, from
			if hv > bestScore {
				bestScore, bestQ, bestR = hv, q, r
			}
		}
	}
	return a.traceback(ref, query, int(bestScore), bestQ, bestR)
}

// traceback reconstructs the edit trace ending at cell (bq, br) in matrix
// H, soft-clipping the query suffix past bq.
func (a *Aligner) traceback(ref, query dna.Seq, score, bq, br int) align.Result {
	cols := a.cols
	var rev align.Cigar
	if tail := len(query) - bq; tail > 0 {
		rev = rev.Append(align.OpClip, tail)
	}
	q, r := bq, br
	mat := matH
	for q > 0 || r > 0 {
		i := q*cols + r
		switch mat {
		case matH:
			if q == 0 {
				mat = matD
				continue
			}
			if r == 0 {
				mat = matI
				continue
			}
			from := a.fromH[i]
			if from == matH {
				if ref[r-1] == query[q-1] {
					rev = rev.Append(align.OpMatch, 1)
				} else {
					rev = rev.Append(align.OpMismatch, 1)
				}
				q--
				r--
			} else {
				mat = int(from)
			}
		case matI:
			rev = rev.Append(align.OpIns, 1)
			from := a.fromI[i]
			q--
			mat = int(from)
		case matD:
			rev = rev.Append(align.OpDel, 1)
			from := a.fromD[i]
			r--
			mat = int(from)
		}
	}
	return align.Result{Score: score, Cigar: rev.Reverse()}
}

// EditDistance computes the plain Levenshtein distance by full dynamic
// programming — the O(N²) oracle everything else is validated against.
func EditDistance(a, b dna.Seq) int {
	n, m := len(a), len(b)
	prev := make([]int, m+1)
	cur := make([]int, m+1)
	for j := 0; j <= m; j++ {
		prev[j] = j
	}
	for i := 1; i <= n; i++ {
		cur[0] = i
		for j := 1; j <= m; j++ {
			c := prev[j-1]
			if a[i-1] != b[j-1] {
				c++
			}
			if v := prev[j] + 1; v < c {
				c = v
			}
			if v := cur[j-1] + 1; v < c {
				c = v
			}
			cur[j] = c
		}
		prev, cur = cur, prev
	}
	return prev[m]
}
