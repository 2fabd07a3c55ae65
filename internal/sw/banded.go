package sw

import (
	"genax/internal/align"
	"genax/internal/dna"
)

// BandedAligner runs the banded affine-gap extension DP — the "banded
// Smith-Waterman" that BWA-MEM and the paper's SeqAn CPU baseline use
// (§VIII-C: O(KN) time, 2K+1 band around the principal diagonal).
// Scratch buffers are reused; not safe for concurrent use.
type BandedAligner struct {
	sc    align.Scoring
	band  int
	h     []int32
	e     []int32
	f     []int32
	fromH []uint8
	fromI []uint8
	fromD []uint8
	cells int
}

// NewBandedAligner returns a banded aligner with band radius k (the band
// covers diagonals |q-r| <= k).
func NewBandedAligner(sc align.Scoring, k int) *BandedAligner {
	if k < 1 {
		k = 1
	}
	return &BandedAligner{sc: sc, band: k}
}

// Band returns the band radius.
func (ba *BandedAligner) Band() int { return ba.band }

// Cells returns the number of DP cells the last Extend call computed —
// the banded aligner's work unit, the software analogue of the Silla
// machines' cycle counts.
func (ba *BandedAligner) Cells() int { return ba.cells }

// Extend performs the anchored extension of Aligner.Align inside the
// band: both sequences anchored at 0, best prefix-pair score wins, query
// suffix soft-clipped. It is the software twin of the SillaX scoring
// machine and the per-hit kernel of the BWA-MEM-like baseline.
func (ba *BandedAligner) Extend(ref, query dna.Seq) align.Result {
	n, m := len(ref), len(query)
	k := ba.band
	width := 2*k + 1
	rows := m + 1
	size := rows * width
	if cap(ba.h) < size {
		ba.h = make([]int32, size)
		ba.e = make([]int32, size)
		ba.f = make([]int32, size)
		ba.fromH = make([]uint8, size)
		ba.fromI = make([]uint8, size)
		ba.fromD = make([]uint8, size)
	}
	h, e, f := ba.h[:size], ba.e[:size], ba.f[:size]
	fromH, fromI, fromD := ba.fromH[:size], ba.fromI[:size], ba.fromD[:size]

	open := int32(ba.sc.GapOpen + ba.sc.GapExtend)
	ext := int32(ba.sc.GapExtend)
	match := int32(ba.sc.Match)
	mismatch := int32(ba.sc.Mismatch)

	// Cell (q, r) lives at row q, band column c = r - q + k.
	at := func(q, c int) int { return q*width + c }
	for i := range h[:size] {
		h[i], e[i], f[i] = negInf, negInf, negInf
	}
	cells := 0
	// Row 0: r from 0..min(n,k).
	for r := 0; r <= n && r <= k; r++ {
		cells++
		i := at(0, r+k)
		if r == 0 {
			h[i] = 0
		} else {
			f[i] = -open - ext*int32(r-1)
			h[i] = f[i]
			fromH[i] = matD
			fromD[i] = matD
		}
	}
	bestScore := int32(0)
	bestQ, bestC := 0, k
	for q := 1; q <= m; q++ {
		lo, hi := q-k, q+k
		if lo < 0 {
			lo = 0
		}
		if hi > n {
			hi = n
		}
		if hi >= lo {
			cells += hi - lo + 1
		}
		for r := lo; r <= hi; r++ {
			c := r - q + k
			i := at(q, c)
			if r == 0 {
				ev := -open - ext*int32(q-1)
				e[i] = ev
				h[i] = ev
				fromH[i] = matI
				fromI[i] = matI
				continue
			}
			// e (insertion, consumes query): from (q-1, r) = row q-1, col c+1.
			e[i] = negInf
			if c+1 < width {
				vi := at(q-1, c+1)
				eo, ee := h[vi]-open, e[vi]-ext
				if eo >= ee {
					e[i], fromI[i] = eo, matH
				} else {
					e[i], fromI[i] = ee, matI
				}
			}
			// f (deletion, consumes ref): from (q, r-1) = row q, col c-1.
			f[i] = negInf
			if c-1 >= 0 {
				li := at(q, c-1)
				fo, fe := h[li]-open, f[li]-ext
				if fo >= fe {
					f[i], fromD[i] = fo, matH
				} else {
					f[i], fromD[i] = fe, matD
				}
			}
			// diagonal: (q-1, r-1) = row q-1, same col.
			di := at(q-1, c)
			var sub int32 = negInf
			if h[di] > negInf {
				if ref[r-1] == query[q-1] {
					sub = h[di] + match
				} else {
					sub = h[di] - mismatch
				}
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
				bestScore, bestQ, bestC = hv, q, c
			}
		}
	}
	ba.cells = cells
	return ba.traceback(ref, query, int(bestScore), bestQ, bestC)
}

func (ba *BandedAligner) traceback(ref, query dna.Seq, score, bq, bc int) align.Result {
	k := ba.band
	width := 2*k + 1
	var rev align.Cigar
	if tail := len(query) - bq; tail > 0 {
		rev = rev.Append(align.OpClip, tail)
	}
	q, c := bq, bc
	mat := matH
	for {
		r := q + c - k
		if q == 0 && r == 0 {
			break
		}
		i := q*width + c
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
			from := ba.fromH[i]
			if from == matH {
				if ref[r-1] == query[q-1] {
					rev = rev.Append(align.OpMatch, 1)
				} else {
					rev = rev.Append(align.OpMismatch, 1)
				}
				q-- // diagonal: same band column
			} else {
				mat = int(from)
			}
		case matI:
			rev = rev.Append(align.OpIns, 1)
			from := ba.fromI[i]
			q--
			c++
			mat = int(from)
		case matD:
			rev = rev.Append(align.OpDel, 1)
			from := ba.fromD[i]
			c--
			mat = int(from)
		}
	}
	return align.Result{RefPos: 0, Score: score, Cigar: rev.Reverse()}
}
