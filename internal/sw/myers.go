package sw

import "genax/internal/dna"

// MyersDistance computes the global Levenshtein distance between a and b
// with Myers' bit-vector algorithm [Myers 1999, ref 15 of the paper],
// generalized to arbitrary pattern lengths with Hyyrö's block scheme.
// It runs in O(|a| * ceil(|b|/64)) time and is the strongest software
// edit-distance baseline available to short-read aligners.
func MyersDistance(a, b dna.Seq) int {
	m := len(b)
	if m == 0 {
		return len(a)
	}
	if len(a) == 0 {
		return m
	}
	nblk := (m + 63) / 64
	// peq[blk][base]: bitmask of pattern positions within the block that
	// hold the base.
	peq := make([][dna.NumBases]uint64, nblk)
	for j, base := range b {
		peq[j/64][base] |= 1 << uint(j%64)
	}
	pv := make([]uint64, nblk)
	mv := make([]uint64, nblk)
	for i := range pv {
		pv[i] = ^uint64(0)
	}
	lastBits := uint(m - (nblk-1)*64) // rows used in the final block
	scoreBit := uint64(1) << (lastBits - 1)

	score := m
	for _, ca := range a {
		hin := 1 // global alignment: row 0 increases by one per column
		for blk := 0; blk < nblk; blk++ {
			eq := peq[blk][ca]
			pvb, mvb := pv[blk], mv[blk]
			xv := eq | mvb
			if hin < 0 {
				eq |= 1
			}
			xh := (((eq & pvb) + pvb) ^ pvb) | eq
			ph := mvb | ^(xh | pvb)
			mh := pvb & xh
			var top uint64 = 1 << 63
			if blk == nblk-1 {
				top = scoreBit
			}
			hout := 0
			if ph&top != 0 {
				hout = 1
			} else if mh&top != 0 {
				hout = -1
			}
			ph <<= 1
			mh <<= 1
			if hin > 0 {
				ph |= 1
			} else if hin < 0 {
				mh |= 1
			}
			pv[blk] = mh | ^(xv | ph)
			mv[blk] = ph & xv
			hin = hout
		}
		score += hin
	}
	return score
}
