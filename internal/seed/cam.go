package seed

import "math/bits"

// camSize is the capacity of the CAM each seeding lane intersects hit sets
// in (512 entries in GenAx, §V).
const camSize = 512

// camCost returns the CAM operations (entry loads plus probes) the lane's
// FSM spends intersecting nCur candidates with nIn incoming hits. The FSM
// knows both set sizes and takes the cheapest feasible strategy:
//
//   - load one set and probe with the other, nCur+nIn, when either set fits
//     the size-entry CAM;
//   - stream the incoming list through the CAM in size-entry chunks,
//     nIn + nCur·⌈nIn/size⌉, the Fig 16b "linear" baseline;
//   - with binary search on (optimization two: position tables are sorted
//     offline), nCur·(⌊log2 nIn⌋+1) probes of the sorted list, or 0 when
//     either set is empty.
//
// Every strategy yields the same set, so the strategy shows only here.
//
//genax:hotpath
func camCost(nCur, nIn, size int, binary bool) int {
	cost := nIn + nCur*((nIn+size-1)/size)
	if nCur <= size || nIn <= size {
		cost = min(cost, nCur+nIn)
	}
	if binary {
		cost = min(cost, nCur*bits.Len(uint(nIn))) // bits.Len(0) == 0
	}
	return cost
}

// intersectSorted appends to dst every c of cur for which c+delta is in
// hits, in cur's order, and returns the extended slice. Both lists are
// strictly ascending (position tables are sorted; the pivot normalisation
// subtracts a constant). It walks the shorter list and gallops through the
// longer one, so a repeated k-mer's long hit list costs a log factor per
// candidate, as the chip's binary search does. An unsorted list (a corrupt
// mapped table) gives a wrong answer but never an out-of-range index.
//
//genax:hotpath
func intersectSorted(dst, cur, hits []int32, delta int32) []int32 {
	if len(cur) <= len(hits) {
		j := 0
		for _, c := range cur {
			if j = gallop(hits, j, c+delta); j == len(hits) {
				break
			}
			if hits[j] == c+delta {
				dst = append(dst, c)
				j++
			}
		}
		return dst
	}
	i := 0
	for _, h := range hits {
		if i = gallop(cur, i, h-delta); i == len(cur) {
			break
		}
		if cur[i] == h-delta {
			dst = append(dst, cur[i])
			i++
		}
	}
	return dst
}

// gallop returns the first index i >= lo with s[i] >= v, or len(s) if there
// is none. It probes lo+1, lo+3, lo+7, … until it passes v, then binary
// searches the last step, so it costs O(log d) for a target d places on.
//
//genax:hotpath
func gallop(s []int32, lo int, v int32) int {
	if lo >= len(s) || s[lo] >= v {
		return lo
	}
	// s[lo] < v; widen the step until s[hi] >= v or hi runs off the end.
	step, hi := 1, lo+1
	for hi < len(s) && s[hi] < v {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	hi = min(hi, len(s))
	for lo++; lo < hi; {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
