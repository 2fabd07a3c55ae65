package seed

import (
	"math/rand"
	"slices"
	"testing"
)

// TestCAMCost pins the CAM charge of each strategy the modelled FSM can
// take, and that it takes the cheapest one the options allow.
func TestCAMCost(t *testing.T) {
	for _, tc := range []struct {
		name            string
		nCur, nIn, size int
		binary          bool
		want            int
	}{
		{"probe: 3 loads + 4 probes", 3, 4, 4, false, 3 + 4},
		{"probe beats binary search", 3, 4, 4, true, 3 + 4},
		{"binary search: 10 × (⌊log2 1024⌋+1)", 10, 1024, 512, true, 110},
		{"binary search on a single hit", 1, 1, 512, true, 1},
		{"chunked: 9 loads + 6 probes × 3 chunks", 6, 9, 4, false, 9 + 18},
		{"binary search beats chunking", 6, 9, 4, true, 6 * 4},
		{"chunked, neither set fits", 1000, 600, 512, false, 600 + 1000*2},
		{"no candidates, binary search", 0, 100, 512, true, 0},
		{"no hits, binary search", 100, 0, 512, true, 0},
		{"no hits, chunked", 5, 0, 4, false, 0},
		{"no candidates, probe the hits", 0, 7, 4, false, 7},
	} {
		if got := camCost(tc.nCur, tc.nIn, tc.size, tc.binary); got != tc.want {
			t.Errorf("%s: camCost(%d, %d, %d, %v) = %d, want %d", tc.name, tc.nCur, tc.nIn, tc.size, tc.binary, got, tc.want)
		}
	}
}

// ascending returns n distinct values of [0, limit), sorted.
func ascending(r *rand.Rand, n int, limit int32) []int32 {
	seen := make(map[int32]bool, n)
	out := make([]int32, 0, n)
	for len(out) < n {
		if v := r.Int31n(limit); !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

// TestIntersectSorted checks the one intersection against a map reference
// on strictly ascending lists whose sizes differ by up to 4096×, either
// list the longer, with and without a delta, appending after a dst prefix
// that must survive. It checks gallop against a linear scan on the same
// lists, and that an unsorted list (a corrupt mapped table) cannot make
// either index out of range.
func TestIntersectSorted(t *testing.T) {
	r := rand.New(rand.NewSource(221))
	matched := 0
	for _, ratio := range []int{1, 2, 7, 64, 512, 4096} {
		for trial := 0; trial < 20; trial++ {
			short := 1 + r.Intn(4)
			long := short * ratio
			limit := int32(2*long + 8)
			nCur, nHits := short, long
			if trial%2 == 1 {
				nCur, nHits = long, short
			}
			cur, hits := ascending(r, nCur, limit), ascending(r, nHits, limit)
			delta := int32(r.Intn(7) - 3)
			in := make(map[int32]bool, len(hits))
			for _, h := range hits {
				in[h] = true
			}
			want := []int32{-7, 42}
			for _, c := range cur {
				if in[c+delta] {
					want = append(want, c)
				}
			}
			matched += len(want) - 2
			if got := intersectSorted([]int32{-7, 42}, cur, hits, delta); !slices.Equal(got, want) {
				t.Fatalf("ratio %d trial %d delta %d: got %v, want %v\ncur  %v\nhits %v", ratio, trial, delta, got, want, cur, hits)
			}
			for _, s := range [][]int32{cur, hits} {
				for lo := 0; lo <= len(s); lo += 1 + len(s)/16 {
					for _, v := range []int32{-1, s[min(lo, len(s)-1)], s[len(s)-1], s[len(s)-1] + 1, r.Int31n(limit)} {
						i := lo
						for i < len(s) && s[i] < v {
							i++
						}
						if got := gallop(s, lo, v); got != i {
							t.Fatalf("gallop(len %d, lo %d, %d) = %d, want %d", len(s), lo, v, got, i)
						}
					}
				}
			}
		}
	}
	if matched == 0 {
		t.Fatal("no trial had a match; the reference compared nothing")
	}
	// A corrupt mapped table is not sorted: the answer may be wrong, but
	// the walk must stay in range whichever list is the longer.
	for trial := 0; trial < 50; trial++ {
		a, b := ascending(r, 1+r.Intn(8), 64), ascending(r, 1+r.Intn(200), 256)
		r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		intersectSorted(nil, a, b, 1)
		intersectSorted(nil, b, a, -1)
	}
}
