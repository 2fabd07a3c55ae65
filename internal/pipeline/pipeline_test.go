package pipeline

import "testing"

// TestSplitLanes pins the 128:4 proportion, including the chip's own
// budget mapping exactly to its lane counts.
func TestSplitLanes(t *testing.T) {
	cases := []struct {
		budget, seed, ext int
	}{
		{132, 128, 4},
		{1, 1, 1},
		{2, 1, 1},
		{4, 3, 1},
		{8, 7, 1},
		{33, 32, 1},
		{66, 64, 2},
		{264, 256, 8},
		{0, 1, 1},
		{-3, 1, 1},
	}
	for _, tc := range cases {
		s, e := SplitLanes(tc.budget)
		if s != tc.seed || e != tc.ext {
			t.Errorf("SplitLanes(%d) = (%d, %d), want (%d, %d)", tc.budget, s, e, tc.seed, tc.ext)
		}
	}
}
