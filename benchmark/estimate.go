package main

import (
	"sort"
	"time"
)

// bestOfVisits is the benchmark's timing rule. times[r][s] is how long
// slice s took on pass r; interference from the host only ever adds time,
// so each slice is charged its fastest visit and the workload the sum of
// those minima. Passes may be ragged only by being absent: every pass
// covers every slice.
func bestOfVisits(times [][]time.Duration) time.Duration {
	if len(times) == 0 {
		return 0
	}
	var total time.Duration
	for s := range times[0] {
		best := times[0][s]
		for _, pass := range times[1:] {
			if pass[s] < best {
				best = pass[s]
			}
		}
		total += best
	}
	return total
}

// medianPass is the plain figure the best-of-visits rule replaces: the
// median over passes of a whole pass's time.
func medianPass(times [][]time.Duration) time.Duration {
	totals := make([]float64, len(times))
	for r, pass := range times {
		var t time.Duration
		for _, d := range pass {
			t += d
		}
		totals[r] = float64(t)
	}
	return time.Duration(median(totals))
}

// percentile returns the p-th percentile (0..100) of vals by linear
// interpolation between closest ranks; vals need not be sorted and is not
// modified. An empty input reads as 0.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return percentile(vals, 50) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// quartileSpread is the agreement figure the acceptance rule uses: the
// distance between the first and third quartile as a share of the median,
// with the quartiles placed like Python's statistics.quantiles(n=4)
// (exclusive method), so -repeat prints what the harness will compute.
func quartileSpread(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}
