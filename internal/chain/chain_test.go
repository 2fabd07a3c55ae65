package chain

import (
	"math/rand"
	"testing"
)

func collapse(t *testing.T, anchors []Anchor, maxGap int32) []int32 {
	t.Helper()
	var c Chainer
	c.Reset()
	for _, a := range anchors {
		c.Add(a.Q0, a.Q1, a.R)
	}
	keep := c.Collapse(maxGap)
	for i := 1; i < len(keep); i++ {
		if keep[i-1] >= keep[i] {
			t.Fatalf("keep not strictly ascending: %v", keep)
		}
	}
	return append([]int32(nil), keep...)
}

func TestCollapseEmptyAndSingle(t *testing.T) {
	if got := collapse(t, nil, 40); len(got) != 0 {
		t.Fatalf("empty group kept %v", got)
	}
	if got := collapse(t, []Anchor{{Q0: 5, Q1: 17, R: 100}}, 40); len(got) != 1 || got[0] != 0 {
		t.Fatalf("single anchor kept %v, want [0]", got)
	}
}

// TestCollapseCollinear: anchors along one alignment, drifting a few bases
// off the diagonal (indels), collapse to the single longest anchor.
func TestCollapseCollinear(t *testing.T) {
	anchors := []Anchor{
		{Q0: 0, Q1: 12, R: 1000},
		{Q0: 40, Q1: 52, R: 1043},  // +3 drift
		{Q0: 80, Q1: 100, R: 1081}, // longest (20)
		{Q0: 120, Q1: 132, R: 1122},
	}
	got := collapse(t, anchors, 40)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("collinear chain kept %v, want [2] (longest anchor)", got)
	}
}

// TestCollapseShortAnchorBeforeLong: a short anchor one diagonal before a
// long one (a long read's anchors at one locus, maxGap K=80) chains with it.
// Counted from starts, the link gains only min(168, 22, 21) = 21, less than
// the long anchor scores alone, so [0, 21) would be extended on its own.
func TestCollapseShortAnchorBeforeLong(t *testing.T) {
	anchors := []Anchor{
		{Q0: 0, Q1: 21, R: 28273},
		{Q0: 22, Q1: 190, R: 28294}, // longest (168)
		{Q0: 400, Q1: 476, R: 28674},
		{Q0: 1052, Q1: 1107, R: 29327},
	}
	if got := collapse(t, anchors, 80); len(got) != 1 || got[0] != 1 {
		t.Fatalf("one locus kept %v, want [1] (longest anchor)", got)
	}
}

// TestCollapseSkippedAnchor: [409, 431) lies between [276, 408) and
// [484, 665), each a diagonal off the last. Counted from starts, linking
// [484, 665) straight to [276, 408) skips it and scores higher, so it
// would be peeled off as a chain of its own; counted from ends, the route
// through it wins and the locus stays one chain.
func TestCollapseSkippedAnchor(t *testing.T) {
	anchors := []Anchor{
		{Q0: 0, Q1: 51, R: 87546},
		{Q0: 176, Q1: 267, R: 87721},
		{Q0: 276, Q1: 408, R: 87820},
		{Q0: 409, Q1: 431, R: 87952},
		{Q0: 484, Q1: 665, R: 88026}, // longest (181)
		{Q0: 668, Q1: 705, R: 88209},
	}
	if got := collapse(t, anchors, 80); len(got) != 1 || got[0] != 4 {
		t.Fatalf("one locus kept %v, want [4] (longest anchor)", got)
	}
}

// TestCollapseTwoLoci: two distant clusters stay two chains, each with its
// own representative.
func TestCollapseTwoLoci(t *testing.T) {
	anchors := []Anchor{
		{Q0: 0, Q1: 15, R: 1000},
		{Q0: 30, Q1: 42, R: 1030},
		{Q0: 0, Q1: 12, R: 90000},
		{Q0: 30, Q1: 48, R: 90031},
	}
	got := collapse(t, anchors, 40)
	if len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("two loci kept %v, want [0 3]", got)
	}
}

// TestCollapseDriftBeyondGap: diagonal drift past maxGap must not chain —
// one gapped extension cannot reconcile it.
func TestCollapseDriftBeyondGap(t *testing.T) {
	anchors := []Anchor{
		{Q0: 0, Q1: 12, R: 1000},
		{Q0: 40, Q1: 52, R: 1140}, // rAdv 140 vs qAdv 40: drift 100
	}
	if got := collapse(t, anchors, 40); len(got) != 2 {
		t.Fatalf("over-drift anchors kept %v, want both", got)
	}
	if got := collapse(t, anchors, 120); len(got) != 1 || got[0] != 0 {
		t.Fatalf("within-drift anchors kept %v, want [0]", got)
	}
}

// TestCollapseNoBackwardChaining: a predecessor must advance on both axes;
// anchors stacked at one query position, or moving backwards on the
// reference, never chain.
func TestCollapseNoBackwardChaining(t *testing.T) {
	anchors := []Anchor{
		{Q0: 50, Q1: 62, R: 1050},
		{Q0: 50, Q1: 62, R: 1080},
		{Q0: 80, Q1: 92, R: 1000},
	}
	got := collapse(t, anchors, 1000)
	if len(got) != 3 {
		t.Fatalf("non-collinear anchors kept %v, want all three", got)
	}
}

// TestCollapsePermutationInvariant: with distinct (R, Q0) coordinates the
// kept anchor set is independent of Add order.
func TestCollapsePermutationInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(30)
		anchors := make([]Anchor, 0, n)
		seen := map[int64]bool{}
		for len(anchors) < n {
			q0 := int32(r.Intn(5000))
			rp := int32(r.Intn(3000)) // clustered refs so chains form
			key := int64(rp)<<32 | int64(q0)
			if seen[key] {
				continue
			}
			seen[key] = true
			anchors = append(anchors, Anchor{Q0: q0, Q1: q0 + 10 + int32(r.Intn(40)), R: rp})
		}
		keepSet := func(order []int) map[Anchor]bool {
			var c Chainer
			c.Reset()
			for _, idx := range order {
				c.Add(anchors[idx].Q0, anchors[idx].Q1, anchors[idx].R)
			}
			out := map[Anchor]bool{}
			for _, ki := range c.Collapse(64) {
				out[anchors[order[ki]]] = true
			}
			return out
		}
		base := make([]int, n)
		for i := range base {
			base[i] = i
		}
		want := keepSet(base)
		perm := r.Perm(n)
		got := keepSet(perm)
		if len(got) != len(want) {
			t.Fatalf("trial %d: kept %d anchors shuffled vs %d in order", trial, len(got), len(want))
		}
		for _, a := range anchors {
			if want[a] && !got[a] {
				t.Fatalf("trial %d: anchor %+v kept in order but not shuffled", trial, a)
			}
		}
	}
}

// TestCollapseReuseAndAllocs: a warm Chainer must not allocate.
func TestCollapseReuseAndAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	var c Chainer
	fill := func() {
		c.Reset()
		q := int32(0)
		rp := int32(1000)
		for i := 0; i < 48; i++ {
			c.Add(q, q+12, rp)
			q += int32(20 + r.Intn(30))
			rp += q - c.anchors[len(c.anchors)-1].Q0 + int32(r.Intn(9)-4)
		}
	}
	fill()
	c.Collapse(40) // warm all scratch
	allocs := testing.AllocsPerRun(30, func() {
		fill()
		c.Collapse(40)
	})
	if allocs > 0 {
		t.Fatalf("warm Collapse allocates %.1f times per call, want 0", allocs)
	}
}

func BenchmarkCollapse(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	var c Chainer
	type av struct{ q0, q1, rp int32 }
	anchors := make([]av, 256)
	q, rp := int32(0), int32(5000)
	for i := range anchors {
		anchors[i] = av{q, q + 15, rp}
		q += int32(30 + r.Intn(40))
		rp += int32(30 + r.Intn(44))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Reset()
		for _, a := range anchors {
			c.Add(a.q0, a.q1, a.rp)
		}
		c.Collapse(64)
	}
}
