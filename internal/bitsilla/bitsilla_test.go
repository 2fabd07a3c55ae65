package bitsilla

import (
	"math/rand"
	"testing"

	"genax/internal/align"
	"genax/internal/dna"
	"genax/internal/sillax"
)

func randSeq(r *rand.Rand, n int) dna.Seq {
	s := make(dna.Seq, n)
	for i := range s {
		s[i] = dna.Base(r.Intn(dna.NumBases))
	}
	return s
}

func mutate(r *rand.Rand, s dna.Seq, e int) dna.Seq {
	out := s.Clone()
	for i := 0; i < e; i++ {
		if len(out) == 0 {
			out = append(out, dna.Base(r.Intn(4)))
			continue
		}
		p := r.Intn(len(out))
		switch r.Intn(3) {
		case 0:
			out[p] = dna.Base((int(out[p]) + 1 + r.Intn(3)) % 4)
		case 1:
			out = append(out[:p], append(dna.Seq{dna.Base(r.Intn(4))}, out[p:]...)...)
		case 2:
			out = append(out[:p], out[p+1:]...)
		}
	}
	return out
}

// checkSame asserts the bit-parallel result is byte-identical to the cycle
// model's on the observable fields (Score, QueryLen, RefLen, Cigar).
func checkSame(t *testing.T, k int, ref, query dna.Seq, got Result, want sillax.TracebackResult) {
	t.Helper()
	if got.Score != want.Score || got.QueryLen != want.QueryLen || got.RefLen != want.RefLen ||
		got.Cigar.String() != want.Cigar.String() {
		t.Fatalf("k=%d ref=%v query=%v:\nbitsilla (score=%d q=%d r=%d cigar=%s)\nsillax   (score=%d q=%d r=%d cigar=%s)",
			k, ref, query,
			got.Score, got.QueryLen, got.RefLen, got.Cigar,
			want.Score, want.QueryLen, want.RefLen, want.Cigar)
	}
}

// diffK covers small bounds, the composed-tile bounds of the TileArray
// (p tiles of base bound b give k = p*(b+1)-1: 9 and 19), the production
// default 40, the one-word limit 63, and multi-word bounds straddling
// every word edge the datapath has: 64/65 (first bit of word 1 and one
// past it), 127/128 (the word 1 -> word 2 edge) and 191 (three full
// words).
var diffK = []int{0, 1, 2, 3, 4, 8, 9, 16, 19, 40, 63, 64, 65, 127, 128, 191}

// diffTrials scales trial counts down as k grows: the sillax oracle moves
// 7*(k+1)^2 16-byte registers every cycle, so one k=191 trial costs about
// as much as seventy k=63 trials.
func diffTrials(k int) int {
	switch {
	case k <= MaxWordK:
		return 120
	case k < 127:
		return 30
	case k < 191:
		return 12
	default:
		return 6
	}
}

func TestBitsillaMatchesTracebackRandom(t *testing.T) {
	r := rand.New(rand.NewSource(60))
	sc := align.BWAMEMDefaults()
	for _, k := range diffK {
		bm := New(k, sc)
		tm := sillax.NewTracebackMachine(k, sc)
		for trial := 0; trial < diffTrials(k); trial++ {
			ref := randSeq(r, r.Intn(90))
			query := mutate(r, ref, r.Intn(k+3))
			checkSame(t, k, ref, query, bm.Extend(ref, query), tm.Extend(ref, query))
		}
	}
}

// TestBitsillaMatchesTracebackAltScoring varies the affine scheme so the
// delayed-merging priorities are exercised under different cost ratios.
func TestBitsillaMatchesTracebackAltScoring(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for _, sc := range []align.Scoring{
		{Match: 2, Mismatch: 3, GapOpen: 5, GapExtend: 2},
		{Match: 1, Mismatch: 1, GapOpen: 1, GapExtend: 1},
		{Match: 5, Mismatch: 4, GapOpen: 8, GapExtend: 1},
	} {
		for _, k := range []int{2, 4, 8, 19} {
			bm := New(k, sc)
			tm := sillax.NewTracebackMachine(k, sc)
			for trial := 0; trial < 80; trial++ {
				ref := randSeq(r, r.Intn(70))
				query := mutate(r, ref, r.Intn(k+3))
				checkSame(t, k, ref, query, bm.Extend(ref, query), tm.Extend(ref, query))
			}
		}
	}
}

// TestBitsillaTileBoundarySpans sweeps read lengths across the w=k+1 tile
// widths around composed-tile bounds so extensions that end exactly on,
// just before, and just after a tile boundary are all covered.
func TestBitsillaTileBoundarySpans(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	sc := align.BWAMEMDefaults()
	for _, k := range []int{4, 9, 19} {
		bm := New(k, sc)
		tm := sillax.NewTracebackMachine(k, sc)
		for n := 0; n <= 3*(k+1)+2; n++ {
			ref := randSeq(r, n)
			for _, e := range []int{0, 1, k / 2, k} {
				query := mutate(r, ref, e)
				checkSame(t, k, ref, query, bm.Extend(ref, query), tm.Extend(ref, query))
			}
		}
	}
}

func TestBitsillaGoldenCigars(t *testing.T) {
	sc := align.BWAMEMDefaults()
	seq := func(s string) dna.Seq {
		q, err := dna.ParseSeq(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return q
	}
	cases := []struct {
		k          int
		ref, query string
		cigar      string
	}{
		{4, "ACGTACGTACGTACGT", "ACGTACGTACGTACGT", "16="},
		{4, "ACGTACGTACGTACGT", "ACGTACTTACGTACGT", "6=1X9="},
		{4, "ACGTACGTACGTACGTACGT", "ACGTACTACGTACGTACGT", "6=1D13="},
		{4, "ACGTACGTACGTACGTACGT", "ACGTACGGTACGTACGTACGT", "6=1I14="},
		{2, "TTTTTTTT", "CCCCCCCC", "8S"},
	}
	for _, tc := range cases {
		bm := New(tc.k, sc)
		tm := sillax.NewTracebackMachine(tc.k, sc)
		ref, query := seq(tc.ref), seq(tc.query)
		got := bm.Extend(ref, query)
		checkSame(t, tc.k, ref, query, got, tm.Extend(ref, query))
		if got.Cigar.String() != tc.cigar {
			t.Errorf("k=%d %s vs %s: cigar %s, want %s", tc.k, tc.ref, tc.query, got.Cigar, tc.cigar)
		}
		if err := got.Cigar.Validate(ref, query); err != nil {
			t.Errorf("k=%d: invalid cigar %s: %v", tc.k, got.Cigar, err)
		}
	}
}

func TestBitsillaEdgeCases(t *testing.T) {
	sc := align.BWAMEMDefaults()
	r := rand.New(rand.NewSource(63))
	for _, k := range []int{0, 1, 4, 40} {
		bm := New(k, sc)
		tm := sillax.NewTracebackMachine(k, sc)
		cases := [][2]dna.Seq{
			{nil, nil},
			{randSeq(r, 20), nil},
			{nil, randSeq(r, 20)},
			{randSeq(r, 1), randSeq(r, 1)},
			{randSeq(r, 1), randSeq(r, 60)},
			{randSeq(r, 60), randSeq(r, 1)},
		}
		for _, c := range cases {
			checkSame(t, k, c[0], c[1], bm.Extend(c[0], c[1]), tm.Extend(c[0], c[1]))
		}
	}
}

// TestBitsillaMachineReuse interleaves long and short extensions on one
// machine so stale trail/score contents from earlier calls would surface.
func TestBitsillaMachineReuse(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	sc := align.BWAMEMDefaults()
	bm := New(8, sc)
	tm := sillax.NewTracebackMachine(8, sc)
	lens := []int{80, 3, 50, 0, 7, 64, 1}
	for trial := 0; trial < 40; trial++ {
		n := lens[trial%len(lens)]
		ref := randSeq(r, n)
		query := mutate(r, ref, r.Intn(6))
		checkSame(t, 8, ref, query, bm.Extend(ref, query), tm.Extend(ref, query))
	}
}

func TestBitsillaCycleAccounting(t *testing.T) {
	sc := align.BWAMEMDefaults()
	k := 4
	bm := New(k, sc)
	ref := randSeq(rand.New(rand.NewSource(66)), 30)
	res := bm.Extend(ref, ref)
	want := sillax.StreamCycles(len(ref), len(ref), k) + 1 + 4*k
	if res.Cycles != want {
		t.Fatalf("Cycles = %d, want %d", res.Cycles, want)
	}
}

// TestBitsillaSteadyStateAllocs pins the zero-allocation hot path: after a
// warm-up call has grown the trail ring, bound table and walk buffer,
// Extend must not allocate beyond the reported Cigar, on the grid and on
// the certified gapless step alike.
func TestBitsillaSteadyStateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	sc := align.BWAMEMDefaults()
	bm := New(40, sc)
	ref := randSeq(r, 150)
	hard := mutate(r, ref, 6)
	easy := ref[:100].Clone()
	easy[50] = (easy[50] + 1) % dna.NumBases
	if _, _, ok := bm.tryGapless(ref, hard); ok {
		t.Fatal("hard read certified; the grid's budget is untested")
	}
	if _, _, ok := bm.tryGapless(ref, easy); !ok {
		t.Fatal("easy read not certified; the gapless step's budget is untested")
	}
	for _, query := range []dna.Seq{hard, easy} {
		bm.Extend(ref, query) // grow ring + bound table + walk scratch
		allocs := testing.AllocsPerRun(50, func() {
			bm.Extend(ref, query)
		})
		if allocs > 1 { // the fresh Cigar
			t.Fatalf("steady-state Extend allocates %.1f times per call, want <= 1", allocs)
		}
	}
}

func TestBitsillaPanicsOnNegativeK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1, align.BWAMEMDefaults())
}

func BenchmarkExtend(b *testing.B) {
	r := rand.New(rand.NewSource(70))
	sc := align.BWAMEMDefaults()
	ref := randSeq(r, 141)
	query := mutate(r, ref[:101], 3)
	b.Run("bitsilla", func(b *testing.B) {
		m := New(40, sc)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Extend(ref, query)
		}
	})
	// Two substitutions cost more than a gap (2·(1+4) > 6+1), so the
	// gapless step refuses this read and the grid runs, banded at h = 4 by
	// the gapless witness: the short_err2 extension that reaches the grid.
	twoSub := ref[:101].Clone()
	for _, p := range []int{30, 70} {
		twoSub[p] = (twoSub[p] + 1) % dna.NumBases
	}
	b.Run("bitsilla-grid", func(b *testing.B) {
		m := New(40, sc)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Extend(ref, twoSub)
		}
	})
	b.Run("sillax", func(b *testing.B) {
		m := sillax.NewTracebackMachine(40, sc)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Extend(ref, query)
		}
	})
}
