package bitsilla

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"genax/internal/align"
	"genax/internal/dna"
	"genax/internal/sillax"
)

// mutateGappy applies `runs` gap runs of up to maxRun bases each (deletion
// or insertion, evenly) plus a sprinkle of substitutions. Random point
// mutations almost never push the diagonal offsets past bit 63, so the
// cross-word shift paths of the multi-word datapath are exercised with long
// coherent gaps instead.
func mutateGappy(r *rand.Rand, s dna.Seq, maxRun, runs int) dna.Seq {
	out := s.Clone()
	for g := 0; g < runs; g++ {
		if len(out) == 0 {
			break
		}
		p := r.Intn(len(out))
		run := 1 + r.Intn(maxRun)
		if r.Intn(2) == 0 { // deletion run
			if p+run > len(out) {
				run = len(out) - p
			}
			out = append(out[:p], out[p+run:]...)
		} else { // insertion run
			ins := randSeq(r, run)
			out = append(out[:p], append(ins, out[p:]...)...)
		}
	}
	for s := 0; s < 4 && len(out) > 0; s++ {
		p := r.Intn(len(out))
		out[p] = dna.Base((int(out[p]) + 1 + r.Intn(3)) % 4)
	}
	return out
}

// mutateRate puts an error at each base with probability rate; a share
// indelFrac of the errors are single-base insertions or deletions (half
// each), the rest substitutions — the long-read simulator's error mix.
func mutateRate(r *rand.Rand, s dna.Seq, rate, indelFrac float64) dna.Seq {
	out := make(dna.Seq, 0, len(s)+len(s)/16)
	for _, x := range s {
		if r.Float64() >= rate {
			out = append(out, x)
			continue
		}
		switch u := r.Float64(); {
		case u >= indelFrac:
			out = append(out, dna.Base((int(x)+1+r.Intn(3))%4))
		case u < indelFrac/2:
			out = append(out, dna.Base(r.Intn(dna.NumBases)), x)
		} // otherwise x is deleted
	}
	return out
}

// TestWideWitnessSound holds the bound pass to its contract at one word
// and at several. The suffix table's witness L is never negative and never
// above the pass's final score S (L > S could prune the optimum); it equals
// S on low-error reads whose best path fits the edit budget — 101 bp reads
// against 141 bp windows at K ≤ MaxWordK, kilobase reads past it; and an
// input whose best path needs more than K edits takes the truncation
// branch and still matches the oracle. Each pass runs banded by its
// gapless witness L0, and the pruning floor max(L, L0) lies in [L0, S].
// Some passes must run a band narrower than ±K, so L is checked on banded
// tables too. It drives the grid directly: a call the gapless step
// certifies would leave the previous pass's bound behind.
func TestWideWitnessSound(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	sc := align.BWAMEMDefaults()
	banded := 0
	// extend returns the pass's result and the witness L that wideWitness
	// reads off the pass's own banded table.
	extend := func(bm *Machine, ref, query dna.Seq) (Result, int32) {
		t.Helper()
		_, l0, _ := bm.tryGapless(ref, query)
		res := bm.extendWide(ref, query, l0)
		L := bm.wideWitness(ref, query)
		if L < 0 || int(L) > res.Score {
			t.Fatalf("k=%d band %d: witness %d outside [0, score %d] (ref %d bp, query %d bp)",
				bm.k, bm.wide.band, L, res.Score, len(ref), len(query))
		}
		if fl := bm.wide.bound; l0 < 0 || fl < l0 || int(fl) > res.Score {
			t.Fatalf("k=%d band %d: floor %d outside [L0 %d, score %d], or L0 < 0 (ref %d bp, query %d bp)",
				bm.k, bm.wide.band, fl, l0, res.Score, len(ref), len(query))
		}
		if bm.wide.band < bm.k {
			banded++
		}
		return res, L
	}
	for _, k := range []int{0, 4, 19, 40, 63, 64, 65, 80, 127, 191} {
		bm := New(k, sc)
		for trial := 0; trial < 8; trial++ {
			ref := randSeq(r, 40+r.Intn(200))
			extend(bm, ref, randSeq(r, r.Intn(200)))
			extend(bm, ref, mutate(r, ref, r.Intn(k+3)))
			extend(bm, ref, mutateGappy(r, ref, 60, 1+r.Intn(3)))
		}
		refLen, readLen, reads := 1400, 1200, 2
		if k <= MaxWordK {
			refLen, readLen, reads = 141, 101, 40
		}
		for trial := 0; trial < reads; trial++ {
			ref := randSeq(r, refLen)
			res, L := extend(bm, ref, mutateRate(r, ref[:readLen], 0.02, 0.3))
			if int(L) != res.Score {
				t.Fatalf("k=%d band %d: %d bp read at 2%% error: witness %d, score %d", k, bm.wide.band, readLen, L, res.Score)
			}
		}
	}

	// Every sixth base mismatched: ~66 substitutions over 400 bases, each
	// block of six still gaining, so the suffix table's best path runs
	// through all of them and past K=64.
	k := 64
	ref := randSeq(r, 400)
	query := ref.Clone()
	for p := 5; p < len(query); p += 6 {
		query[p] = (query[p] + 1) % dna.NumBases
	}
	bm := New(k, sc)
	res, L := extend(bm, ref, query)
	if path := bm.wide.stab[bm.wide.band*3]; L >= path {
		t.Fatalf("witness %d not truncated below the table's path score %d", L, path)
	}
	checkSame(t, k, ref, query, res, sillax.NewTracebackMachine(k, sc).Extend(ref, query))
	if banded == 0 {
		t.Fatal("no pass ran a band narrower than ±K; the banded witness is unchecked")
	}
}

// TestWideBandEdge puts the optimum on the score band's edge. Under
// scoring {1, 4, 6, 2} the query X·Y against the reference X·G·Y (plus K
// bases of slack) aligns through the g-base deletion G for qn − 6 − 2g,
// one more than clipping after X. The gapless witness is L0 = |X| =
// qn − 7 − 2g, so h = ⌊(qn − 6 − L0)/2⌋ = g and the optimum runs exactly
// at |δ| = h. Under BWA scoring (GapExtend 1) a path on the edge can only
// tie L0, so a band one diagonal too narrow passes the other tests; here
// it clips after X instead of aligning through the deletion.
func TestWideBandEdge(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	sc := align.Scoring{Match: 1, Mismatch: 4, GapOpen: 6, GapExtend: 2}
	const k, qn = 16, 60
	m := New(k, sc)
	tm := sillax.NewTracebackMachine(k, sc)
	for g := 1; g <= 6; g++ {
		x, gap, y := randSeq(r, qn-7-2*g), randSeq(r, g), randSeq(r, 7+2*g)
		// G neither starts like Y nor ends like X, so the deletion has one
		// placement and the gapless scan stops gaining at X's end.
		for gap[0] == y[0] || gap[g-1] == x[len(x)-1] {
			gap = randSeq(r, g)
		}
		query := append(x.Clone(), y...)
		ref := append(append(append(x.Clone(), gap...), y...), randSeq(r, k)...)
		want := tm.Extend(ref, query)
		checkSame(t, k, ref, query, m.Extend(ref, query), want)
		if cig := fmt.Sprintf("%d=%dD%d=", len(x), g, len(y)); want.Cigar.String() != cig || m.wide.band != g {
			t.Errorf("g=%d: oracle %s at band %d; want the deletion %s on the band's edge", g, want.Cigar, m.wide.band, cig)
		}
	}
}

// TestBitsillaWideGappyRandom drives the multi-word engine with gap-heavy
// inputs whose diagonal offsets cross word boundaries in both dimensions,
// differentially against the cycle oracle.
func TestBitsillaWideGappyRandom(t *testing.T) {
	r := rand.New(rand.NewSource(90))
	sc := align.BWAMEMDefaults()
	for _, tc := range []struct {
		k, refLen, maxRun, trials int
	}{
		{64, 160, 50, 12},
		{65, 160, 55, 12},
		{127, 240, 90, 5},
		{128, 240, 100, 5},
		{191, 260, 80, 3},
	} {
		bm := New(tc.k, sc)
		tm := sillax.NewTracebackMachine(tc.k, sc)
		for trial := 0; trial < tc.trials; trial++ {
			ref := randSeq(r, tc.refLen)
			query := mutateGappy(r, ref, tc.maxRun, 1+r.Intn(3))
			checkSame(t, tc.k, ref, query, bm.Extend(ref, query), tm.Extend(ref, query))
		}
	}
}

// TestBitsillaWideMuxCrossings pins the §IV-D composition accounting: a
// 100-base deletion block pushes the deletion offset through bit 63 of
// word 0, so the d+1 transitions must cross into word 1 and be counted,
// while the result stays byte-identical to the oracle. The count itself
// must be deterministic across machines. MuxCrossings counts the writes
// that survive pruning, so it is the one output the pruning floor can move
// without moving Score or Cigar: the counts of both inputs, and a seeded
// batch's summed count and digest, are pinned as constants.
func TestBitsillaWideMuxCrossings(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	sc := align.BWAMEMDefaults()
	k := 128
	// 150-base flanks around a 100-base deletion: the through-alignment
	// (score 300 - open - 100*ext) beats clipping at the first flank
	// (score 150), so the optimal path really carries d past bit 63.
	ref := randSeq(r, 400)
	query := append(ref[:150].Clone(), ref[250:]...)
	got := New(k, sc).Extend(ref, query)
	want := sillax.NewTracebackMachine(k, sc).Extend(ref, query)
	checkSame(t, k, ref, query, got, want)
	if got.QueryLen != 300 || got.RefLen != 400 {
		t.Fatalf("deletion block not aligned through: q=%d r=%d cigar=%s", got.QueryLen, got.RefLen, got.Cigar)
	}
	if got.MuxCrossings != muxDeletionBlock {
		t.Fatalf("100-base deletion block: MuxCrossings = %d, want %d", got.MuxCrossings, muxDeletionBlock)
	}
	again := New(k, sc).Extend(ref, query)
	if again.MuxCrossings != got.MuxCrossings {
		t.Fatalf("MuxCrossings nondeterministic: %d then %d", got.MuxCrossings, again.MuxCrossings)
	}

	// An insertion block moves the i offset across its word boundary
	// instead: the row-summary striping, not the d-shift, carries it.
	ins := randSeq(r, 100)
	query2 := append(ref[:200].Clone(), append(ins, ref[200:]...)...)
	got2 := New(k, sc).Extend(ref, query2)
	want2 := sillax.NewTracebackMachine(k, sc).Extend(ref, query2)
	checkSame(t, k, ref, query2, got2, want2)
	if got2.MuxCrossings != muxInsertionBlock {
		t.Fatalf("100-base insertion block: MuxCrossings = %d, want %d", got2.MuxCrossings, muxInsertionBlock)
	}

	// A seeded batch across the multi-word bounds and the error mixes the
	// grid meets: gap blocks, and long-read rates with 30 % and 50 % of
	// the errors indels.
	h := fnv.New64a()
	var sum int64
	for _, k := range []int{64, 80, 128} {
		bm := New(k, sc)
		for trial := 0; trial < 12; trial++ {
			ref := randSeq(r, 500+r.Intn(300))
			var query dna.Seq
			switch trial % 3 {
			case 0:
				query = mutateGappy(r, ref[:400], 60, 1+r.Intn(3))
			case 1:
				query = mutateRate(r, ref[:400], 0.02, 0.3)
			default:
				query = mutateRate(r, ref[:400], 0.08, 0.5)
			}
			res := bm.Extend(ref, query)
			fmt.Fprintf(h, "%d %s %d %d\n", res.Score, res.Cigar, res.Cycles, res.MuxCrossings)
			sum += res.MuxCrossings
		}
	}
	if sum != muxBatchSum || h.Sum64() != muxBatchDigest {
		t.Fatalf("seeded batch: summed MuxCrossings %d, digest %#x; want %d, %#x", sum, h.Sum64(), muxBatchSum, uint64(muxBatchDigest))
	}
}

// The pinned MuxCrossings of TestBitsillaWideMuxCrossings.
const (
	muxDeletionBlock  = 2
	muxInsertionBlock = 0
	muxBatchSum       = 4677
	muxBatchDigest    = 0xa76885f4dc7d22ef
)

// TestBitsillaWideWindowReplay shrinks the checkpoint window far below the
// walk length so the backward pass must restore checkpoints and re-execute
// windows to regenerate evicted trail slots. Results must match both the
// oracle and a default-window machine, and the machine must stay reusable
// after a replay-heavy walk.
func TestBitsillaWideWindowReplay(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	sc := align.BWAMEMDefaults()
	for _, winC := range []int{2, 3, 7} {
		bm := New(64, sc)
		bm.wide.winC = winC
		ref := New(64, sc) // default-window reference machine
		tm := sillax.NewTracebackMachine(64, sc)
		for trial := 0; trial < 12; trial++ {
			rs := randSeq(r, 120+r.Intn(60))
			qs := mutateGappy(r, rs, 40, 1+r.Intn(2))
			got := bm.Extend(rs, qs)
			want := tm.Extend(rs, qs)
			checkSame(t, 64, rs, qs, got, want)
			def := ref.Extend(rs, qs)
			if def.Score != got.Score || def.Cigar.String() != got.Cigar.String() ||
				def.MuxCrossings != got.MuxCrossings {
				t.Fatalf("winC=%d diverges from default window: (%d %s mux=%d) vs (%d %s mux=%d)",
					winC, got.Score, got.Cigar, got.MuxCrossings,
					def.Score, def.Cigar, def.MuxCrossings)
			}
		}
	}
}

// TestBitsillaWideAltScoring varies the affine scheme at multi-word bounds
// so the delayed-merging priorities race identically across word edges.
func TestBitsillaWideAltScoring(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	for _, sc := range []align.Scoring{
		{Match: 2, Mismatch: 3, GapOpen: 5, GapExtend: 2},
		{Match: 1, Mismatch: 1, GapOpen: 1, GapExtend: 1},
	} {
		for _, k := range []int{64, 127} {
			bm := New(k, sc)
			tm := sillax.NewTracebackMachine(k, sc)
			for trial := 0; trial < 6; trial++ {
				ref := randSeq(r, 140)
				query := mutateGappy(r, ref, 60, 1+r.Intn(2))
				checkSame(t, k, ref, query, bm.Extend(ref, query), tm.Extend(ref, query))
			}
		}
	}
}

func TestBitsillaWideCycleAccounting(t *testing.T) {
	sc := align.BWAMEMDefaults()
	k := 96
	bm := New(k, sc)
	ref := randSeq(rand.New(rand.NewSource(94)), 200)
	res := bm.Extend(ref, ref)
	want := sillax.StreamCycles(len(ref), len(ref), k) + 1 + 4*k
	if res.Cycles != want {
		t.Fatalf("Cycles = %d, want %d", res.Cycles, want)
	}
}

// TestBitsillaWideSteadyStateAllocs pins the warm wide path: once the
// trail ring and checkpoints are grown, Extend allocates nothing beyond
// the Cigar reversal.
func TestBitsillaWideSteadyStateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(95))
	sc := align.BWAMEMDefaults()
	bm := New(96, sc)
	ref := randSeq(r, 300)
	query := mutateGappy(r, ref, 70, 2)
	bm.Extend(ref, query) // grow ring + checkpoints + walk scratch
	allocs := testing.AllocsPerRun(10, func() {
		bm.Extend(ref, query)
	})
	if allocs > 1 { // the fresh Cigar reversal
		t.Fatalf("steady-state wide Extend allocates %.1f times per call, want <= 1", allocs)
	}
}

// TestBitsillaWideRingAllocatedOnce pins what keeps a pooled machine's
// memory small and independent of the order it meets its inputs in: the
// auto-sized trail ring is allocated at most twice — a 1 MiB starter if
// the first pass fits it, then the budget ring, which every later pass
// reuses whether it needs a whole-pass window or the budget-capped one. A
// K=40 machine fed 101 bp reads against 141 bp windows never leaves the
// starter; a K=80 machine's first pass already outgrows it. The passes run
// the grid directly, since a certified gapless call touches no ring.
func TestBitsillaWideRingAllocatedOnce(t *testing.T) {
	r := rand.New(rand.NewSource(98))
	sc := align.BWAMEMDefaults()
	for _, tc := range []struct {
		k       int
		passes  [][2]int // reference and query length of each pass
		starter int      // leading passes the starter ring serves
	}{
		{40, [][2]int{{141, 101}, {141, 101}, {120, 101}, {141, 101}, {1200, 1200}, {60, 60}, {3000, 3000}, {141, 101}}, 4},
		{80, [][2]int{{60, 60}, {1200, 1200}, {3000, 3000}, {300, 101}}, 0},
	} {
		bm := New(tc.k, sc)
		var rings []*uint64
		for pass, lens := range tc.passes {
			ref := randSeq(r, lens[0])
			bm.extendWide(ref, mutate(r, ref[:lens[1]], 4), 0)
			if ring := &bm.wide.trail[:1][0]; len(rings) == 0 || rings[len(rings)-1] != ring {
				rings = append(rings, ring)
			}
			bytes := cap(bm.wide.trail) * 8
			if inStarter := bytes == wideStarterRing; inStarter != (pass < tc.starter) {
				t.Fatalf("k=%d pass %d (%v): ring holds %d bytes, starter ring expected: %v",
					tc.k, pass, lens, bytes, pass < tc.starter)
			}
			if bytes > wideTrailBudget {
				t.Fatalf("k=%d: ring holds %d bytes, over the %d budget", tc.k, bytes, wideTrailBudget)
			}
		}
		if want := 1 + min(tc.starter, 1); len(rings) != want {
			t.Fatalf("k=%d: %d ring allocations, want %d", tc.k, len(rings), want)
		}
	}
}

// TestBitsillaWideMachineReuse alternates disparate inputs through one
// machine; stale liveness or trail bits from a prior call would surface as
// oracle divergence.
func TestBitsillaWideMachineReuse(t *testing.T) {
	r := rand.New(rand.NewSource(96))
	sc := align.BWAMEMDefaults()
	bm := New(80, sc)
	tm := sillax.NewTracebackMachine(80, sc)
	for trial := 0; trial < 12; trial++ {
		var ref, query dna.Seq
		switch trial % 3 {
		case 0:
			ref = randSeq(r, 250)
			query = mutateGappy(r, ref, 70, 2)
		case 1:
			ref = randSeq(r, 10)
			query = randSeq(r, 10)
		default:
			ref = randSeq(r, 120)
			query = mutate(r, ref, r.Intn(12))
		}
		checkSame(t, 80, ref, query, bm.Extend(ref, query), tm.Extend(ref, query))
	}
}

// TestBitsillaWideEdgeCases mirrors the one-word edge table at a
// multi-word bound.
func TestBitsillaWideEdgeCases(t *testing.T) {
	sc := align.BWAMEMDefaults()
	tm := sillax.NewTracebackMachine(70, sc)
	bm := New(70, sc)
	for _, tc := range []struct{ ref, query dna.Seq }{
		{nil, nil},
		{nil, dna.Seq{0, 1, 2, 3}},
		{dna.Seq{0, 1, 2, 3}, nil},
		{dna.Seq{2}, dna.Seq{2}},
		{dna.Seq{2}, dna.Seq{3}},
	} {
		checkSame(t, 70, tc.ref, tc.query, bm.Extend(tc.ref, tc.query), tm.Extend(tc.ref, tc.query))
	}
}

func BenchmarkExtendWide(b *testing.B) {
	r := rand.New(rand.NewSource(97))
	sc := align.BWAMEMDefaults()
	ref := randSeq(r, 1400)
	query := mutateGappy(r, ref[:1200], 60, 3)
	m := New(96, sc)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Extend(ref, query)
	}
}

// BenchmarkExtendWideLongRead is shaped like the long_k80 workload: a
// 1 200 bp query at 2 % error, 30 % of the errors indels, at K=80.
// BenchmarkExtendWide's gap blocks are a worst case and do not predict it.
func BenchmarkExtendWideLongRead(b *testing.B) {
	r := rand.New(rand.NewSource(100))
	sc := align.BWAMEMDefaults()
	ref := randSeq(r, 1400)
	query := mutateRate(r, ref[:1200], 0.02, 0.3)
	m := New(80, sc)
	m.Extend(ref, query) // grow the ring, checkpoints and tables
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wideSink = m.Extend(ref, query)
	}
}

// wideSink keeps the benchmarked Extend calls live.
var wideSink Result
