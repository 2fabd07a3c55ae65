package seed

import (
	"math/rand"
	"sort"
	"testing"

	"genax/internal/dna"
	"genax/internal/fmindex"
)

// buildBoth indexes the same text for the accelerator and the FM gold.
func buildBoth(t *testing.T, ref dna.Seq, k int) (*Seeder, *fmindex.SMEMIndex) {
	t.Helper()
	si, err := BuildSegmentIndex(ref, 0, 0, k)
	if err != nil {
		t.Fatal(err)
	}
	return NewSeeder(si, DefaultOptions()), fmindex.BuildSMEMIndex(ref)
}

func sortedCopy(v []int32) []int32 {
	out := append([]int32(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestSeedsMatchFMIndexSMEMs is the central §V claim: the k-mer
// accelerator finds exactly the SMEMs (of length >= max(k, minLen)) that
// BWA-MEM's FM-index seeding finds, with identical hit sets.
func TestSeedsMatchFMIndexSMEMs(t *testing.T) {
	r := rand.New(rand.NewSource(110))
	k := 8
	for trial := 0; trial < 60; trial++ {
		ref := randSeq(r, 600+r.Intn(600))
		sd, gold := buildBoth(t, ref, k)
		start := r.Intn(len(ref) - 120)
		read := mutate(r, ref[start:start+101].Clone(), r.Intn(5))
		minLen := sd.Options().MinSeedLen

		got := sd.Seed(read)
		want := gold.SMEMs(read, minLen, 0)
		// The gold may include SMEMs shorter than k... minLen(19) > k so
		// both floors coincide; compare directly.
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d seeds, want %d (got=%v want=%v)", trial, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i].Start != want[i].Start || got[i].End != want[i].End {
				t.Fatalf("trial %d seed %d: [%d,%d) vs [%d,%d)", trial, i, got[i].Start, got[i].End, want[i].Start, want[i].End)
			}
			g, w := sortedCopy(got[i].Positions), sortedCopy(want[i].Hits)
			if len(g) != len(w) {
				t.Fatalf("trial %d seed %d: %d hits vs %d", trial, i, len(g), len(w))
			}
			for j := range g {
				if g[j] != w[j] {
					t.Fatalf("trial %d seed %d hit %d: %d vs %d", trial, i, j, g[j], w[j])
				}
			}
		}
	}
}

func TestSeedsMatchFMWithoutFastPathAndProbing(t *testing.T) {
	// The optimizations must not change results, only work counts.
	r := rand.New(rand.NewSource(111))
	k := 8
	ref := randSeq(r, 1500)
	si, err := BuildSegmentIndex(ref, 0, 0, k)
	if err != nil {
		t.Fatal(err)
	}
	gold := fmindex.BuildSMEMIndex(ref)
	variants := []Options{
		DefaultOptions(),
		{MinSeedLen: 19, SMEMFilter: true, BinaryExtension: true, Probing: false, ExactFastPath: false},
		{MinSeedLen: 19, SMEMFilter: true, BinaryExtension: true, Probing: true, ExactFastPath: false},
		{MinSeedLen: 19, SMEMFilter: true, BinaryExtension: true, Probing: true, ExactFastPath: true},
	}
	for trial := 0; trial < 40; trial++ {
		start := r.Intn(len(ref) - 120)
		read := mutate(r, ref[start:start+101].Clone(), r.Intn(4))
		want := gold.SMEMs(read, 19, 0)
		for vi, opts := range variants {
			sd := NewSeeder(si, opts)
			got := sd.Seed(read)
			if len(got) != len(want) {
				t.Fatalf("trial %d variant %d: %d seeds, want %d", trial, vi, len(got), len(want))
			}
			for i := range got {
				if got[i].Start != want[i].Start || got[i].End != want[i].End {
					t.Fatalf("trial %d variant %d seed %d span mismatch", trial, vi, i)
				}
				g, w := sortedCopy(got[i].Positions), sortedCopy(want[i].Hits)
				if len(g) != len(w) {
					t.Fatalf("trial %d variant %d seed %d: hits %d vs %d", trial, vi, i, len(g), len(w))
				}
			}
		}
	}
}

func TestExactFastPath(t *testing.T) {
	r := rand.New(rand.NewSource(112))
	ref := randSeq(r, 5000)
	si, _ := BuildSegmentIndex(ref, 0, 0, 12)
	sd := NewSeeder(si, DefaultOptions())
	read := ref[2000:2101].Clone()
	seeds := sd.Seed(read)
	if sd.Stats.ExactReads != 1 {
		t.Fatalf("exact read not detected (stats %+v)", sd.Stats)
	}
	if len(seeds) != 1 || seeds[0].Start != 0 || seeds[0].End != 101 {
		t.Fatalf("seeds = %v", seeds)
	}
	found := false
	for _, p := range seeds[0].Positions {
		if p == 2000 {
			found = true
		}
	}
	if !found {
		t.Error("true position missing")
	}
	// A read with one error must not take the fast path.
	bad := read.Clone()
	bad[50] = bad[50] ^ 1
	sd.Stats = Stats{}
	sd.Seed(bad)
	if sd.Stats.ExactReads != 0 {
		t.Error("mutated read took the exact fast path")
	}
}

func TestBinaryExtensionReducesHits(t *testing.T) {
	// Fig 16a: without the halving refinement RMEMs stop at k-multiples
	// and carry at least as many (usually more) hits downstream.
	r := rand.New(rand.NewSource(113))
	ref := randSeq(r, 20000)
	si, _ := BuildSegmentIndex(ref, 0, 0, 6)
	with := NewSeeder(si, Options{MinSeedLen: 10, SMEMFilter: true, BinaryExtension: true})
	without := NewSeeder(si, Options{MinSeedLen: 10, SMEMFilter: true, BinaryExtension: false})
	for trial := 0; trial < 50; trial++ {
		start := r.Intn(len(ref) - 120)
		read := mutate(r, ref[start:start+101].Clone(), 2+r.Intn(3))
		with.Seed(read)
		without.Seed(read)
	}
	if with.Stats.HitsEmitted > without.Stats.HitsEmitted {
		t.Errorf("binary extension increased hits: %d vs %d", with.Stats.HitsEmitted, without.Stats.HitsEmitted)
	}
	t.Logf("hits with/without binary extension: %d / %d", with.Stats.HitsEmitted, without.Stats.HitsEmitted)
}

func TestSMEMFilterReducesHits(t *testing.T) {
	// Fig 16a: the naive hash path forwards every window's hits.
	r := rand.New(rand.NewSource(114))
	ref := randSeq(r, 20000)
	si, _ := BuildSegmentIndex(ref, 0, 0, 6)
	smem := NewSeeder(si, Options{MinSeedLen: 10, SMEMFilter: true, BinaryExtension: true})
	naive := NewSeeder(si, Options{MinSeedLen: 10, SMEMFilter: false})
	for trial := 0; trial < 50; trial++ {
		start := r.Intn(len(ref) - 120)
		read := mutate(r, ref[start:start+101].Clone(), 2)
		smem.Seed(read)
		naive.Seed(read)
	}
	if smem.Stats.HitsEmitted >= naive.Stats.HitsEmitted {
		t.Errorf("SMEM filtering did not reduce hits: %d vs naive %d", smem.Stats.HitsEmitted, naive.Stats.HitsEmitted)
	}
	t.Logf("hits smem/naive: %d / %d", smem.Stats.HitsEmitted, naive.Stats.HitsEmitted)
}

func TestProbingReducesCAMLookups(t *testing.T) {
	// Fig 16b: starting the intersection from a small hit set cuts CAM
	// work on repetitive references, with binary search on as in the
	// figure's "binary + probing" bar.
	r := rand.New(rand.NewSource(115))
	// Repetitive reference: AT-rich so many k-mers have huge hit sets.
	ref := make(dna.Seq, 30000)
	for i := range ref {
		if r.Intn(10) < 8 {
			ref[i] = dna.Base(r.Intn(2)) // A/C soup
		} else {
			ref[i] = dna.Base(r.Intn(4))
		}
	}
	si, _ := BuildSegmentIndex(ref, 0, 0, 6)
	withP := NewSeeder(si, Options{MinSeedLen: 10, SMEMFilter: true, BinaryExtension: true, BinarySearch: true, Probing: true})
	noP := NewSeeder(si, Options{MinSeedLen: 10, SMEMFilter: true, BinaryExtension: true, BinarySearch: true, Probing: false})
	for trial := 0; trial < 30; trial++ {
		start := r.Intn(len(ref) - 120)
		read := mutate(r, ref[start:start+101].Clone(), 2)
		withP.Seed(read)
		noP.Seed(read)
	}
	if withP.Stats.CAMLookups >= noP.Stats.CAMLookups {
		t.Errorf("probing did not reduce CAM lookups: %d vs %d", withP.Stats.CAMLookups, noP.Stats.CAMLookups)
	}
	t.Logf("CAM lookups with/without probing: %d / %d", withP.Stats.CAMLookups, noP.Stats.CAMLookups)
}

func TestSeedShortRead(t *testing.T) {
	si, _ := BuildSegmentIndex(make(dna.Seq, 100), 0, 0, 12)
	sd := NewSeeder(si, DefaultOptions())
	if got := sd.Seed(make(dna.Seq, 5)); got != nil {
		t.Errorf("read shorter than k produced seeds: %v", got)
	}
}

func TestSeedGlobalOffsets(t *testing.T) {
	r := rand.New(rand.NewSource(116))
	ref := randSeq(r, 3000)
	sx, err := BuildSegmentedIndex(ref, 1000, 200, 8)
	if err != nil {
		t.Fatal(err)
	}
	// A read drawn from segment 2 must be found there at global coords.
	read := ref[2300:2401].Clone()
	opts := DefaultOptions()
	sd := NewSeeder(sx.Samples[2], opts)
	seeds := sd.Seed(read)
	if len(seeds) == 0 {
		t.Fatal("no seeds in owning segment")
	}
	found := false
	for _, s := range seeds {
		for _, p := range s.Positions {
			if int(p)-s.Start == 2300 {
				found = true
			}
		}
	}
	if !found {
		t.Error("global position 2300 not recoverable from segment seeds")
	}
}

// TestSeederResetAcrossSegments checks that one long-lived lane rebound
// with Reset reports exactly what a fresh per-segment seeder reports — the
// persistent-lane-pool invariant of the core pipeline.
func TestSeederResetAcrossSegments(t *testing.T) {
	r := rand.New(rand.NewSource(117))
	ref := randSeq(r, 4000)
	sx, err := BuildSegmentedIndex(ref, 1000, 200, 8)
	if err != nil {
		t.Fatal(err)
	}
	persistent := NewSeeder(sx.Samples[0], DefaultOptions())
	for trial := 0; trial < 30; trial++ {
		start := r.Intn(len(ref) - 120)
		read := mutate(r, ref[start:start+101].Clone(), r.Intn(4))
		for _, si := range sx.Samples {
			persistent.Reset(si)
			got := persistent.Seed(read)
			fresh := NewSeeder(si, DefaultOptions())
			want := fresh.Seed(read)
			if len(got) != len(want) {
				t.Fatalf("trial %d seg %d: %d seeds vs fresh %d", trial, si.ID, len(got), len(want))
			}
			for i := range got {
				if got[i].Start != want[i].Start || got[i].End != want[i].End {
					t.Fatalf("trial %d seg %d seed %d: span [%d,%d) vs [%d,%d)",
						trial, si.ID, i, got[i].Start, got[i].End, want[i].Start, want[i].End)
				}
				g, w := sortedCopy(got[i].Positions), sortedCopy(want[i].Positions)
				if len(g) != len(w) {
					t.Fatalf("trial %d seg %d seed %d: %d hits vs %d", trial, si.ID, i, len(g), len(w))
				}
				for j := range g {
					if g[j] != w[j] {
						t.Fatalf("trial %d seg %d seed %d hit %d: %d vs %d", trial, si.ID, i, j, g[j], w[j])
					}
				}
			}
		}
	}
}

// TestStatsResetCountsOnlyLaterReads holds the Stats doc's "reset it
// directly": after sd.Stats = Stats{}, the counters describe only the
// reads seeded since, so a lane that seeded read A, was reset and then
// seeded read B reports exactly what a fresh lane reports for B alone.
// Without a reset the counters add up: A then B reports the two fresh
// counts' sum.
func TestStatsResetCountsOnlyLaterReads(t *testing.T) {
	r := rand.New(rand.NewSource(121))
	ref := randSeq(r, 8000)
	si, err := BuildSegmentIndex(ref, 0, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	a := mutate(r, ref[1000:1101].Clone(), 2)
	b := mutate(r, ref[5000:5101].Clone(), 2)
	sd := NewSeeder(si, DefaultOptions())
	sd.Seed(a)
	if sd.Stats.CAMLookups == 0 {
		t.Fatal("read A charged no CAM lookups; the test needs one that does")
	}
	sd.Stats = Stats{}
	sd.Seed(b)
	fresh := NewSeeder(si, DefaultOptions())
	fresh.Seed(b)
	if fresh.Stats.CAMLookups == 0 {
		t.Fatal("read B charged no CAM lookups; the test needs one that does")
	}
	if sd.Stats != fresh.Stats {
		t.Errorf("after a reset the lane reports %+v, a fresh lane %+v", sd.Stats, fresh.Stats)
	}
	freshA := NewSeeder(si, DefaultOptions())
	freshA.Seed(a)
	both := NewSeeder(si, DefaultOptions())
	both.Seed(a)
	both.Seed(b)
	if want := freshA.Stats.CAMLookups + fresh.Stats.CAMLookups; both.Stats.CAMLookups != want {
		t.Errorf("A then B charged %d CAM lookups, want %d + %d", both.Stats.CAMLookups, freshA.Stats.CAMLookups, fresh.Stats.CAMLookups)
	}
}

// TestSeederSteadyStateAllocs pins the zero-allocation property of a warm
// seeding lane: once the scratch buffers have grown to the workload, Seed
// must not allocate.
func TestSeederSteadyStateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(118))
	ref := randSeq(r, 8000)
	si, err := BuildSegmentIndex(ref, 0, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	sd := NewSeeder(si, DefaultOptions())
	reads := make([]dna.Seq, 20)
	for i := range reads {
		start := r.Intn(len(ref) - 120)
		reads[i] = mutate(r, ref[start:start+101].Clone(), r.Intn(4))
	}
	for _, rd := range reads { // warm the lane
		sd.Seed(rd)
	}
	avg := testing.AllocsPerRun(20, func() {
		for _, rd := range reads {
			sd.Seed(rd)
		}
	})
	if avg != 0 {
		t.Errorf("warm Seeder.Seed allocates %.2f times per sweep, want 0", avg)
	}
}

// TestArenaIsolationAcrossSegments is the arena-lifetime satellite: a lane
// seeded against segment A, Reset to segment B, must emit hit lists drawn
// only from B (no stale arena bytes from A can surface), byte-identical to
// a lane that never saw A — and the warm rebound lane must stay at zero
// steady-state allocations.
func TestArenaIsolationAcrossSegments(t *testing.T) {
	r := rand.New(rand.NewSource(120))
	ref := randSeq(r, 6000)
	sx, err := BuildSegmentedIndex(ref, 1500, 300, 8)
	if err != nil {
		t.Fatal(err)
	}
	segA, segB := sx.Samples[0], sx.Samples[2]
	lane := NewSeeder(segA, DefaultOptions())
	// Fill the arena with segment-A hit lists (reads drawn from A align).
	for trial := 0; trial < 10; trial++ {
		start := r.Intn(1200)
		lane.Seed(ref[start : start+101].Clone())
	}
	lane.Reset(segB)
	for trial := 0; trial < 20; trial++ {
		start := segB.Offset + r.Intn(1200)
		read := mutate(r, ref[start:start+101].Clone(), r.Intn(3))
		got := lane.Seed(read)
		fresh := NewSeeder(segB, DefaultOptions()).Seed(read)
		if len(got) != len(fresh) {
			t.Fatalf("trial %d: %d seeds vs fresh %d", trial, len(got), len(fresh))
		}
		lo, hi := int32(segB.Offset), int32(segB.Offset+len(segB.Ref))
		for i := range got {
			if len(got[i].Positions) != len(fresh[i].Positions) {
				t.Fatalf("trial %d seed %d: %d hits vs fresh %d", trial, i, len(got[i].Positions), len(fresh[i].Positions))
			}
			for j, p := range got[i].Positions {
				if p != fresh[i].Positions[j] {
					t.Fatalf("trial %d seed %d hit %d: %d vs fresh %d (stale arena bytes?)", trial, i, j, p, fresh[i].Positions[j])
				}
				if p < lo || p >= hi {
					t.Fatalf("trial %d seed %d: position %d outside segment B [%d,%d)", trial, i, p, lo, hi)
				}
			}
		}
	}
	// Warm rebound lane: alternating segments must not allocate.
	reads := make([]dna.Seq, 8)
	for i := range reads {
		start := r.Intn(len(ref) - 120)
		reads[i] = mutate(r, ref[start:start+101].Clone(), r.Intn(3))
	}
	sweep := func() {
		for _, si := range sx.Samples {
			lane.Reset(si)
			for _, rd := range reads {
				lane.Seed(rd)
			}
		}
	}
	sweep() // grow scratch to the worst segment
	sweep()
	if avg := testing.AllocsPerRun(20, sweep); avg != 0 {
		t.Errorf("warm rebound lane allocates %.2f times per sweep, want 0", avg)
	}
}
