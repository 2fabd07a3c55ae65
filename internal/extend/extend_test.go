package extend

import (
	"math/rand"
	"testing"

	"genax/internal/align"
	"genax/internal/bitsilla"
	"genax/internal/dna"
	"genax/internal/sillax"
	"genax/internal/sw"
)

func randSeq(r *rand.Rand, n int) dna.Seq {
	s := make(dna.Seq, n)
	for i := range s {
		s[i] = dna.Base(r.Intn(dna.NumBases))
	}
	return s
}

// plantRead embeds a read in ref at pos with e substitution errors outside
// the window [seedS, seedE), returning the read.
func plantRead(r *rand.Rand, ref dna.Seq, pos, readLen, seedS, seedE, e int) dna.Seq {
	read := ref[pos : pos+readLen].Clone()
	for i := 0; i < e; i++ {
		p := r.Intn(readLen)
		if p >= seedS && p < seedE {
			continue
		}
		read[p] = dna.Base((int(read[p]) + 1 + r.Intn(3)) % 4)
	}
	return read
}

type namedEngine struct {
	name string
	eng  Engine
}

// engines returns the extension engines under test in a fixed order (this
// package is declared deterministic, so tests must not range over maps).
// Order-sensitive tests index the first two entries; keep banded and
// sillax in front.
func engines(k int) []namedEngine {
	sc := align.BWAMEMDefaults()
	return []namedEngine{
		{"banded", BandedEngine{A: sw.NewBandedAligner(sc, k)}},
		{"sillax", SillaXEngine{M: sillax.NewTracebackMachine(k, sc)}},
		{"bitsilla", BitSillaEngine{M: bitsilla.New(k, sc)}},
	}
}

// TestEngineWorkReports checks that every engine, banded included, reports
// nonzero work in Extension.Cycles so no engine is invisible in the stage
// counters.
func TestEngineWorkReports(t *testing.T) {
	r := rand.New(rand.NewSource(143))
	ref := randSeq(r, 120)
	query := ref[:80].Clone()
	for _, p := range []int{10, 40, 70} {
		query[p] = dna.Base((int(query[p]) + 1) % 4)
	}
	for _, ne := range engines(8) {
		res := ne.eng.Extend(ref, query)
		if res.Cycles <= 0 {
			t.Errorf("%s: Cycles = %d, want > 0", ne.name, res.Cycles)
		}
		if ne.name != "sillax" && res.ReRuns != 0 {
			t.Errorf("%s: ReRuns = %d, want 0", ne.name, res.ReRuns)
		}
	}
}

// fakeEngine reports made-up work on every call and keeps the sums of
// what it reported, so a test can compare them with the stitcher's.
type fakeEngine struct{ calls, cycles, reruns int }

func (e *fakeEngine) Extend(ref, query dna.Seq) Extension {
	e.calls++
	cycles, reruns := 7*len(query)+e.calls, len(ref)
	e.cycles += cycles
	e.reruns += reruns
	return Extension{Cycles: cycles, ReRuns: reruns}
}

// TestStitcherCountsWorkPerCall checks that Stitcher.Cycles and ReRuns
// are one AlignAt call's work: the sum of its left and right engine
// calls, whichever of them the seed's place in the read leaves to run.
func TestStitcherCountsWorkPerCall(t *testing.T) {
	r := rand.New(rand.NewSource(132))
	sc := align.BWAMEMDefaults()
	ref := randSeq(r, 200)
	read := ref[100:150].Clone()
	eng := &fakeEngine{}
	st := Stitcher{Eng: eng}
	for _, tc := range []struct {
		name               string
		seedStart, seedEnd int
		calls              int
	}{
		{"mid-read", 20, 30, 2},
		{"read start", 0, 20, 1},
		{"read end", 30, 50, 1},
		{"whole read", 0, 50, 0},
	} {
		before := *eng
		st.AlignAt(sc, ref, read, tc.seedStart, tc.seedEnd, 100+tc.seedStart, 8)
		if got := eng.calls - before.calls; got != tc.calls {
			t.Errorf("%s: %d engine calls, want %d", tc.name, got, tc.calls)
		}
		if want := eng.cycles - before.cycles; st.Cycles != want {
			t.Errorf("%s: Cycles = %d, want %d", tc.name, st.Cycles, want)
		}
		if want := eng.reruns - before.reruns; st.ReRuns != want {
			t.Errorf("%s: ReRuns = %d, want %d", tc.name, st.ReRuns, want)
		}
	}
}

// TestBitSillaStitchParity runs whole stitched alignments through the
// bit-parallel and cycle-level engines: the composed results (position,
// score, cigar) must be byte-identical, not just the raw extensions.
func TestBitSillaStitchParity(t *testing.T) {
	r := rand.New(rand.NewSource(129))
	sc := align.BWAMEMDefaults()
	k := 24
	ref := randSeq(r, 4000)
	bit := Stitcher{Eng: BitSillaEngine{M: bitsilla.New(k, sc)}}
	cyc := Stitcher{Eng: SillaXEngine{M: sillax.NewTracebackMachine(k, sc)}}
	for trial := 0; trial < 60; trial++ {
		pos := r.Intn(3000)
		readLen := 60 + r.Intn(80)
		seedS := r.Intn(readLen - 20)
		seedE := seedS + 20
		read := plantRead(r, ref, pos, readLen, seedS, seedE, r.Intn(8))
		got := bit.AlignAt(sc, ref, read, seedS, seedE, pos+seedS, k)
		want := cyc.AlignAt(sc, ref, read, seedS, seedE, pos+seedS, k)
		if got.Score != want.Score || got.RefPos != want.RefPos ||
			got.Cigar.String() != want.Cigar.String() {
			t.Fatalf("trial %d: bitsilla %v vs sillax %v", trial, got, want)
		}
	}
}

func TestAlignAtPerfectRead(t *testing.T) {
	r := rand.New(rand.NewSource(120))
	ref := randSeq(r, 2000)
	sc := align.BWAMEMDefaults()
	for _, ne := range engines(16) {
		name, st := ne.name, Stitcher{Eng: ne.eng}
		read := ref[700:801].Clone()
		res := st.AlignAt(sc, ref, read, 20, 60, 720, 16)
		if res.Score != 101 {
			t.Errorf("%s: score = %d, want 101", name, res.Score)
		}
		if res.RefPos != 700 {
			t.Errorf("%s: RefPos = %d, want 700", name, res.RefPos)
		}
		if res.Cigar.String() != "101=" {
			t.Errorf("%s: cigar = %v", name, res.Cigar)
		}
	}
}

func TestAlignAtValidCigars(t *testing.T) {
	r := rand.New(rand.NewSource(121))
	sc := align.BWAMEMDefaults()
	for _, ne := range engines(16) {
		name, st := ne.name, Stitcher{Eng: ne.eng}
		for trial := 0; trial < 100; trial++ {
			ref := randSeq(r, 1500)
			pos := 200 + r.Intn(1000)
			read := plantRead(r, ref, pos, 101, 40, 60, r.Intn(5))
			res := st.AlignAt(sc, ref, read, 40, 60, pos+40, 16)
			if err := res.Cigar.Validate(ref[res.RefPos:], read); err != nil {
				t.Fatalf("%s trial %d: invalid cigar %v: %v", name, trial, res.Cigar, err)
			}
			if got := res.Cigar.Score(sc); got != res.Score {
				t.Fatalf("%s trial %d: cigar rescores %d, reported %d", name, trial, got, res.Score)
			}
			if res.Score < 20 { // the 20-base seed alone guarantees this
				t.Fatalf("%s trial %d: score %d below seed floor", name, trial, res.Score)
			}
		}
	}
}

func TestAlignAtEnginesAgree(t *testing.T) {
	// The SillaX lane and the banded software extension must produce the
	// same scores on realistic reads (the §VIII-A concordance claim).
	r := rand.New(rand.NewSource(122))
	sc := align.BWAMEMDefaults()
	eng := engines(20)
	banded, sillaX := Stitcher{Eng: eng[0].eng}, Stitcher{Eng: eng[1].eng}
	for trial := 0; trial < 120; trial++ {
		ref := randSeq(r, 1500)
		pos := 200 + r.Intn(1000)
		read := plantRead(r, ref, pos, 101, 45, 65, r.Intn(6))
		a := banded.AlignAt(sc, ref, read, 45, 65, pos+45, 20)
		b := sillaX.AlignAt(sc, ref, read, 45, 65, pos+45, 20)
		if a.Score != b.Score {
			t.Fatalf("trial %d: banded %d vs sillax %d", trial, a.Score, b.Score)
		}
	}
}

func TestAlignAtSeedAtReadBoundary(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	ref := randSeq(r, 500)
	sc := align.BWAMEMDefaults()
	for _, ne := range engines(8) {
		name, st := ne.name, Stitcher{Eng: ne.eng}
		// Seed at the very start of the read.
		read := ref[100:150].Clone()
		res := st.AlignAt(sc, ref, read, 0, 20, 100, 8)
		if res.Score != 50 || res.RefPos != 100 {
			t.Errorf("%s start-seed: %+v", name, res)
		}
		// Seed at the very end.
		res = st.AlignAt(sc, ref, read, 30, 50, 130, 8)
		if res.Score != 50 || res.RefPos != 100 {
			t.Errorf("%s end-seed: %+v", name, res)
		}
		// Whole-read seed.
		res = st.AlignAt(sc, ref, read, 0, 50, 100, 8)
		if res.Score != 50 || res.Cigar.String() != "50=" {
			t.Errorf("%s full-seed: %+v", name, res)
		}
	}
}

func TestAlignAtRefBoundary(t *testing.T) {
	r := rand.New(rand.NewSource(124))
	ref := randSeq(r, 200)
	sc := align.BWAMEMDefaults()
	for _, ne := range engines(8) {
		name, st := ne.name, Stitcher{Eng: ne.eng}
		// Seed so close to the reference start that the left window is
		// clamped; the left read part must be clipped, not crash.
		read := append(randSeq(r, 10), ref[0:40]...)
		res := st.AlignAt(sc, ref, read, 10, 50, 0, 8)
		if err := res.Cigar.Validate(ref[res.RefPos:], read); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Score < 40 {
			t.Errorf("%s: score %d below seed floor", name, res.Score)
		}
		// Seed ending exactly at the reference end.
		read2 := append(ref[160:200].Clone(), randSeq(r, 10)...)
		res2 := st.AlignAt(sc, ref, read2, 0, 40, 160, 8)
		if err := res2.Cigar.Validate(ref[res2.RefPos:], read2); err != nil {
			t.Fatalf("%s end: %v", name, err)
		}
	}
}

func TestAlignAtIndelRead(t *testing.T) {
	sc := align.BWAMEMDefaults()
	r := rand.New(rand.NewSource(125))
	ref := randSeq(r, 600)
	// Read = ref[100:201] with 3 bases deleted at read offset 70.
	read := append(ref[100:170].Clone(), ref[173:201]...)
	for _, ne := range engines(16) {
		name, st := ne.name, Stitcher{Eng: ne.eng}
		res := st.AlignAt(sc, ref, read, 10, 50, 110, 16)
		if err := res.Cigar.Validate(ref[res.RefPos:], read); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := 98 - (6 + 3) // 98 matches, one 3-base deletion
		if res.Score != want {
			t.Errorf("%s: score = %d, want %d (cigar %v)", name, res.Score, want, res.Cigar)
		}
	}
}

// TestStitcherMatchesOneShot checks that a reused Stitcher produces exactly
// what a fresh one produces — the scratch buffers must never leak state
// between extensions.
func TestStitcherMatchesOneShot(t *testing.T) {
	r := rand.New(rand.NewSource(130))
	sc := align.BWAMEMDefaults()
	for _, ne := range engines(16) {
		name, eng := ne.name, ne.eng
		st := Stitcher{Eng: eng}
		ref := randSeq(r, 3000)
		for trial := 0; trial < 40; trial++ {
			pos := 100 + r.Intn(2500)
			read := plantRead(r, ref, pos, 101, 40, 60, r.Intn(6))
			got := st.AlignAt(sc, ref, read, 40, 60, pos+40, 16)
			fresh := Stitcher{Eng: eng}
			want := fresh.AlignAt(sc, ref, read, 40, 60, pos+40, 16)
			if got.Score != want.Score || got.RefPos != want.RefPos || got.Cigar.String() != want.Cigar.String() {
				t.Fatalf("%s trial %d: reused stitcher %v vs fresh %v", name, trial, got, want)
			}
		}
	}
}

// TestStitcherLeftCigarSurvivesRightExtension guards the Engine contract:
// the left extension's cigar is held across the right Extend call, so an
// engine whose results aliased reusable scratch would corrupt the stitch.
func TestStitcherLeftCigarSurvivesRightExtension(t *testing.T) {
	r := rand.New(rand.NewSource(131))
	sc := align.BWAMEMDefaults()
	m := sillax.NewTracebackMachine(16, sc)
	st := Stitcher{Eng: SillaXEngine{M: m}}
	ref := randSeq(r, 2000)
	for trial := 0; trial < 30; trial++ {
		pos := 100 + r.Intn(1700)
		// Errors on both flanks force non-trivial left AND right cigars.
		read := plantRead(r, ref, pos, 101, 45, 65, 4)
		res := st.AlignAt(sc, ref, read, 45, 65, pos+45, 16)
		if err := res.Cigar.Validate(ref[res.RefPos:], read); err != nil {
			t.Fatalf("trial %d: stitched cigar invalid: %v (%v)", trial, err, res)
		}
	}
}
