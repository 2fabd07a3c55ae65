package seed

import (
	"math/rand"
	"slices"
	"testing"

	"genax/internal/dna"
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

func TestSegmentIndexLookup(t *testing.T) {
	r := rand.New(rand.NewSource(100))
	ref := randSeq(r, 2000)
	k := 6
	si, err := BuildSegmentIndex(ref, 0, 0, k)
	if err != nil {
		t.Fatal(err)
	}
	codec, _ := dna.NewKmerCodec(k)
	// Every position must appear exactly once under its own k-mer.
	seen := make([]int, len(ref)-k+1)
	for km := dna.Kmer(0); int(km) < codec.NumKmers(); km++ {
		hits := si.Lookup(km)
		for i, h := range hits {
			seen[h]++
			if i > 0 && hits[i-1] >= h {
				t.Fatalf("hits for kmer %d not strictly ascending", km)
			}
			got, _ := codec.Encode(ref, int(h))
			if got != km {
				t.Fatalf("position %d filed under kmer %d but encodes to %d", h, km, got)
			}
		}
	}
	for p, n := range seen {
		if n != 1 {
			t.Fatalf("position %d indexed %d times", p, n)
		}
	}
}

func TestSegmentIndexShortRef(t *testing.T) {
	si, err := BuildSegmentIndex(dna.MustParseSeq("ACG"), 0, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if hits, ok := si.LookupAt(dna.MustParseSeq("ACGTAC"), 0); !ok || len(hits) != 0 {
		t.Errorf("short ref: hits=%v ok=%v", hits, ok)
	}
}

func TestSegmentIndexSizes(t *testing.T) {
	si, err := BuildSegmentIndex(make(dna.Seq, 1000), 0, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := si.IndexTableBytes(); got != 4*(256+1) {
		t.Errorf("IndexTableBytes = %d", got)
	}
	if got := si.PositionTableBytes(); got != 4*(1000-4+1) {
		t.Errorf("PositionTableBytes = %d", got)
	}
}

func TestSegmentedIndexCoversReference(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	ref := randSeq(r, 5000)
	sx, err := BuildSegmentedIndex(ref, 1000, 150, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sx.NumSegments() != 5 {
		t.Fatalf("segments = %d, want 5", sx.NumSegments())
	}
	// Any 120-base window must lie wholly inside at least one segment.
	for start := 0; start+120 <= len(ref); start += 37 {
		covered := false
		for _, si := range sx.Samples {
			if start >= si.Offset && start+120 <= si.Offset+len(si.Ref) {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("window at %d not covered by any segment", start)
		}
	}
	// Segment-local lookups must translate to the right global bases.
	for _, si := range sx.Samples {
		for i := 0; i < len(si.Ref); i += 97 {
			if si.Ref[i] != ref[si.Offset+i] {
				t.Fatalf("segment %d base %d disagrees with reference", si.ID, i)
			}
		}
	}
}

func TestBuildSegmentedIndexErrors(t *testing.T) {
	if _, err := BuildSegmentedIndex(make(dna.Seq, 10), 0, 0, 4); err == nil {
		t.Error("zero segment length accepted")
	}
	if _, err := BuildSegmentedIndex(make(dna.Seq, 10), 5, -1, 4); err == nil {
		t.Error("negative overlap accepted")
	}
	if _, err := BuildSegmentedIndex(make(dna.Seq, 10), 5, 0, 99); err == nil {
		t.Error("oversized k accepted")
	}
}

func TestIntersectionStrategiesAgree(t *testing.T) {
	// BinarySearch moves only the CAM charge: with it off, the modelled
	// FSM streams oversized lists through the CAM instead, and the seeds
	// must be identical. The repeat-rich reference gives hit lists far
	// beyond the CAM's capacity.
	r := rand.New(rand.NewSource(117))
	ref := make(dna.Seq, 20000) // poly-A: worst-case hit lists
	for i := range ref {
		if r.Intn(4) == 0 {
			ref[i] = dna.Base(r.Intn(4))
		}
	}
	si, _ := BuildSegmentIndex(ref, 0, 0, 6)
	base := DefaultOptions()
	base.MinSeedLen = 12
	noBin := base
	noBin.BinarySearch = false
	sdBase := NewSeeder(si, base)
	sdNoBin := NewSeeder(si, noBin)
	for trial := 0; trial < 20; trial++ {
		start := r.Intn(len(ref) - 101)
		read := ref[start : start+101].Clone()
		a := sdBase.Seed(read)
		c := sdNoBin.Seed(read)
		if len(a) != len(c) {
			t.Fatalf("trial %d: seed counts differ: %d/%d", trial, len(a), len(c))
		}
		for i := range a {
			if a[i].Start != c[i].Start || a[i].End != c[i].End || !slices.Equal(a[i].Positions, c[i].Positions) {
				t.Fatalf("trial %d seed %d differs with binary search off", trial, i)
			}
		}
	}
	if sdBase.Stats.CAMLookups >= sdNoBin.Stats.CAMLookups {
		t.Errorf("binary search did not cut CAM lookups: %d vs %d", sdBase.Stats.CAMLookups, sdNoBin.Stats.CAMLookups)
	}
}

// uniqueKmers returns the distinct k-mers of a window scan, ascending.
func uniqueKmers(kms []dna.Kmer) []dna.Kmer {
	u := slices.Clone(kms)
	slices.Sort(u)
	return slices.Compact(u)
}

// denseTables is the test's own reference: the chip's dense layout, one
// start offset per k-mer of the whole 4^k space, built by a counting sort
// that shares nothing with the package's builders.
func denseTables(kms []dna.Kmer, numKmers int) (start, positions []int32) {
	start = make([]int32, numKmers+1)
	for _, km := range kms {
		start[km+1]++
	}
	for km := 0; km < numKmers; km++ {
		start[km+1] += start[km]
	}
	positions = make([]int32, len(kms))
	fill := make(map[dna.Kmer]int32, len(kms))
	for p, km := range kms {
		positions[start[km]+fill[km]] = int32(p)
		fill[km]++
	}
	return start, positions
}

// checkAgainstDense compares one Lookup with the dense reference tables.
func checkAgainstDense(t *testing.T, si *SegmentIndex, start, positions []int32, km dna.Kmer) {
	t.Helper()
	hits := si.Lookup(km)
	if dense := positions[start[km]:start[km+1]]; !slices.Equal(hits, dense) {
		t.Fatalf("k=%d kmer %d: Lookup returned %v, dense table holds %v", si.K(), km, hits, dense)
	}
	if present := si.row(km)>>si.col&1 != 0; present != (len(hits) > 0) {
		t.Fatalf("k=%d kmer %d: presence bit %v but %d hits", si.K(), km, present, len(hits))
	}
}

// TestPresenceBitmapFiltersAbsentKmers is the differential test of the
// rank-compressed layout: Lookup must answer every k-mer exactly as a
// dense start table would, and the presence bit must be set exactly for
// the k-mers that have hits. Small k-mer spaces are checked exhaustively;
// k=12 is sampled at k-mer 0, 4^k-1, every present k-mer, and both sides
// of every 64-bit presence-word boundary a present k-mer touches.
func TestPresenceBitmapFiltersAbsentKmers(t *testing.T) {
	r := rand.New(rand.NewSource(106))
	for _, tc := range []struct {
		k   int
		ref dna.Seq
	}{
		{4, dna.MustParseSeq("ACGTACGTAA")},
		{2, randSeq(r, 9)}, // a 16-k-mer space: one partial presence word
		{2, randSeq(r, 400)},
		{3, randSeq(r, 40)}, // exactly one full presence word
		{3, randSeq(r, 700)},
		{5, randSeq(r, 600)},
		{5, make(dna.Seq, 300)}, // one k-mer, one long run
		{8, randSeq(r, 3000)},   // 5% of the k-mer space present
		{8, randSeq(r, 70000)},  // more windows than k-mers
		{12, randSeq(r, 20000)},
		{2, randSeq(r, 50)},   // tiny k-mer space, every k-mer present
		{4, randSeq(r, 5000)}, // 20 windows per k-mer
		{6, randSeq(r, 3)},    // no windows at all
		{1, randSeq(r, 1000)}, // k=1 edge
	} {
		si, err := BuildSegmentIndex(tc.ref, 0, 0, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		numKmers := si.codec.NumKmers()
		kms := si.codec.AppendScan(nil, tc.ref)
		start, positions := denseTables(kms, numKmers)
		if len(si.tab.Start) != 1+len(uniqueKmers(kms)) {
			t.Fatalf("k=%d: %d start entries for %d distinct k-mers", tc.k, len(si.tab.Start), len(uniqueKmers(kms)))
		}
		check := func(km dna.Kmer) { checkAgainstDense(t, si, start, positions, km) }
		if tc.k < 12 {
			for km := 0; km < numKmers; km++ {
				check(dna.Kmer(km))
			}
			continue
		}
		check(0)
		check(dna.Kmer(numKmers - 1))
		for _, km := range uniqueKmers(kms) {
			check(km)
			first := km &^ 63
			for _, edge := range []dna.Kmer{first - 1, first, first + 63, first + 64} {
				if edge < dna.Kmer(numKmers) { // first-1 wraps below k-mer 0
					check(edge)
				}
			}
		}
		for i := 0; i < 5000; i++ {
			check(dna.Kmer(r.Intn(numKmers)))
		}
	}
}

// TestParallelBuildDeterministic pins the worker-pool assembly: any worker
// count — including more workers than segments — must produce an index
// whose logical content hashes identically to the serial build.
func TestParallelBuildDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	ref := randSeq(r, 9000)
	want, err := BuildSegmentedIndexWith(ref, 1000, 150, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantHash := want.Hash()
	for _, workers := range []int{0, 2, 3, 4, 16} {
		got, err := BuildSegmentedIndexWith(ref, 1000, 150, 6, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.NumSegments() != want.NumSegments() {
			t.Fatalf("workers=%d: %d segments, want %d", workers, got.NumSegments(), want.NumSegments())
		}
		if h := got.Hash(); h != wantHash {
			t.Errorf("workers=%d: hash %016x, serial build %016x", workers, h, wantHash)
		}
		for id, si := range got.Samples {
			if si.ID != id || si.Offset != want.Samples[id].Offset {
				t.Fatalf("workers=%d: segment %d assembled out of order", workers, id)
			}
		}
	}
	// Errors must propagate from the pool (oversized k fails in-segment).
	if _, err := BuildSegmentedIndexWith(ref, 1000, 150, 99, 4); err == nil {
		t.Error("parallel build accepted oversized k")
	}
}

// TestLookupBorrowContract is the aliasing audit: Lookup/LookupAt hand out
// views of the shared position table, so a full seeding workload — which
// drives every CAM intersection strategy over those views — must leave the
// table byte-identical. A caller mutating through a borrowed slice would
// trip this.
func TestLookupBorrowContract(t *testing.T) {
	r := rand.New(rand.NewSource(104))
	ref := make(dna.Seq, 20000) // low-entropy: huge shared hit lists
	for i := range ref {
		if r.Intn(4) == 0 {
			ref[i] = dna.Base(r.Intn(4))
		}
	}
	si, err := BuildSegmentIndex(ref, 0, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]int32(nil), si.tab.Positions...)
	for _, opts := range []Options{
		DefaultOptions(),
		{MinSeedLen: 10, SMEMFilter: true, BinaryExtension: true, Probing: true, ExactFastPath: true},
		{MinSeedLen: 10, SMEMFilter: true, BinaryExtension: true, BinarySearch: false},
		{MinSeedLen: 10, SMEMFilter: false},
	} {
		sd := NewSeeder(si, opts)
		for trial := 0; trial < 25; trial++ {
			start := r.Intn(len(ref) - 101)
			sd.Seed(mutate(r, ref[start:start+101].Clone(), r.Intn(3)))
		}
	}
	for i, p := range si.tab.Positions {
		if p != snapshot[i] {
			t.Fatalf("position table mutated through a borrowed Lookup slice at %d: %d -> %d", i, snapshot[i], p)
		}
	}
}
