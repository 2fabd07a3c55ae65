package seed

import (
	"math/rand"
	"slices"
	"testing"

	"genax/internal/dna"
)

// TestSetGroupOf pins the set-group layout: groups of 8 from segment 0,
// then the short tail in groups of 4, 2 and 1, each group a run of
// consecutive segments whose width is its segment count.
func TestSetGroupOf(t *testing.T) {
	for _, tc := range []struct {
		numSegs int
		want    []int // group widths in order
	}{
		{1, []int{1}}, {2, []int{2}}, {3, []int{2, 1}}, {4, []int{4}}, {5, []int{4, 1}},
		{6, []int{4, 2}}, {7, []int{4, 2, 1}}, {8, []int{8}}, {9, []int{8, 1}},
		{13, []int{8, 4, 1}}, {15, []int{8, 4, 2, 1}}, {16, []int{8, 8}}, {23, []int{8, 8, 4, 2, 1}},
	} {
		numSegs, want := tc.numSegs, tc.want
		var got []int
		for id := 0; id < numSegs; id++ {
			first, col, width := SetGroupOf(id, numSegs)
			if col == 0 {
				got = append(got, width)
			}
			if first != id-col || len(got) == 0 || width != got[len(got)-1] || col >= width {
				t.Fatalf("SetGroupOf(%d, %d) = (%d, %d, %d) in groups %v", id, numSegs, first, col, width, got)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%d segments: groups %v, want %v", numSegs, got, want)
		}
	}
}

// TestRowLayoutDifferential holds the set-group row tables to brute force
// on random genomes cut into 1 to 17 segments, which covers row widths 1,
// 2, 4 and 8 and every short tail:
//   - each segment sits at its SetGroupOf column and width, and the row
//     tables hold as many words as one presence bitmap per segment;
//   - every segment's row bit and Lookup answer, for every k-mer, equal a
//     scan of the segment's reference;
//   - seeding a read through one rows buffer carried across a set group's
//     segments (SeedRows), on a lane that changes from segment to segment,
//     gives the seeds and chip counters of a standalone Seed on every
//     segment;
//   - after each SeedRows, every window's probe-table answer equals the
//     scan, and the segment is skipped exactly when it holds no window.
func TestRowLayoutDifferential(t *testing.T) {
	const k, segLen, overlap = 5, 300, 60
	r := rand.New(rand.NewSource(131))
	codec, err := dna.NewKmerCodec(k)
	if err != nil {
		t.Fatal(err)
	}
	widths := map[int]bool{}
	for segs := 1; segs <= 17; segs++ {
		ref := randSeq(r, segs*segLen)
		sx, err := BuildSegmentedIndex(ref, segLen, overlap, k)
		if err != nil {
			t.Fatal(err)
		}
		if sx.NumSegments() != segs {
			t.Fatalf("%d segments built, want %d", sx.NumSegments(), segs)
		}
		occ := make([][][]int32, segs) // occ[s][km]: brute-force occurrence list
		rowWords := 0
		for s, si := range sx.Samples {
			first, col, w := SetGroupOf(s, segs)
			if si.tab.Width != w || si.tab.Col != col || &si.tab.Rows[0] != &sx.Samples[first].tab.Rows[0] {
				t.Fatalf("segs %d seg %d: column %d of a %d-bit row, want column %d of the %d-bit row of segment %d",
					segs, s, si.tab.Col, si.tab.Width, col, w, first)
			}
			if col == 0 {
				rowWords += len(si.tab.Rows)
			}
			widths[w] = true
			occ[s] = make([][]int32, codec.NumKmers())
			for p := 0; p+k <= len(si.Ref); p++ {
				km, _ := codec.Encode(si.Ref, p)
				occ[s][km] = append(occ[s][km], int32(p))
			}
			for km := range occ[s] {
				want := occ[s][km]
				if got := si.Lookup(dna.Kmer(km)); !slices.Equal(got, want) {
					t.Fatalf("segs %d seg %d k-mer %d: Lookup %v, scan %v", segs, s, km, got, want)
				}
				if held := si.row(dna.Kmer(km))>>si.col&1 != 0; held != (len(want) > 0) {
					t.Fatalf("segs %d seg %d k-mer %d: row bit %v, %d occurrences", segs, s, km, held, len(want))
				}
			}
		}
		// The row tables hold one bit per (segment, k-mer): exactly the
		// per-segment bitmaps' words.
		if want := segs * RowWords(codec.NumKmers(), 1); rowWords != want {
			t.Fatalf("segs %d: row tables hold %d words, per-segment bitmaps %d", segs, rowWords, want)
		}

		lanes := [2]*Seeder{NewSeeder(sx.Samples[0], DefaultOptions()), NewSeeder(sx.Samples[0], DefaultOptions())}
		for trial := 0; trial < 12; trial++ {
			start := r.Intn(len(ref) - 80)
			read := mutate(r, ref[start:start+40+r.Intn(40)].Clone(), r.Intn(3))
			rows := make([]uint8, len(read)-k+1)
			for s, si := range sx.Samples {
				lane := lanes[(s+trial)%2]
				lane.Reset(si)
				before, skipped := lane.Stats, lane.Host.SegmentsSkipped
				got := lane.SeedRows(read, rows)
				gotSeeds, gotStats := cloneSeeds(got), statsSince(lane.Stats, before)
				lane.resolveRest()
				held := false
				for q := range rows {
					km, _ := codec.Encode(read, q)
					want := occ[s][km]
					held = held || len(want) > 0
					if hits := lane.hitsAt(q); !slices.Equal(hits, want) {
						t.Fatalf("segs %d seg %d trial %d window %d: probe table %v, scan %v", segs, s, trial, q, hits, want)
					}
				}
				if skip := lane.Host.SegmentsSkipped > skipped; skip == held {
					t.Fatalf("segs %d seg %d trial %d: skipped %v with a held window %v", segs, s, trial, skip, held)
				}

				alone := NewSeeder(si, DefaultOptions())
				want := alone.Seed(read)
				if !seedsEqual(gotSeeds, want) || gotStats != alone.Stats {
					t.Fatalf("segs %d seg %d trial %d: through rows %v %+v, standalone %v %+v",
						segs, s, trial, gotSeeds, gotStats, want, alone.Stats)
				}
			}
		}
	}
	for _, w := range []int{1, 2, 4, 8} {
		if !widths[w] {
			t.Errorf("no set group had row width %d", w)
		}
	}
}

// statsSince returns the counters s gathered after before.
func statsSince(s, before Stats) Stats {
	return Stats{
		Reads:        s.Reads - before.Reads,
		ExactReads:   s.ExactReads - before.ExactReads,
		IndexLookups: s.IndexLookups - before.IndexLookups,
		CAMLookups:   s.CAMLookups - before.CAMLookups,
		SeedsEmitted: s.SeedsEmitted - before.SeedsEmitted,
		HitsEmitted:  s.HitsEmitted - before.HitsEmitted,
	}
}

// cloneSeeds copies lane-scratch seeds out of the lane.
func cloneSeeds(in []Seed) []Seed {
	out := make([]Seed, len(in))
	for i, s := range in {
		out[i] = Seed{Start: s.Start, End: s.End, Positions: slices.Clone(s.Positions)}
	}
	return out
}

// seedsEqual compares two seed lists field by field.
func seedsEqual(a, b []Seed) bool {
	return slices.EqualFunc(a, b, func(x, y Seed) bool {
		return x.Start == y.Start && x.End == y.End && slices.Equal(x.Positions, y.Positions)
	})
}
