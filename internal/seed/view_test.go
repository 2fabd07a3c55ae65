package seed

import (
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"genax/internal/dna"
)

// TestNewSegmentIndexFromTables pins the zero-copy binding path the mapped
// index loader uses: adopting a built index's tables verbatim must answer
// every lookup identically to the original, and the validating bind must
// accept exactly the tables the builders produce.
func TestNewSegmentIndexFromTables(t *testing.T) {
	r := rand.New(rand.NewSource(201))
	for _, tc := range []struct{ refLen, k int }{
		{4000, 6}, {500, 4}, {3, 6}, {1000, 1},
	} {
		ref := randSeq(r, tc.refLen)
		built, err := BuildSegmentIndex(ref, 3, 77, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		for _, validate := range []bool{false, true} {
			view, err := NewSegmentIndexFromTables(ref, 3, 77, tc.k, built.tab, validate)
			if err != nil {
				t.Fatalf("%+v validate=%v: %v", tc, validate, err)
			}
			if view.ID != 3 || view.Offset != 77 || view.K() != tc.k {
				t.Fatalf("%+v: view geometry %d/%d/%d", tc, view.ID, view.Offset, view.K())
			}
			for km := dna.Kmer(0); int(km) < built.codec.NumKmers(); km++ {
				want, got := built.Lookup(km), view.Lookup(km)
				if len(want) != len(got) {
					t.Fatalf("%+v kmer %d: %d hits via view, want %d", tc, km, len(got), len(want))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("%+v kmer %d: hit %d diverged", tc, km, i)
					}
				}
			}
		}
	}
}

// TestFromTablesRejectsBadGeometry checks the unconditional length gates.
func TestFromTablesRejectsBadGeometry(t *testing.T) {
	r := rand.New(rand.NewSource(202))
	ref := randSeq(r, 600)
	built, err := BuildSegmentIndex(ref, 0, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	good := built.tab
	for _, tc := range []struct {
		name string
		tab  Tables
	}{
		{"empty start", Tables{Start: nil, Positions: good.Positions, Rows: good.Rows, Width: 1, Rank: good.Rank}},
		{"long start", Tables{Start: make([]int32, len(good.Positions)+2), Positions: good.Positions, Rows: good.Rows, Width: 1, Rank: good.Rank}},
		{"short pos", Tables{Start: good.Start, Positions: good.Positions[:1], Rows: good.Rows, Width: 1, Rank: good.Rank}},
		{"short rows", Tables{Start: good.Start, Positions: good.Positions, Rows: good.Rows[:1], Width: 1, Rank: good.Rank[:1]}},
		{"short rank", Tables{Start: good.Start, Positions: good.Positions, Rows: good.Rows, Width: 1, Rank: good.Rank[:1]}},
		{"rows too short for width 2", Tables{Start: good.Start, Positions: good.Positions, Rows: good.Rows, Width: 2, Rank: good.Rank}},
		{"width 3", Tables{Start: good.Start, Positions: good.Positions, Rows: good.Rows, Width: 3, Rank: good.Rank}},
		{"width 0", Tables{Start: good.Start, Positions: good.Positions, Rows: good.Rows, Rank: good.Rank}},
		{"column outside the row", Tables{Start: good.Start, Positions: good.Positions, Rows: good.Rows, Width: 1, Col: 1, Rank: good.Rank}},
		{"negative column", Tables{Start: good.Start, Positions: good.Positions, Rows: good.Rows, Width: 1, Col: -1, Rank: good.Rank}},
	} {
		if _, err := NewSegmentIndexFromTables(ref, 0, 0, 5, tc.tab, false); err == nil {
			t.Errorf("%s: bind accepted", tc.name)
		}
	}
	if _, err := NewSegmentIndexFromTables(ref, 0, 0, 99, good, false); err == nil {
		t.Error("oversized k accepted")
	}
}

// TestValidateTablesAndClampedLookups drives corrupt views through both
// paths: the validating bind must reject each with the message of the
// invariant it broke, and the non-validating bind must clamp lookups to
// "no hits" instead of panicking — the contract the mapped loader relies on for corruption that slips past
// the checksums.
func TestValidateTablesAndClampedLookups(t *testing.T) {
	r := rand.New(rand.NewSource(203))
	ref := randSeq(r, 600)
	built, err := BuildSegmentIndex(ref, 0, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	// A k=2 index has a 16-bit k-mer space: 48 spare bits in its one word.
	tiny, err := BuildSegmentIndex(randSeq(r, 12), 0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	absent := bits.TrailingZeros64(^built.tab.Rows[3]) // a clear bit of word 3
	cases := []struct {
		name   string
		from   *SegmentIndex
		mutate func(Tables) Tables
		want   string // ValidateTables' message; "" if the mutation may stay legal
	}{
		{"rank off by one", built, func(t Tables) Tables { t.Rank[7]++; return t }, "rank prefix of k-mer block 7"},
		{"rank far out of range", built, func(t Tables) Tables { t.Rank[2] = 1 << 31; return t }, "rank prefix of k-mer block 2"},
		{"presence bit with no start entry", built, func(t Tables) Tables {
			t.Rows[3] |= 1 << absent
			for w := 4; w < len(t.Rank); w++ {
				t.Rank[w]++
			}
			return t
		}, "presence bits for"},
		{"start entry with no presence bit", built, func(t Tables) Tables {
			t.Start = append(t.Start, t.Start[len(t.Start)-1])
			return t
		}, "presence bits for"},
		{"start not strictly increasing", built, func(t Tables) Tables { t.Start[41] = t.Start[40]; return t }, "not strictly increasing at entry 40"},
		{"negative start", built, func(t Tables) Tables { t.Start[40] = -3; return t }, "not strictly increasing"},
		{"start past the position table", built, func(t Tables) Tables { t.Start[10] = 1 << 30; return t }, "not strictly increasing"},
		{"start begins past zero", built, func(t Tables) Tables { t.Start[0] = 1; return t }, "start table begins at 1"},
		{"sentinel short of position count", built, func(t Tables) Tables { t.Start[len(t.Start)-1]--; return t }, "start table ends at"},
		{"sentinel past position count", built, func(t Tables) Tables { t.Start[len(t.Start)-1] += 100; return t }, "start table ends at"},
		{"bits beyond 4^k", tiny, func(t Tables) Tables { t.Rows[0] |= 1 << 16; return t }, "row bits set beyond the 16 k-mers"},
		{"position out of range", built, func(t Tables) Tables { t.Positions[0] = int32(len(t.Positions) + 7); return t }, "outside [0,"},
		{"position order", built, func(t Tables) Tables { t.Positions[len(t.Positions)-1] = t.Positions[0]; return t }, ""},
	}
	for _, tc := range cases {
		src := tc.from.tab
		tab := tc.mutate(Tables{
			Start:     slices.Clone(src.Start),
			Positions: slices.Clone(src.Positions),
			Rows:      slices.Clone(src.Rows),
			Width:     src.Width,
			Col:       src.Col,
			Rank:      slices.Clone(src.Rank),
		})
		k, segRef := tc.from.K(), tc.from.Ref
		_, err := NewSegmentIndexFromTables(segRef, 0, 0, k, tab, true)
		switch {
		case tc.want == "":
			// Legal when the last run holds a single hit; it must still
			// not panic below.
		case err == nil:
			t.Errorf("%s: validating bind accepted", tc.name)
		case !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: rejected with %q, want a message containing %q", tc.name, err, tc.want)
		}
		view, err := NewSegmentIndexFromTables(segRef, 0, 0, k, tab, false)
		if err != nil {
			t.Fatalf("%s: non-validating bind rejected lengths: %v", tc.name, err)
		}
		for km := 0; km < view.codec.NumKmers(); km++ {
			_ = view.Lookup(dna.Kmer(km)) // must not panic
		}
	}
	// The clean views must validate.
	for _, si := range []*SegmentIndex{built, tiny} {
		if _, err := NewSegmentIndexFromTables(si.Ref, 0, 0, si.K(), si.tab, true); err != nil {
			t.Fatalf("clean tables rejected: %v", err)
		}
	}
}
