package seed

import (
	"math/rand"
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
		{"short start", Tables{Start: good.Start[:10], Positions: good.Positions, Presence: good.Presence}},
		{"short pos", Tables{Start: good.Start, Positions: good.Positions[:1], Presence: good.Presence}},
		{"short presence", Tables{Start: good.Start, Positions: good.Positions, Presence: good.Presence[:1]}},
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
// paths: the validating bind must reject them, and the non-validating bind
// must clamp lookups to "no hits" instead of panicking — the contract the
// mapped loader relies on for corruption that slips past the checksums.
func TestValidateTablesAndClampedLookups(t *testing.T) {
	r := rand.New(rand.NewSource(203))
	ref := randSeq(r, 600)
	built, err := BuildSegmentIndex(ref, 0, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(Tables)) Tables {
		tab := Tables{
			Start:     append([]int32(nil), built.tab.Start...),
			Positions: append([]int32(nil), built.tab.Positions...),
			Presence:  append([]uint64(nil), built.tab.Presence...),
		}
		mutate(tab)
		return tab
	}
	cases := []struct {
		name string
		tab  Tables
	}{
		{"negative start", corrupt(func(t Tables) { t.Start[40] = -3 })},
		{"non-monotone", corrupt(func(t Tables) { t.Start[41] = t.Start[42] + 9 })},
		{"overflow end", corrupt(func(t Tables) { t.Start[len(t.Start)-1] = int32(len(t.Positions) + 100) })},
		{"presence liar", corrupt(func(t Tables) { t.Presence[0] ^= 1 })},
		{"position range", corrupt(func(t Tables) { t.Positions[0] = int32(len(t.Positions) + 7) })},
		{"position order", corrupt(func(t Tables) { t.Positions[len(t.Positions)-1] = t.Positions[0] })},
		{"start past fill", corrupt(func(t Tables) { t.Start[10] = 1 << 30 })},
	}
	for _, tc := range cases {
		name, tab := tc.name, tc.tab
		if _, err := NewSegmentIndexFromTables(ref, 0, 0, 5, tab, true); err == nil {
			// Mutations that keep the structure legal (position order on a
			// single-hit run) may validate; they must still not panic below.
			t.Logf("%s: validating bind accepted (structurally legal mutation)", name)
		}
		view, err := NewSegmentIndexFromTables(ref, 0, 0, 5, tab, false)
		if err != nil {
			t.Fatalf("%s: non-validating bind rejected lengths: %v", name, err)
		}
		for km := dna.Kmer(0); int(km) < view.codec.NumKmers(); km++ {
			_ = view.Lookup(km) // must not panic
		}
	}
	// The clean view must validate.
	if _, err := NewSegmentIndexFromTables(ref, 0, 0, 5, built.tab, true); err != nil {
		t.Fatalf("clean tables rejected: %v", err)
	}
}
