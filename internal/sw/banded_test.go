package sw

import (
	"math/rand"
	"testing"

	"genax/internal/align"
	"genax/internal/dna"
)

func TestBandedExtendMatchesFullExtend(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	sc := align.BWAMEMDefaults()
	full := NewAligner(sc)
	for _, k := range []int{8, 16, 32} {
		banded := NewBandedAligner(sc, k)
		for trial := 0; trial < 100; trial++ {
			query := randSeq(r, 30+r.Intn(70))
			ref := mutate(r, query, r.Intn(5))
			want := full.Align(ref, query)
			got := banded.Extend(ref, query)
			// With few edits the optimum stays inside the band, so the
			// scores must agree exactly.
			if got.Score != want.Score {
				t.Fatalf("k=%d trial=%d: banded score %d, full %d", k, trial, got.Score, want.Score)
			}
			if err := got.Cigar.Validate(ref, query); err != nil {
				t.Fatalf("k=%d trial=%d: invalid cigar %v: %v", k, trial, got.Cigar, err)
			}
			if got.Cigar.Score(sc) != got.Score {
				t.Fatalf("k=%d trial=%d: cigar rescore %d != score %d", k, trial, got.Cigar.Score(sc), got.Score)
			}
		}
	}
}

func TestBandedExtendAgainstEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	sc := align.BWAMEMDefaults()
	banded := NewBandedAligner(sc, 6)
	for trial := 0; trial < 100; trial++ {
		ref := randSeq(r, r.Intn(7))
		query := randSeq(r, r.Intn(7))
		want := enumerateExtend(ref, query, sc)
		got := banded.Extend(ref, query)
		if got.Score != want {
			t.Fatalf("trial %d: banded %d, oracle %d (ref=%v query=%v)", trial, got.Score, want, ref, query)
		}
	}
}

func TestBandedExtendPerfectMatch(t *testing.T) {
	sc := align.BWAMEMDefaults()
	banded := NewBandedAligner(sc, 4)
	s := dna.MustParseSeq("ACGTACGTACGT")
	res := banded.Extend(s, s)
	if res.Score != 12 || res.Cigar.String() != "12=" {
		t.Errorf("perfect match: %v", res)
	}
}

func TestBandedExtendNarrowBandClips(t *testing.T) {
	// A 6-base insertion cannot fit in a band of radius 2; the aligner
	// must still return a valid (clipped or mismatched) alignment rather
	// than stepping outside the band.
	sc := align.BWAMEMDefaults()
	banded := NewBandedAligner(sc, 2)
	ref := dna.MustParseSeq("AAAACCCC")
	query := dna.MustParseSeq("AAAAGGGGGGCCCC")
	res := banded.Extend(ref, query)
	if err := res.Cigar.Validate(ref, query); err != nil {
		t.Fatalf("invalid cigar %v: %v", res.Cigar, err)
	}
	if res.Cigar.Score(sc) != res.Score {
		t.Fatalf("score mismatch: cigar %d vs %d", res.Cigar.Score(sc), res.Score)
	}
}

func TestBandedAlignerMinimumBand(t *testing.T) {
	ba := NewBandedAligner(align.BWAMEMDefaults(), 0)
	if ba.Band() != 1 {
		t.Errorf("Band() = %d, want clamp to 1", ba.Band())
	}
}

func TestBandedScratchReuse(t *testing.T) {
	sc := align.BWAMEMDefaults()
	ba := NewBandedAligner(sc, 8)
	r := rand.New(rand.NewSource(22))
	big := randSeq(r, 200)
	ba.Extend(big, mutate(r, big, 3))
	s := dna.MustParseSeq("ACGT")
	res := ba.Extend(s, s)
	if res.Score != 4 || res.Cigar.String() != "4=" {
		t.Errorf("after reuse: %v", res)
	}
}
