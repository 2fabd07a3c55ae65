package bitsilla

import (
	"testing"

	"genax/internal/align"
	"genax/internal/sillax"
)

// FuzzBitsillaScoringVsSillaX differentially fuzzes the datapath against
// the cycle-level oracle along the scoring axis: Match, Mismatch, GapOpen
// and GapExtend come from fuzzed bytes, mapped into valid scorings
// (Match 1..4, Mismatch 0..7, GapOpen 0..15, GapExtend 1..4). The other
// two targets pin BWA-MEM costs, under which a path on the score band's
// edge (widebound.go) can only tie the gapless witness; with GapExtend > 1
// the edge is strict, so a band one diagonal too narrow drops the optimum.
// The edit bound is mapped into [0, MaxWordK]. The f.Add seeds are its
// checked-in corpus: plain go test replays them without -fuzz, so they
// double as a regression gate.
func FuzzBitsillaScoringVsSillaX(f *testing.F) {
	// The planted deletion of TestWideBandEdge at g = 2 under {1, 4, 6, 2},
	// K = 16: X·Y against X·G·Y plus slack aligns through the 2-base gap
	// exactly on the band's edge (49=2D11=); a scoring where a mismatch is
	// free; and an exact match the gapless step certifies.
	x := "GGGTAGGATACGGCGGAGGGCACGTCAATACGGTTCAATGCCCTACTGC"
	y := "GCTCTTGTGGT"
	f.Add(uint8(16), uint8(0), uint8(4), uint8(6), uint8(1),
		fuzzBases(x+"AT"+y+"TCATCTGCATGGAGAG"), fuzzBases(x+y))
	f.Add(uint8(8), uint8(1), uint8(0), uint8(3), uint8(0),
		fuzzBases("ACGTTGCAACGTTGCA"), fuzzBases("ACGATGCAACGTAGCA"))
	f.Add(uint8(4), uint8(3), uint8(7), uint8(15), uint8(3),
		fuzzBases("ACGTACGTACGT"), fuzzBases("ACGTACGTACGT"))
	f.Fuzz(func(t *testing.T, kRaw, ma, mm, gOpen, gExt uint8, refB, qB []byte) {
		k := int(kRaw) % (MaxWordK + 1)
		sc := align.Scoring{
			Match:     1 + int(ma)%4,
			Mismatch:  int(mm) % 8,
			GapOpen:   int(gOpen) % 16,
			GapExtend: 1 + int(gExt)%4,
		}
		ref, query := fuzzSeq(refB, 300), fuzzSeq(qB, 300)
		got := New(k, sc).Extend(ref, query)
		want := sillax.NewTracebackMachine(k, sc).Extend(ref, query)
		if got.Score != want.Score || got.QueryLen != want.QueryLen ||
			got.RefLen != want.RefLen || got.Cigar.String() != want.Cigar.String() {
			t.Fatalf("k=%d %+v ref=%v query=%v:\nbitsilla (score=%d q=%d r=%d cigar=%s)\nsillax   (score=%d q=%d r=%d cigar=%s)",
				k, sc, ref, query,
				got.Score, got.QueryLen, got.RefLen, got.Cigar,
				want.Score, want.QueryLen, want.RefLen, want.Cigar)
		}
		if err := got.Cigar.Validate(ref, query); err != nil {
			t.Fatalf("k=%d %+v: invalid cigar %s: %v", k, sc, got.Cigar, err)
		}
	})
}
