package bitsilla

import (
	"testing"

	"genax/internal/align"
	"genax/internal/dna"
	"genax/internal/sillax"
)

// FuzzBitsillaVsSillaX differentially fuzzes the one-word instance of the
// datapath (K ≤ MaxWordK) against the cycle-level oracle: for any such
// edit bound and any pair of sequences, the two machines must agree byte
// for byte on score, consumed lengths and cigar, and the cigar must
// reconcile with the strings. The seeds double as a regression gate in CI
// (go test runs every seed even without -fuzz).
func FuzzBitsillaVsSillaX(f *testing.F) {
	// Edit bounds spanning single-bit, narrow-word and tile-composition
	// regimes; reads ending on, before and after the w=k+1 tile widths;
	// empty and all-clip inputs. The gapless step's seeds follow: an exact
	// match (the first seed), one interior substitution at K=0 and K=1 (both
	// sides of the edit bound), a score tie it must refuse, and mismatched
	// tails on both sides of the gap-escape threshold.
	f.Add(uint8(1), []byte("ACGT"), []byte("ACGT"))
	f.Add(uint8(2), []byte("TTTTTTTT"), []byte("CCCCCCCC"))
	f.Add(uint8(4), []byte("ACGTACGTACGTACGTACGT"), []byte("ACGTACTACGTACGTACGT"))
	f.Add(uint8(4), []byte("ACGTACGTAC"), []byte("ACGTACGGTACGT"))
	f.Add(uint8(8), []byte("ACACACACACACACACAC"), []byte("ACACACACTACACACAC"))
	f.Add(uint8(8), []byte{}, []byte("ACGT"))
	f.Add(uint8(8), []byte("GGGG"), []byte{})
	f.Add(uint8(9), []byte("ACGTACGTACG"), []byte("ACGTACGTACG"))
	f.Add(uint8(19), []byte("ACGTACGTACGTACGTACGTA"), []byte("ACGTACGTACGTACGTACGT"))
	f.Add(uint8(0), []byte("ACGTACGTACGTACGTACGT"), []byte("ACGTACGTATGTACGTACGT"))
	f.Add(uint8(1), []byte("ACGTACGTACGTACGTACGT"), []byte("ACGTACGTATGTACGTACGT"))
	f.Add(uint8(4), []byte("ACGTAAAA"), []byte("ACTT"))
	f.Add(uint8(1), []byte("ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT"), []byte("ACGTACGTACGTACGTACGTACGTACGTACGTACGTAGTC"))
	f.Add(uint8(1), []byte("ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT"), []byte("ACGTACGTACGTACGTACGTACGTACGTACTGCATGCATG"))
	f.Fuzz(func(t *testing.T, kRaw uint8, refB, qB []byte) {
		k := int(kRaw) % (MaxWordK + 1)
		ref, query := fuzzSeq(refB, 300), fuzzSeq(qB, 300)
		sc := align.BWAMEMDefaults()
		got := New(k, sc).Extend(ref, query)
		want := sillax.NewTracebackMachine(k, sc).Extend(ref, query)
		if got.Score != want.Score || got.QueryLen != want.QueryLen ||
			got.RefLen != want.RefLen || got.Cigar.String() != want.Cigar.String() {
			t.Fatalf("k=%d ref=%v query=%v:\nbitsilla (score=%d q=%d r=%d cigar=%s)\nsillax   (score=%d q=%d r=%d cigar=%s)",
				k, ref, query,
				got.Score, got.QueryLen, got.RefLen, got.Cigar,
				want.Score, want.QueryLen, want.RefLen, want.Cigar)
		}
		if err := got.Cigar.Validate(ref, query); err != nil {
			t.Fatalf("k=%d: invalid cigar %s: %v", k, got.Cigar, err)
		}
	})
}

// fuzzSeq decodes fuzzed bytes into a sequence of at most n bases, one
// base per byte (its low two bits).
func fuzzSeq(b []byte, n int) dna.Seq {
	if len(b) > n {
		b = b[:n]
	}
	s := make(dna.Seq, len(b))
	for i, x := range b {
		s[i] = dna.Base(x & 3)
	}
	return s
}
