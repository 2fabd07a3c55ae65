package bitsilla

import (
	"testing"

	"genax/internal/align"
	"genax/internal/sillax"
)

// FuzzBitsillaWideVsSillaX differentially fuzzes the multi-word instances
// of the datapath against the cycle-level oracle: the edit bound is mapped
// into [MaxWordK+1, 191] so every execution runs two or more words, and a
// fuzzed window size (mapped into [2, 64]) forces checkpoint replay on
// longer inputs. The checked-in corpus doubles as a regression gate in CI
// (go test replays every seed even without -fuzz).
func FuzzBitsillaWideVsSillaX(f *testing.F) {
	// Seeds straddle word edges (k = 64, 65, 127, 128, 191 via the kRaw
	// mapping below), include gap blocks long enough to cross bit 63, and
	// cover empty/all-clip inputs, tiny replay windows, and an exact prefix
	// the gapless step certifies at K=65.
	f.Add(uint8(0), uint8(0), []byte("ACGTACGT"), []byte("ACGTACGT"))
	f.Add(uint8(1), uint8(2), []byte("TTTTTTTTTTTTTTTT"), []byte("CCCCCCCC"))
	f.Add(uint8(63), uint8(1), []byte("ACGTACGTACGTACGTACGT"), []byte("ACGTACTACGTACGTACGT"))
	f.Add(uint8(64), uint8(3), []byte{}, []byte("ACGT"))
	f.Add(uint8(127), uint8(62), []byte("GGGG"), []byte{})
	f.Add(uint8(128), uint8(5), []byte("ACACACACACACACACACACACACAC"), []byte("ACAC"))
	f.Add(uint8(1), uint8(7), []byte("ACGTACGTACGTACGTACGTA"), []byte("ACGTACGTACGTACGTACGT"))
	f.Fuzz(func(t *testing.T, kRaw, winRaw uint8, refB, qB []byte) {
		k := MaxWordK + 1 + int(kRaw)%(191-MaxWordK)
		ref, query := fuzzSeq(refB, 400), fuzzSeq(qB, 400)
		sc := align.BWAMEMDefaults()
		m := New(k, sc)
		m.wide.winC = 2 + int(winRaw)%63
		got := m.Extend(ref, query)
		want := sillax.NewTracebackMachine(k, sc).Extend(ref, query)
		if got.Score != want.Score || got.QueryLen != want.QueryLen ||
			got.RefLen != want.RefLen || got.Cigar.String() != want.Cigar.String() {
			t.Fatalf("k=%d winC=%d ref=%v query=%v:\nbitsilla (score=%d q=%d r=%d cigar=%s)\nsillax   (score=%d q=%d r=%d cigar=%s)",
				k, m.wide.winC, ref, query,
				got.Score, got.QueryLen, got.RefLen, got.Cigar,
				want.Score, want.QueryLen, want.RefLen, want.Cigar)
		}
		if err := got.Cigar.Validate(ref, query); err != nil {
			t.Fatalf("k=%d: invalid cigar %s: %v", k, got.Cigar, err)
		}
	})
}
