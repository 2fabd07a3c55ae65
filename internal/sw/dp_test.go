package sw

import (
	"math/rand"
	"testing"

	"genax/internal/align"
	"genax/internal/dna"
)

func randSeq(r *rand.Rand, n int) dna.Seq {
	s := make(dna.Seq, n)
	for i := range s {
		s[i] = dna.Base(r.Intn(dna.NumBases))
	}
	return s
}

// mutate returns a copy of s with roughly e random edits applied.
func mutate(r *rand.Rand, s dna.Seq, e int) dna.Seq {
	out := s.Clone()
	for i := 0; i < e; i++ {
		if len(out) == 0 {
			out = append(out, dna.Base(r.Intn(4)))
			continue
		}
		p := r.Intn(len(out))
		switch r.Intn(3) {
		case 0: // substitution
			out[p] = dna.Base((int(out[p]) + 1 + r.Intn(3)) % 4)
		case 1: // insertion
			out = append(out[:p], append(dna.Seq{dna.Base(r.Intn(4))}, out[p:]...)...)
		case 2: // deletion
			out = append(out[:p], out[p+1:]...)
		}
	}
	return out
}

func TestEditDistanceBasics(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"A", "", 1},
		{"", "ACGT", 4},
		{"ACGT", "ACGT", 0},
		{"ACGT", "AGGT", 1},
		{"ACGT", "AGT", 1},
		{"ACGT", "AACGT", 1},
		{"AAAA", "TTTT", 4},
		{"GCTAGC", "CTAGCG", 2},
	}
	for _, c := range cases {
		got := EditDistance(dna.MustParseSeq(c.a), dna.MustParseSeq(c.b))
		if got != c.want {
			t.Errorf("EditDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEditDistanceSymmetry(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for trial := 0; trial < 100; trial++ {
		a := randSeq(r, r.Intn(40))
		b := mutate(r, a, r.Intn(6))
		if d1, d2 := EditDistance(a, b), EditDistance(b, a); d1 != d2 {
			t.Fatalf("asymmetric: %d vs %d for %v %v", d1, d2, a, b)
		}
	}
}

func TestMyersMatchesDP(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	lengths := []int{0, 1, 2, 63, 64, 65, 100, 127, 128, 129, 200}
	for _, n := range lengths {
		for trial := 0; trial < 10; trial++ {
			a := randSeq(r, n)
			b := mutate(r, a, r.Intn(10))
			want := EditDistance(a, b)
			if got := MyersDistance(a, b); got != want {
				t.Fatalf("MyersDistance len=%d trial=%d: got %d, want %d", n, trial, got, want)
			}
		}
	}
}

func TestMyersRandomPairs(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		a := randSeq(r, r.Intn(150))
		b := randSeq(r, r.Intn(150))
		if got, want := MyersDistance(a, b), EditDistance(a, b); got != want {
			t.Fatalf("trial %d: Myers %d, DP %d (|a|=%d |b|=%d)", trial, got, want, len(a), len(b))
		}
	}
}

// enumerateGlobal exhaustively scores every global alignment of ref[ri:] vs
// query[qi:]; prev is the preceding op for affine-gap accounting. Over every
// prefix pair it is the independent oracle for the Gotoh extension
// (exponential, tiny inputs only).
func enumerateGlobal(ref, query dna.Seq, ri, qi int, prev align.Op, sc align.Scoring) int {
	if ri == len(ref) && qi == len(query) {
		return 0
	}
	best := -1 << 29
	if ri < len(ref) && qi < len(query) {
		var step int
		if ref[ri] == query[qi] {
			step = sc.Match
		} else {
			step = -sc.Mismatch
		}
		if v := step + enumerateGlobal(ref, query, ri+1, qi+1, align.OpMatch, sc); v > best {
			best = v
		}
	}
	if qi < len(query) {
		cost := sc.GapExtend
		if prev != align.OpIns {
			cost += sc.GapOpen
		}
		if v := -cost + enumerateGlobal(ref, query, ri, qi+1, align.OpIns, sc); v > best {
			best = v
		}
	}
	if ri < len(ref) {
		cost := sc.GapExtend
		if prev != align.OpDel {
			cost += sc.GapOpen
		}
		if v := -cost + enumerateGlobal(ref, query, ri+1, qi, align.OpDel, sc); v > best {
			best = v
		}
	}
	return best
}

// enumerateExtend is the oracle for Extend mode: best global score over all
// prefix pairs (clipping), never below zero (empty extension).
func enumerateExtend(ref, query dna.Seq, sc align.Scoring) int {
	best := 0
	for ri := 0; ri <= len(ref); ri++ {
		for qi := 0; qi <= len(query); qi++ {
			if v := enumerateGlobal(ref[:ri], query[:qi], 0, 0, 0, sc); v > best {
				best = v
			}
		}
	}
	return best
}

func TestExtendAgainstEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	sc := align.BWAMEMDefaults()
	al := NewAligner(sc)
	for trial := 0; trial < 120; trial++ {
		ref := randSeq(r, r.Intn(7))
		query := randSeq(r, r.Intn(7))
		want := enumerateExtend(ref, query, sc)
		res := al.Align(ref, query)
		if res.Score != want {
			t.Fatalf("trial %d: Extend score %d, oracle %d (ref=%v query=%v)", trial, res.Score, want, ref, query)
		}
		if err := res.Cigar.Validate(ref, query); err != nil {
			t.Fatalf("trial %d: invalid cigar %v: %v", trial, res.Cigar, err)
		}
	}
}

func TestExtendClipsPoorTail(t *testing.T) {
	sc := align.BWAMEMDefaults()
	al := NewAligner(sc)
	ref := dna.MustParseSeq("ACGTACGTAAAAAAAA")
	query := dna.MustParseSeq("ACGTACGTTTTTTTTT")
	res := al.Align(ref, query)
	if res.Score != 8 {
		t.Errorf("score = %d, want 8", res.Score)
	}
	if res.Cigar.String() != "8=8S" {
		t.Errorf("cigar = %v, want 8=8S", res.Cigar)
	}
}

func TestAlignerScratchReuse(t *testing.T) {
	sc := align.BWAMEMDefaults()
	al := NewAligner(sc)
	r := rand.New(rand.NewSource(18))
	big := randSeq(r, 80)
	al.Align(big, mutate(r, big, 4))
	// A smaller alignment after a bigger one must still be correct.
	a := dna.MustParseSeq("ACGT")
	res := al.Align(a, a)
	if res.Score != 4 || res.Cigar.String() != "4=" {
		t.Errorf("after reuse: %v", res)
	}
}

func TestAlignEmptyInputs(t *testing.T) {
	sc := align.BWAMEMDefaults()
	al := NewAligner(sc)
	q := dna.MustParseSeq("ACG")
	res := al.Align(dna.Seq{}, q)
	if res.Score != 0 || res.Cigar.String() != "3S" {
		t.Errorf("empty-ref extend = %v", res)
	}
	res = al.Align(q, dna.Seq{})
	if res.Score != 0 || len(res.Cigar) != 0 {
		t.Errorf("empty-query extend = %v", res)
	}
	res = al.Align(dna.Seq{}, dna.Seq{})
	if res.Score != 0 || len(res.Cigar) != 0 {
		t.Errorf("empty-empty = %v", res)
	}
}
