package silla

import (
	"math/rand"
	"testing"
	"testing/quick"

	"genax/internal/dna"
	"genax/internal/sw"
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

func TestPaperExample(t *testing.T) {
	// Figure 3: R = "AxBCD", Q = "yABCD" (mapped onto ACGT letters)
	// has edit distance 2 (insert+delete, or two substitutions).
	r := dna.MustParseSeq("ATGCC") // A x B C D with x=T, B=G, C=C, D=C? keep distinct below
	_ = r
	ref := dna.MustParseSeq("ACGTT")   // A x B C D -> A C G T T
	query := dna.MustParseSeq("GAGTT") // y A B C D -> G A G T T
	a := New(2)
	d, ok := a.Distance(ref, query)
	if !ok || d != 2 {
		t.Fatalf("paper example: got %d,%v want 2,true", d, ok)
	}
	if want := sw.EditDistance(ref, query); want != 2 {
		t.Fatalf("oracle disagrees: %d", want)
	}
}

func TestDistanceBasics(t *testing.T) {
	cases := []struct {
		k    int
		r, q string
		want int
		ok   bool
	}{
		{3, "", "", 0, true},
		{3, "A", "A", 0, true},
		{3, "A", "C", 1, true},
		{3, "ACGT", "ACGT", 0, true},
		{3, "ACGT", "AGT", 1, true},
		{3, "ACGT", "AACGT", 1, true},
		{3, "ACGT", "TGCA", 0, false}, // true distance is 4 > K
		{3, "ACGA", "TCGA", 1, true},
		{3, "AAAA", "TTTT", 0, false},
		{3, "", "ACG", 3, true},
		{3, "ACG", "", 3, true},
		{3, "", "ACGT", 0, false},
		// A distance of exactly K is accepted; the same pair at K-1 is not.
		{5, "ACGTTGCA", "TCGATGGAAT", 5, true},
		{4, "ACGTTGCA", "TCGATGGAAT", 0, false},
		{5, "GATTACA", "TACTCAGG", 5, true},
		{4, "GATTACA", "TACTCAGG", 0, false},
		// K = 0 accepts equal strings, the empty pair included, and
		// nothing else.
		{0, "", "", 0, true},
		{0, "ACGT", "ACGT", 0, true},
		{0, "ACGT", "ACGA", 0, false},
		{0, "", "A", 0, false},
	}
	for _, c := range cases {
		got, ok := New(c.k).Distance(dna.MustParseSeq(c.r), dna.MustParseSeq(c.q))
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("K=%d: Distance(%q,%q) = %d,%v; want %d,%v", c.k, c.r, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestDistanceMatchesDP(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	for _, k := range []int{0, 1, 2, 3, 5, 8, 12} {
		a := New(k)
		for trial := 0; trial < 200; trial++ {
			x := randSeq(r, r.Intn(60))
			y := mutate(r, x, r.Intn(k+3))
			want := sw.EditDistance(x, y)
			got, ok := a.Distance(x, y)
			if want <= k {
				if !ok || got != want {
					t.Fatalf("k=%d trial=%d: Silla %d,%v; DP %d (x=%v y=%v)", k, trial, got, ok, want, x, y)
				}
			} else if ok {
				t.Fatalf("k=%d trial=%d: Silla accepted distance %d but DP says %d > k (x=%v y=%v)", k, trial, got, want, x, y)
			}
		}
	}
}

func TestDistanceRandomUnrelated(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	a := New(10)
	for trial := 0; trial < 150; trial++ {
		x := randSeq(r, r.Intn(30))
		y := randSeq(r, r.Intn(30))
		want := sw.EditDistance(x, y)
		got, ok := a.Distance(x, y)
		if want <= 10 {
			if !ok || got != want {
				t.Fatalf("trial %d: got %d,%v want %d (x=%v y=%v)", trial, got, ok, want, x, y)
			}
		} else if ok {
			t.Fatalf("trial %d: accepted %d but true distance %d", trial, got, want)
		}
	}
}

func TestStringIndependence(t *testing.T) {
	// One automaton instance must serve many different string pairs with
	// no reconfiguration — the property LA lacks (§II).
	a := New(4)
	r := rand.New(rand.NewSource(32))
	for trial := 0; trial < 50; trial++ {
		x := randSeq(r, 20+r.Intn(20))
		y := mutate(r, x, r.Intn(4))
		want := sw.EditDistance(x, y)
		got, ok := a.Distance(x, y)
		if want <= 4 && (!ok || got != want) {
			t.Fatalf("reuse trial %d failed: %d,%v want %d", trial, got, ok, want)
		}
	}
}

func TestCollapsedEquals3D(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for _, k := range []int{0, 1, 2, 3, 5} {
		a := New(k)
		for trial := 0; trial < 150; trial++ {
			x := randSeq(r, r.Intn(25))
			y := mutate(r, x, r.Intn(k+2))
			d2, ok2 := a.Distance(x, y)
			d3, ok3 := Distance3D(x, y, k)
			if ok2 != ok3 || (ok2 && d2 != d3) {
				t.Fatalf("k=%d: collapsed (%d,%v) != 3D (%d,%v) for x=%v y=%v", k, d2, ok2, d3, ok3, x, y)
			}
		}
	}
}

func TestNumStates(t *testing.T) {
	// §III-C: 3(K+1)²/2 collapsed vs (K+1)³/2 for 3D.
	if got := New(2).NumStates(); got != 13 { // 3*9/2 = 13 (integer division)
		t.Errorf("NumStates(K=2) = %d", got)
	}
	if got := New(40).NumStates(); got != 3*41*41/2 {
		t.Errorf("NumStates(K=40) = %d", got)
	}
	if got := NumStates3D(40); got != 41*41*41/2 {
		t.Errorf("NumStates3D(40) = %d", got)
	}
	if NumStates3D(40) <= New(40).NumStates() {
		t.Error("3D must be larger than collapsed")
	}
}

func TestNewPanicsOnNegativeK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestDistanceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	a := New(6)
	f := func(n, e uint8) bool {
		x := randSeq(r, int(n)%40)
		y := mutate(r, x, int(e)%8)
		want := sw.EditDistance(x, y)
		got, ok := a.Distance(x, y)
		if want <= 6 {
			return ok && got == want
		}
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
