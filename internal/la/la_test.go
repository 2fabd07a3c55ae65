package la

import (
	"math/rand"
	"testing"

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

func TestMatchBasics(t *testing.T) {
	a := New(dna.MustParseSeq("ACGT"), 2)
	cases := []struct {
		in   string
		want int
		ok   bool
	}{
		{"ACGT", 0, true},
		{"ACGA", 1, true},
		{"ACG", 1, true},
		{"ACGTT", 1, true},
		{"AAAA", 0, false},
		{"", 0, false},
		{"AC", 2, true},
	}
	for _, c := range cases {
		got, ok := a.Match(dna.MustParseSeq(c.in))
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("Match(%q) = %d,%v; want %d,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestMatchAgainstDP(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	for trial := 0; trial < 200; trial++ {
		p := randSeq(r, r.Intn(30))
		in := randSeq(r, r.Intn(30))
		for _, k := range []int{0, 1, 3, 6} {
			a := New(p, k)
			want := sw.EditDistance(p, in)
			got, ok := a.Match(in)
			if want <= k {
				if !ok || got != want {
					t.Fatalf("k=%d: LA %d,%v; DP %d (p=%v in=%v)", k, got, ok, want, p, in)
				}
			} else if ok {
				t.Fatalf("k=%d: LA accepted %d but DP %d > k", k, got, want)
			}
		}
	}
}

func TestAutomatonReusableAcrossInputs(t *testing.T) {
	p := dna.MustParseSeq("ACGTACGTAC")
	a := New(p, 3)
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		in := randSeq(r, 8+r.Intn(5))
		want := sw.EditDistance(p, in)
		got, ok := a.Match(in)
		if want <= 3 && (!ok || got != want) {
			t.Fatalf("trial %d: %d,%v want %d", trial, got, ok, want)
		}
	}
}

func TestNumStatesGrowsWithPattern(t *testing.T) {
	short := New(make(dna.Seq, 10), 4)
	long := New(make(dna.Seq, 1000), 4)
	if short.NumStates() != 5*11 {
		t.Errorf("short states = %d, want 55", short.NumStates())
	}
	if long.NumStates() != 5*1001 {
		t.Errorf("long states = %d", long.NumStates())
	}
	if long.NumStates() <= short.NumStates() {
		t.Error("LA size must grow with the pattern — that is its flaw")
	}
}

func TestNewPanicsOnNegativeK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with k=-1 did not panic")
		}
	}()
	New(dna.MustParseSeq("ACGT"), -1)
}
