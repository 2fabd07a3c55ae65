package silla

import (
	"math/rand"
	"testing"
)

func TestDistanceStrings(t *testing.T) {
	cases := []struct {
		a, b string
		k    int
		want int
		ok   bool
	}{
		{"kitten", "sitting", 3, 3, true},
		{"kitten", "sitting", 2, 0, false},
		{"flaw", "lawn", 2, 2, true},
		{"", "", 0, 0, true},
		{"abc", "abc", 0, 0, true},
		{"intention", "execution", 5, 5, true},
		{"spell", "spel", 1, 1, true},
	}
	for _, c := range cases {
		got, ok := DistanceStrings(c.a, c.b, c.k)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("DistanceStrings(%q,%q,%d) = %d,%v; want %d,%v", c.a, c.b, c.k, got, ok, c.want, c.ok)
		}
	}
}

func TestDistanceOfRunes(t *testing.T) {
	a := []rune("héllo wörld")
	b := []rune("hello world")
	if d, ok := DistanceOf(a, b, 3); !ok || d != 2 {
		t.Errorf("rune distance = %d,%v; want 2,true", d, ok)
	}
}

func TestDistanceOfAgainstDP(t *testing.T) {
	// Random byte strings over a larger alphabet than DNA.
	r := rand.New(rand.NewSource(37))
	for trial := 0; trial < 100; trial++ {
		n := r.Intn(20)
		a := make([]byte, n)
		for i := range a {
			a[i] = byte('a' + r.Intn(6))
		}
		b := make([]byte, r.Intn(20))
		for i := range b {
			b[i] = byte('a' + r.Intn(6))
		}
		// DP oracle via the dna edit distance is alphabet-agnostic; use a
		// simple local DP here instead.
		want := editDP(a, b)
		got, ok := DistanceOf(a, b, 8)
		if want <= 8 {
			if !ok || got != want {
				t.Fatalf("trial %d: got %d,%v want %d (a=%q b=%q)", trial, got, ok, want, a, b)
			}
		} else if ok {
			t.Fatalf("trial %d: accepted %d but true %d", trial, got, want)
		}
	}
}

func editDP(a, b []byte) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			c := prev[j-1]
			if a[i-1] != b[j-1] {
				c++
			}
			if v := prev[j] + 1; v < c {
				c = v
			}
			if v := cur[j-1] + 1; v < c {
				c = v
			}
			cur[j] = c
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
