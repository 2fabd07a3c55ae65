package main

import "testing"

// TestEveryReadNearTruth runs the example end to end and checks the claim
// its header makes: every read aligns within 12 bp of its true position.
func TestEveryReadNearTruth(t *testing.T) {
	s, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats.Reads == 0 || s.Near != s.Stats.Reads {
		t.Fatalf("%d of %d reads aligned within %d bp of their true position, want every read",
			s.Near, s.Stats.Reads, near)
	}
}
