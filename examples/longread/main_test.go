package main

import "testing"

// TestLongReadTally runs the example end to end and checks the claims its
// header makes: every read aligns, chaining leaves fewer extensions than
// it saw anchors, and the wide datapath scores the kilobase extension
// exactly as the cycle-level oracle does.
func TestLongReadTally(t *testing.T) {
	tl, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if tl.Reads == 0 || tl.Aligned != tl.Reads {
		t.Fatalf("aligned %d of %d reads, want every read", tl.Aligned, tl.Reads)
	}
	if tl.Kept == 0 || tl.Kept >= tl.Anchors {
		t.Fatalf("chaining kept %d of %d anchors, want fewer and at least one", tl.Kept, tl.Anchors)
	}
	if tl.WideScore != tl.OracleScore {
		t.Fatalf("wide score %d, oracle score %d: the engines must agree", tl.WideScore, tl.OracleScore)
	}
}
