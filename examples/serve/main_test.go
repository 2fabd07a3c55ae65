package main

import "testing"

// TestServedMatchesAlignRead runs the example end to end and checks the
// claim its header makes: every read is served, and every served response
// is byte-identical to the in-process AlignRead answer.
func TestServedMatchesAlignRead(t *testing.T) {
	sum, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Served == 0 || sum.Aligned == 0 {
		t.Fatalf("served %d reads, %d aligned: the example exercised nothing", sum.Served, sum.Aligned)
	}
	if sum.Mismatches != 0 {
		t.Fatalf("%d of %d served responses differ from AlignRead", sum.Mismatches, sum.Served)
	}
}
