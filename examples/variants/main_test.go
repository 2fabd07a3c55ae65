package main

import "testing"

// TestSNPCallsMatchTruth runs the example end to end and checks the claim
// its header makes: every SNP call is an injected SNP, and at least 95% of
// the injected SNPs are called. It fails when alignments drift from the
// truth at base level, which a locus-only check would not see.
func TestSNPCallsMatchTruth(t *testing.T) {
	s, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if s.Injected == 0 || len(s.Calls) == 0 {
		t.Fatalf("%d SNPs injected, %d called: the example exercised nothing", s.Injected, len(s.Calls))
	}
	if s.TruePositives != len(s.Calls) {
		t.Errorf("precision %d/%d: %d calls are not injected SNPs",
			s.TruePositives, len(s.Calls), len(s.Calls)-s.TruePositives)
	}
	if s.TruePositives*100 < s.Injected*95 {
		t.Errorf("recall %d/%d, want at least 95%%", s.TruePositives, s.Injected)
	}
}
