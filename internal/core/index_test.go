package core

import (
	"testing"

	"genax/internal/dna"
	"genax/internal/seed"
)

// TestPrebuiltIndexValidation: a prebuilt index whose geometry disagrees
// with the config must be rejected, field by field.
func TestPrebuiltIndexValidation(t *testing.T) {
	ref := make(dna.Seq, 20000)
	cfg := smallConfig()
	idx, err := seed.BuildSegmentedIndex(ref, cfg.SegmentLen, cfg.Overlap, cfg.KmerLen)
	if err != nil {
		t.Fatal(err)
	}
	good := cfg
	good.Index = idx
	if _, err := New(ref, good); err != nil {
		t.Fatalf("matching prebuilt index rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"kmer", func(c *Config) { c.KmerLen = cfg.KmerLen - 1 }},
		{"segment", func(c *Config) { c.SegmentLen = cfg.SegmentLen * 2 }},
		{"overlap", func(c *Config) { c.Overlap = cfg.Overlap - 1 }},
	} {
		bad := cfg
		bad.Index = idx
		tc.mut(&bad)
		if _, err := New(ref, bad); err == nil {
			t.Errorf("%s mismatch accepted", tc.name)
		}
	}
	if _, err := New(ref[:len(ref)-1], good); err == nil {
		t.Error("reference length mismatch accepted")
	}
}
