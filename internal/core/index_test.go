package core

import (
	"bytes"
	"testing"

	"genax/internal/dna"
	"genax/internal/indexio"
	"genax/internal/seed"
)

// TestPrebuiltIndexMatchesInProcessBuild pins the index-cache contract end
// to end: an aligner running on an index that went through the on-disk
// serialization must produce results byte-identical to one that built its
// tables in process.
func TestPrebuiltIndexMatchesInProcessBuild(t *testing.T) {
	wl := testWorkload(310, 30000, 0.02)
	cfg := smallConfig()
	built, err := New(wl.Ref, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := indexio.Write(&buf, built.Index(), wl.Ref); err != nil {
		t.Fatalf("Write: %v", err)
	}
	loaded, err := indexio.Read(bytes.NewReader(buf.Bytes()), wl.Ref)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if loaded.Hash() != built.Index().Hash() {
		t.Fatalf("cache round trip changed the index hash: %016x vs %016x", loaded.Hash(), built.Index().Hash())
	}
	cfg2 := cfg
	cfg2.Index = loaded
	cached, err := New(wl.Ref, cfg2)
	if err != nil {
		t.Fatal(err)
	}

	reads := make([]dna.Seq, 0, 60)
	for i := 0; i < len(wl.Reads) && i < 60; i++ {
		reads = append(reads, wl.Reads[i].Seq)
	}
	want, wantStats := built.AlignBatch(reads)
	got, gotStats := cached.AlignBatch(reads)
	sameResults(t, "cached vs built", got, want)
	if gotStats.IndexLookups != wantStats.IndexLookups || gotStats.CAMLookups != wantStats.CAMLookups {
		t.Errorf("work counters diverged: cached %d/%d vs built %d/%d",
			gotStats.IndexLookups, gotStats.CAMLookups, wantStats.IndexLookups, wantStats.CAMLookups)
	}
}

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
