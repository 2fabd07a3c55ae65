package core

import (
	"path/filepath"
	"testing"

	"genax/internal/dna"
	"genax/internal/indexio"
)

// TestMappedIndexMatchesHeap pins the tentpole acceptance gate inside the
// test suite: aligning over a heap-built index, a zero-copy mapped index,
// and a sharded mapped index under the tightest residency bound must be
// byte-identical — index hash, per-read results, and work counters — with
// the mapped runs using the file's own reference bytes (out-of-core: no
// heap copy of the genome).
func TestMappedIndexMatchesHeap(t *testing.T) {
	wl := testWorkload(311, 30000, 0.02)
	cfg := smallConfig()
	heap, err := New(wl.Ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v2.gaxi")
	if err := indexio.WriteFileShards(path, heap.Index(), wl.Ref, 2); err != nil {
		t.Fatalf("WriteFileShards: %v", err)
	}
	m, err := indexio.OpenMapped(path)
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	defer m.Close()
	if m.Index().Hash() != heap.Index().Hash() {
		t.Fatalf("mapped index hash %016x != heap %016x", m.Index().Hash(), heap.Index().Hash())
	}

	reads := make([]dna.Seq, 0, 60)
	for i := 0; i < len(wl.Reads) && i < 60; i++ {
		reads = append(reads, wl.Reads[i].Seq)
	}
	want, wantStats := heap.AlignBatch(reads)

	check := func(name string, res *indexio.ShardResidency) {
		t.Helper()
		mcfg := cfg
		mcfg.Index = m.Index()
		if res != nil {
			mcfg.Residency = res
		}
		// The aligner runs entirely off the mapping: reference included.
		a, err := New(m.Ref(), mcfg)
		if err != nil {
			t.Fatalf("%s: New: %v", name, err)
		}
		got, gotStats := a.AlignBatch(reads)
		sameResults(t, name, got, want)
		if gotStats.IndexLookups != wantStats.IndexLookups || gotStats.CAMLookups != wantStats.CAMLookups {
			t.Errorf("%s: work counters diverged: %d/%d vs heap %d/%d",
				name, gotStats.IndexLookups, gotStats.CAMLookups, wantStats.IndexLookups, wantStats.CAMLookups)
		}
	}

	check("mapped", nil)
	res := indexio.NewShardResidency(m, 1)
	check("sharded", res)
	admits, drops, _ := res.Stats()
	if admits == 0 || admits != drops {
		t.Errorf("sharded run admits %d, drops %d — residency never cycled", admits, drops)
	}
}
