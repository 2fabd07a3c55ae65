package core

import (
	"path/filepath"
	"testing"

	"genax/internal/indexio"
)

// TestMappedIndexMatchesHeap pins the tentpole acceptance gate inside the
// test suite: aligning over a heap-built index, a zero-copy mapped index,
// and a sharded mapped index under the tightest residency bound must be
// byte-identical — index hash, per-read results, and work counters — with
// the mapped runs using the file's own reference bytes (out-of-core: no
// heap copy of the genome). The genome is cut into 15 segments, so the
// sharded run moves between two shard groups (8 and 7 segments).
func TestMappedIndexMatchesHeap(t *testing.T) {
	wl := testWorkload(311, 30000, 0.02)
	cfg := smallConfig()
	cfg.SegmentLen = 2048
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
	if m.NumShardGroups() < 2 {
		t.Fatalf("%d segments make %d shard group, want at least 2", m.Index().NumSegments(), m.NumShardGroups())
	}
	if m.Index().Hash() != heap.Index().Hash() {
		t.Fatalf("mapped index hash %016x != heap %016x", m.Index().Hash(), heap.Index().Hash())
	}

	reads := workloadReads(wl, 60)
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
	if admits < m.NumShardGroups() || admits != drops {
		t.Errorf("sharded run admits %d, drops %d over %d shard groups — residency never cycled", admits, drops, m.NumShardGroups())
	}
}
