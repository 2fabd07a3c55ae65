package core

import (
	"fmt"
	"sync"
	"testing"

	"genax/internal/dna"
	"genax/internal/sim"
)

// poolWorkload builds a shared fixture: a multi-segment reference and a
// read mix whose cost is bimodal (exact fast-path reads plus noisy reads
// needing full SillaX extension), the regime dynamic claiming targets.
func poolWorkload(t *testing.T, n int) (*sim.Workload, []dna.Seq) {
	t.Helper()
	wl := testWorkload(310, 30000, 0.02)
	if n > len(wl.Reads) {
		n = len(wl.Reads)
	}
	reads := make([]dna.Seq, n)
	for i := range reads {
		reads[i] = wl.Reads[i].Seq
	}
	return wl, reads
}

// TestAlignBatchDeterministic asserts dynamic work claiming cannot change
// output through the façade: results must be byte-identical (position,
// score, strand, cigar) between a one-lane aligner and a wide one. The
// full worker × path × index grid is pipeline.TestDeterminismMatrix.
func TestAlignBatchDeterministic(t *testing.T) {
	wl, reads := poolWorkload(t, 60)
	cfg1 := smallConfig()
	cfg1.Workers = 1
	cfg8 := smallConfig()
	cfg8.Workers = 8
	a1, err := New(wl.Ref, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	a8, err := New(wl.Ref, cfg8)
	if err != nil {
		t.Fatal(err)
	}
	r1, s1 := a1.AlignBatch(reads)
	r8, s8 := a8.AlignBatch(reads)
	sameResults(t, "8 workers vs 1", r8, r1)
	// Work counters are claim-order independent too.
	if s1 != s8 {
		t.Errorf("stats differ across worker counts:\n1: %+v\n8: %+v", s1, s8)
	}
}

// TestAlignBatchConcurrentBatches exercises the atomic work cursors, the
// segment barrier, and the lane and window free lists under the race
// detector: several batches run concurrently over one Aligner, and every
// one must produce the same results.
func TestAlignBatchConcurrentBatches(t *testing.T) {
	wl, reads := poolWorkload(t, 48)
	cfg := smallConfig()
	cfg.Workers = 8
	a, err := New(wl.Ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := a.AlignBatch(reads)
	const batches = 4
	got := make([][]ReadResult, batches)
	var wg sync.WaitGroup
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			got[b], _ = a.AlignBatch(reads)
		}(b)
	}
	wg.Wait()
	for b := 0; b < batches; b++ {
		sameResults(t, fmt.Sprintf("concurrent batch %d", b), got[b], want)
	}
}
