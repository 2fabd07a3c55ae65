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
	return wl, workloadReads(wl, n)
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
