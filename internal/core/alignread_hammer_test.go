package core

import (
	"sync"
	"testing"
)

// TestAlignReadConcurrentHammer drives AlignRead — the serve layer's
// per-request fallback when coalescing is off — from many goroutines at
// once against a shared Aligner. Run under -race this is the data-race
// gate for the lane and window free lists; in every build each result
// must match the AlignBatch oracle, so lane state bleeding between
// concurrent calls cannot hide.
func TestAlignReadConcurrentHammer(t *testing.T) {
	wl, reads := poolWorkload(t, 120)
	a, err := New(wl.Ref, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := a.AlignBatch(reads)

	iters := 10
	if raceEnabled {
		iters = 4 // instrumentation is ~10x; keep the race run minutes-free
	}
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				for i := range reads {
					// Stagger the order per worker so different reads
					// share pooled lanes at the same instant.
					idx := (i*7 + w*13 + it) % len(reads)
					res, ok := a.AlignRead(reads[idx])
					if ok != want[idx].Aligned || res.String() != want[idx].Result.String() {
						t.Errorf("read %d diverged from the batch oracle under concurrency: %v (aligned %v), want %v",
							idx, res, ok, want[idx].Result)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestAlignReadConcurrentAllocs pins AlignRead's steady-state allocation
// cost after a concurrent burst has populated the free lists:
// ≤ ~2.5 allocations per call on a mixed read set (the documented figure —
// only adopted result cigars allocate). A regression here multiplies
// straight into per-request serving cost.
func TestAlignReadConcurrentAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	wl, reads := poolWorkload(t, 60)
	a, err := New(wl.Ref, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent warmup: fill the lane free list the way serve traffic
	// does, so the measurement below reuses warm lanes rather than
	// crediting first-call scratch growth to the steady state.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range reads {
				a.AlignRead(r)
			}
		}()
	}
	wg.Wait()

	sweep := func() {
		for _, r := range reads {
			a.AlignRead(r)
		}
	}
	sweep()
	perCall := testing.AllocsPerRun(10, sweep) / float64(len(reads))
	const budget = 2.5
	if perCall > budget {
		t.Errorf("pooled AlignRead allocates %.2f per call, budget %.1f", perCall, budget)
	}
	t.Logf("pooled AlignRead allocs: %.2f per call (budget %.1f)", perCall, budget)
}
