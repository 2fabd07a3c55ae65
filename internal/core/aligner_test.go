package core

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"genax/internal/dna"
	"genax/internal/hw"
)

// TestStreamOrderAdversarialTiming runs more lanes than a window has
// chunks on noisy reads and trickles the input so window boundaries land
// at awkward points. Results must still arrive in input order,
// byte-identical to the batch path.
func TestStreamOrderAdversarialTiming(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers, cfg.StreamWindow = 9, 13
	pl, wl := testAligner(t, cfg, 411, 25000, 0.04)
	reads := workloadReads(wl, 70)
	want, _ := pl.AlignBatch(reads)

	in := make(chan dna.Seq)
	go func() {
		for i, r := range reads {
			if i%11 == 0 {
				time.Sleep(2 * time.Millisecond) // stall a window mid-fill
			}
			in <- r
		}
		close(in)
	}()
	out, _ := pl.AlignStream(context.Background(), in)
	var got []ReadResult
	for rr := range out {
		got = append(got, rr)
	}
	sameResults(t, "adversarial", got, want)
}

// TestStreamCancel checks that cancelling the context stops admission
// between reads: every result that does come out is correct and in input
// order, already-admitted reads drain, and the result channel closes.
func TestStreamCancel(t *testing.T) {
	cfg := smallConfig()
	cfg.StreamWindow = 8
	pl, wl := testAligner(t, cfg, 412, 25000, 0.02)
	reads := workloadReads(wl, 200)
	want, _ := pl.AlignBatch(reads)

	in := make(chan dna.Seq, len(reads))
	for _, r := range reads {
		in <- r
	}
	close(in)
	ctx, cancel := context.WithCancel(context.Background())
	out, stats := pl.AlignStream(ctx, in)
	var got []ReadResult
	for rr := range out {
		if got = append(got, rr); len(got) == 4 {
			cancel()
		}
	}
	cancel()
	if len(got) > len(reads) {
		t.Fatalf("%d results for %d reads", len(got), len(reads))
	}
	sameResults(t, "cancel", got, want[:len(got)])
	if stats.Reads != len(got) {
		t.Errorf("stats.Reads = %d, emitted %d", stats.Reads, len(got))
	}
}

// TestLaneLifecycle pins what long-lived callers (the serve layer's
// dispatcher) depend on: whatever path a window took — a batch, a stream
// that completed, was cancelled mid-window or had its input closed
// mid-window, a hammer of concurrent AlignRead callers — afterwards no
// goroutine is left, every lane checked out is back on the free list, and
// the list never holds more than Workers lanes however wide the burst.
func TestLaneLifecycle(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers, cfg.StreamWindow = 3, 8
	pl, wl := testAligner(t, cfg, 414, 25000, 0.02)
	reads := workloadReads(wl, 300)
	base := runtime.NumGoroutine()
	settled := func(label string, wantIdle int) {
		t.Helper()
		// Lane goroutines are joined before a call returns, but a stream's
		// own goroutine unwinds after out closes; poll, bounded by sleep
		// count rather than a wall-clock deadline (~5s worst case).
		for try := 0; runtime.NumGoroutine() > base; try++ {
			if try >= 1000 {
				buf := make([]byte, 1<<20)
				t.Fatalf("%s: goroutines leaked: %d at start, %d now\n%s",
					label, base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(5 * time.Millisecond)
		}
		pl.mu.Lock()
		idle, wins := len(pl.lanes), len(pl.wins)
		pl.mu.Unlock()
		if idle != wantIdle {
			t.Errorf("%s: %d idle lanes, want %d", label, idle, wantIdle)
		}
		if wins > cfg.Workers+1 {
			t.Errorf("%s: %d idle windows, want at most %d", label, wins, cfg.Workers+1)
		}
	}
	stream := func(n, cancelAfter int) {
		in := make(chan dna.Seq, n)
		for _, r := range reads[:n] {
			in <- r
		}
		close(in)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		out, stats := pl.AlignStream(ctx, in)
		got := 0
		for range out {
			if got++; got == cancelAfter {
				cancel()
			}
		}
		if stats.Reads != got || (cancelAfter == 0 && got != n) {
			t.Fatalf("stream(%d, %d): emitted %d, stats.Reads %d", n, cancelAfter, got, stats.Reads)
		}
	}

	pl.AlignRead(reads[0])
	settled("one read", 1) // the high-water mark, not Workers
	pl.AlignBatch(reads[:2])
	settled("two chunks", 2)
	pl.AlignBatch(reads)
	settled("batch", cfg.Workers)
	stream(296, 0)
	settled("stream completed", cfg.Workers)
	stream(300, 0)
	settled("input closed mid-window", cfg.Workers)
	stream(300, 3)
	settled("cancelled mid-window", cfg.Workers)

	var wg sync.WaitGroup
	for c := 0; c < max(16, 4*cfg.Workers); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range reads[:40] {
				pl.AlignRead(r)
			}
		}()
	}
	wg.Wait()
	settled("AlignRead burst", cfg.Workers)
}

// TestStreamBoundedAdmission pins the bounded-memory contract: with a
// sleeping consumer, the stream can admit at most the two in-flight
// windows plus the result-channel buffer — far fewer than the input.
func TestStreamBoundedAdmission(t *testing.T) {
	cfg := smallConfig()
	cfg.StreamWindow = 8
	pl, wl := testAligner(t, cfg, 413, 25000, 0)
	reads := workloadReads(wl, 400)

	in := make(chan dna.Seq) // unbuffered: every send is an admission
	var sent atomic.Int64
	go func() {
		for _, r := range reads {
			in <- r
			sent.Add(1)
		}
		close(in)
	}()
	out, _ := pl.AlignStream(context.Background(), in)
	time.Sleep(300 * time.Millisecond) // consumer asleep: admission must stall
	// 64 results can park in the out buffer, two windows can be in
	// flight, and a window may be mid-fill; anything near len(reads)
	// means admission is unbounded.
	if n := sent.Load(); n > 64+4*int64(cfg.StreamWindow) {
		t.Errorf("admitted %d reads with no consumer; window is %d", n, cfg.StreamWindow)
	}
	drained := 0
	for range out {
		drained++
	}
	if drained != len(reads) {
		t.Fatalf("drained %d, want %d", drained, len(reads))
	}
}

// TestClaimChunk pins the claiming granule's bounds.
func TestClaimChunk(t *testing.T) {
	cases := []struct {
		reads, workers int
		want           int64
	}{
		{0, 4, 1},
		{10, 4, 1},
		{256, 4, 8},
		{100000, 4, 32},
		{64, 8, 1},
	}
	for _, tc := range cases {
		if got := claimChunk(tc.reads, tc.workers); got != tc.want {
			t.Errorf("claimChunk(%d, %d) = %d, want %d", tc.reads, tc.workers, got, tc.want)
		}
	}
}

// TestTracedParity checks the hw.LaneWork trace against the work counters
// at one lane and at several: one item per (read, strand, segment),
// SeedOps summing to the lookup counters and ExtJobs to the extension
// count, in the same segment-major order whichever lane claimed what —
// and tracing must not perturb the results.
func TestTracedParity(t *testing.T) {
	base, wl := testAligner(t, smallConfig(), 414, 25000, 0.02)
	reads := workloadReads(wl, 50)
	want, wantStats := base.AlignBatch(reads)
	var wantWork []hw.LaneWork
	for _, workers := range []int{1, 3} {
		cfg := base.Config()
		cfg.Workers = workers
		pl, err := New(base.ref, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, work := pl.AlignBatchTraced(reads)
		sameResults(t, "traced", got, want)
		if stats != wantStats {
			t.Errorf("workers %d: traced stats %+v, want %+v", workers, stats, wantStats)
		}
		if len(work) != 2*len(reads)*pl.NumSegments() {
			t.Fatalf("workers %d: %d work items, want %d", workers, len(work), 2*len(reads)*pl.NumSegments())
		}
		if wantWork == nil {
			wantWork = work
		} else if !reflect.DeepEqual(work, wantWork) {
			t.Errorf("workers %d: trace differs from the one-lane trace", workers)
		}
		var seedOps, extJobs, extCycles int64
		for _, wk := range work {
			seedOps += wk.SeedOps
			extJobs += int64(len(wk.ExtJobs))
			for _, c := range wk.ExtJobs {
				extCycles += c
			}
		}
		if seedOps != stats.IndexLookups+stats.CAMLookups {
			t.Errorf("workers %d: trace SeedOps %d, want %d", workers, seedOps, stats.IndexLookups+stats.CAMLookups)
		}
		if extJobs != stats.Extensions {
			t.Errorf("workers %d: trace ExtJobs %d, want %d extensions", workers, extJobs, stats.Extensions)
		}
		if extCycles != stats.ExtensionCycles {
			t.Errorf("workers %d: trace cycles %d, want %d", workers, extCycles, stats.ExtensionCycles)
		}
	}
}

// TestInstrumentCounts checks the per-stage metrics with an injected
// deterministic clock: every stage must report work, and the extend stage
// must see exactly the post-filter candidate flow.
func TestInstrumentCounts(t *testing.T) {
	cfg := smallConfig()
	inst := &Instrument{}
	var tick atomic.Int64
	inst.Now = func() int64 { return tick.Add(1000) }
	cfg.Instrument = inst
	pl, wl := testAligner(t, cfg, 415, 25000, 0.02)
	reads := workloadReads(wl, 40)
	_, stats := pl.AlignBatch(reads)
	if inst.Seed.Batches.Load() == 0 || inst.Filter.Batches.Load() == 0 || inst.Extend.Batches.Load() == 0 {
		t.Fatalf("stage batch counts: seed %d filter %d extend %d",
			inst.Seed.Batches.Load(), inst.Filter.Batches.Load(), inst.Extend.Batches.Load())
	}
	if inst.Seed.BusyNanos.Load() <= 0 || inst.Extend.BusyNanos.Load() <= 0 {
		t.Error("injected clock produced no busy time")
	}
	if got := inst.Extend.Items.Load(); got < stats.Extensions {
		t.Errorf("extend stage saw %d candidates, fewer than %d extensions", got, stats.Extensions)
	}
}

// TestAlignReadAllocs: a warm AlignRead — window and lane both off the
// free lists — may allocate only the adopted result cigars per call.
func TestAlignReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	pl, wl := testAligner(t, smallConfig(), 416, 25000, 0)
	read := wl.Reads[0].Seq
	if _, ok := pl.AlignRead(read); !ok {
		t.Fatal("read unaligned")
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, ok := pl.AlignRead(read); !ok {
			t.Fatal("read unaligned")
		}
	})
	const budget = 8.0
	if avg > budget {
		t.Errorf("AlignRead allocates %.2f per call, budget %.1f", avg, budget)
	}
	t.Logf("AlignRead allocs: %.2f per call (budget %.1f)", avg, budget)
}

// TestAlignReadMatchesBatch checks the one-read window against the batch
// path on a read mix covering exact and noisy cases.
func TestAlignReadMatchesBatch(t *testing.T) {
	pl, wl := testAligner(t, smallConfig(), 417, 25000, 0.02)
	reads := workloadReads(wl, 30)
	want, _ := pl.AlignBatch(reads)
	got := make([]ReadResult, len(reads))
	for i, r := range reads {
		got[i].Result, got[i].Aligned = pl.AlignRead(r)
	}
	sameResults(t, "single", got, want)
}

// TestSingleLaneSteadyStateAllocs pins the allocation budget of one fused
// lane on a noisy read mix: with every lane buffer warm, aligning a read
// through seed → filter → extend may allocate only the adopted result
// cigars.
func TestSingleLaneSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	pl, wl := testAligner(t, smallConfig(), 418, 30000, 0.02)
	reads := workloadReads(wl, 30)
	sweep := func() {
		for i := range reads {
			pl.AlignRead(reads[i])
		}
	}
	sweep() // warm the lane's scratch buffers
	avg := testing.AllocsPerRun(10, sweep)
	perRead := avg / float64(len(reads))
	const budget = 12.0
	if perRead > budget {
		t.Errorf("steady-state fused path allocates %.2f per read, budget %.1f", perRead, budget)
	}
	t.Logf("steady-state allocs: %.2f per read (budget %.1f)", perRead, budget)
}

// TestWindowReuse runs several batches through one aligner and
// interleaves streams, ensuring pooled windows and lanes reset cleanly.
func TestWindowReuse(t *testing.T) {
	pl, wl := testAligner(t, smallConfig(), 420, 25000, 0.02)
	reads := workloadReads(wl, 20)
	want, wantStats := pl.AlignBatch(reads)
	for round := 0; round < 3; round++ {
		got, stats := pl.AlignBatch(reads)
		sameResults(t, "reuse", got, want)
		if stats != wantStats {
			t.Fatalf("round %d stats %+v, want %+v", round, stats, wantStats)
		}
	}
}
