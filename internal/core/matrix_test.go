package core

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"genax/internal/dna"
	"genax/internal/indexio"
)

// runPath aligns reads through one of the three entry points on a fresh
// Aligner over ref with cfg: "batch", "stream" (windows of
// cfg.StreamWindow) or "read" (an AlignRead loop, whose Stats carry the
// work counters only — AlignRead reports no per-read tallies).
func runPath(t *testing.T, ref dna.Seq, cfg Config, path string, reads []dna.Seq) (got []ReadResult, stats Stats) {
	t.Helper()
	a, err := New(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	switch path {
	case "batch":
		got, stats = a.AlignBatch(reads)
	case "stream":
		in := make(chan dna.Seq, len(reads))
		for _, r := range reads {
			in <- r
		}
		close(in)
		out, sp := a.AlignStream(context.Background(), in)
		for rr := range out {
			got = append(got, rr)
		}
		stats = *sp
	case "read":
		for _, r := range reads {
			rr, st := a.alignRead(r)
			got = append(got, rr)
			stats.merge(st)
		}
	}
	if len(got) != len(reads) {
		t.Fatalf("%s: %d results for %d reads", path, len(got), len(reads))
	}
	return got, stats
}

// TestDeterminismMatrix is the one determinism gate: results and every
// work counter are identical for any number of lanes, through every entry
// point, over a heap index and over a mapped one streamed one shard group
// at a time — on short reads (one-word datapath) and on kilobase reads at
// K=80 (two words per row, chaining on). Run under -race it is also the
// data-race gate for the lanes' shared cursors, slots and barrier.
func TestDeterminismMatrix(t *testing.T) {
	sc, lc := smallConfig(), smallConfig()
	sc.K, lc.K = 40, 80
	short, swl := testAligner(t, sc, 410, 30000, 0.02)
	long, lwl := longReadAligner(t, lc, 424)
	for _, fx := range []struct {
		name  string
		base  *Aligner
		reads []dna.Seq
	}{
		{"short-K40", short, workloadReads(swl, 90)},
		{"long-K80", long, kilobaseReads(lwl, 6)},
	} {
		want, wantStats := fx.base.AlignBatch(fx.reads)
		if fx.base == long {
			if wantStats.ChainGroups < int64(len(fx.reads)) {
				t.Fatalf("%s: chaining not exercised: %+v", fx.name, wantStats)
			}
			if wantStats.ChainKept >= wantStats.ChainAnchors {
				t.Fatalf("%s: chaining collapsed nothing: %d anchors -> %d kept", fx.name, wantStats.ChainAnchors, wantStats.ChainKept)
			}
		}
		var wantWork Stats // what an AlignRead loop can report
		wantWork.merge(wantStats)

		file := filepath.Join(t.TempDir(), fx.name+".gaxi")
		if err := indexio.WriteFileShards(file, fx.base.Index(), fx.base.Ref(), 2); err != nil {
			t.Fatal(err)
		}
		m, err := indexio.OpenMapped(file)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()

		for _, workers := range []int{1, 2, 3, 8} {
			for _, path := range []struct {
				name   string
				window int
			}{{"batch", 0}, {"stream", 7}, {"stream", 0}, {"read", 0}} {
				for _, sharded := range []bool{false, true} {
					ref, cfg := fx.base.Ref(), fx.base.Config()
					cfg.Workers, cfg.StreamWindow = workers, path.window
					if sharded {
						ref, cfg = m.Ref(), over(m.Index(), cfg)
						cfg.Residency = indexio.NewShardResidency(m, 1)
					}
					label := fmt.Sprintf("%s workers=%d %s window=%d sharded=%v",
						fx.name, workers, path.name, path.window, sharded)
					got, stats := runPath(t, ref, cfg, path.name, fx.reads)
					sameResults(t, label, got, want)
					wantS := wantStats
					if path.name == "read" {
						wantS = wantWork
					}
					if stats != wantS {
						t.Errorf("%s: stats %+v, want %+v", label, stats, wantS)
					}
				}
			}
		}
	}
}

// TestAlignBatchWarmAllocs pins the construction cost fused, pooled lanes
// removed: a warm AlignBatch builds no seeder, CAM, engine, batch or
// channel, so a call allocates a small constant plus the adopted cigars
// whatever Workers is — and at K=80, where every call used to build a
// wide bitsilla machine per extend lane, well under a mebibyte.
func TestAlignBatchWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	base, wl := testAligner(t, smallConfig(), 430, 30000, 0.02)
	reads := workloadReads(wl, 64)
	for _, workers := range []int{1, 8} {
		cfg := base.Config()
		cfg.Workers = workers
		pl, err := New(base.Ref(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		pl.AlignBatch(reads)
		avg := testing.AllocsPerRun(10, func() { pl.AlignBatch(reads) })
		// The result slice and one goroutine per extra lane; per read, the
		// cigars it adopted (2.3 a read on this mix).
		if budget := 24.0 + 3*float64(len(reads)); avg > budget {
			t.Errorf("workers=%d: warm AlignBatch allocates %.0f per call, budget %.0f", workers, avg, budget)
		}
	}

	lc := smallConfig()
	lc.K, lc.Workers = 80, 2
	long, lwl := longReadAligner(t, lc, 431)
	lreads := workloadReads(lwl, 12)
	// A lane's wide machine grows to the largest extension it has seen, and
	// which lane claims which read varies, so warmth arrives over a few
	// calls: the quietest of several is the steady state.
	quietest := uint64(1 << 62)
	for call := 0; call < 6; call++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		long.AlignBatch(lreads)
		runtime.ReadMemStats(&m1)
		quietest = min(quietest, m1.TotalAlloc-m0.TotalAlloc)
	}
	if quietest >= 1<<20 {
		t.Errorf("warm K=80 AlignBatch allocates %d bytes per call, want < 1 MiB", quietest)
	}
	t.Logf("warm K=80 AlignBatch: %d bytes per call", quietest)
}
