// Repository-level benchmarks: one testing.B benchmark per table/figure of
// the paper's evaluation plus kernels for the design-choice ablations
// DESIGN.md calls out. `go test -bench=. -benchmem` runs them all;
// cmd/genax-bench prints the corresponding paper-vs-measured reports.
package genax_test

import (
	"math/rand"
	"testing"

	"genax/internal/align"
	"genax/internal/bench"
	"genax/internal/bwamem"
	"genax/internal/dna"
	"genax/internal/fmindex"
	"genax/internal/hw"
	"genax/internal/la"
	"genax/internal/seed"
	"genax/internal/silla"
	"genax/internal/sillax"
	"genax/internal/sim"
	"genax/internal/sw"
)

// ---- shared fixtures -------------------------------------------------

type fixture struct {
	wl    *sim.Workload
	reads []dna.Seq
	pairs []struct{ ref, query dna.Seq }
}

var fixtures = map[int]*fixture{}

func getFixture(genomeLen int) *fixture {
	if f, ok := fixtures[genomeLen]; ok {
		return f
	}
	wl := sim.NewWorkload(1, genomeLen, sim.DefaultVariantProfile(),
		sim.ReadProfile{Length: 101, Coverage: 1, ErrorRate: 0.02, IndelErrorFrac: 0.1, ReverseFraction: 0.5})
	f := &fixture{wl: wl, reads: bench.ReadSeqs(wl)}
	for _, rd := range wl.Reads {
		q := rd.Seq
		if rd.Reverse {
			q = q.RevComp()
		}
		hi := rd.TruePos + len(q) + 40
		if hi > len(wl.Ref) {
			hi = len(wl.Ref)
		}
		f.pairs = append(f.pairs, struct{ ref, query dna.Seq }{wl.Ref[rd.TruePos:hi], q})
	}
	fixtures[genomeLen] = f
	return f
}

// ---- Figure 14: seed-extension kernels --------------------------------

func BenchmarkFig14BandedSW(b *testing.B) {
	f := getFixture(100_000)
	a := sw.NewBandedAligner(align.BWAMEMDefaults(), 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := f.pairs[i%len(f.pairs)]
		a.Extend(p.ref, p.query)
	}
}

func BenchmarkFig14FullSW(b *testing.B) {
	f := getFixture(100_000)
	a := sw.NewAligner(align.BWAMEMDefaults())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := f.pairs[i%len(f.pairs)]
		a.Align(p.ref, p.query, sw.Extend)
	}
}

func BenchmarkFig14Myers(b *testing.B) {
	f := getFixture(100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := f.pairs[i%len(f.pairs)]
		sw.MyersDistance(p.ref, p.query)
	}
}

func BenchmarkFig14SillaXEditMachine(b *testing.B) {
	f := getFixture(100_000)
	m := sillax.NewEditMachine(40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := f.pairs[i%len(f.pairs)]
		m.Distance(p.ref, p.query)
	}
}

func BenchmarkFig14SillaXScoring(b *testing.B) {
	f := getFixture(100_000)
	m := sillax.NewScoringMachine(40, align.BWAMEMDefaults())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := f.pairs[i%len(f.pairs)]
		m.Extend(p.ref, p.query)
	}
}

// BenchmarkFig14SillaXTraceback is the Fig 13/14 kernel: the full traced
// extension whose architectural cycle count feeds the throughput model.
func BenchmarkFig14SillaXTraceback(b *testing.B) {
	f := getFixture(100_000)
	m := sillax.NewTracebackMachine(40, align.BWAMEMDefaults())
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := f.pairs[i%len(f.pairs)]
		res := m.Extend(p.ref, p.query)
		cycles += int64(res.Cycles)
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
}

// ---- Silla vs LA vs DP (the §II-III motivation) ------------------------

func BenchmarkSillaDistanceK8(b *testing.B) {
	f := getFixture(100_000)
	a := silla.New(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := f.pairs[i%len(f.pairs)]
		a.Distance(p.ref[:101], p.query)
	}
}

func BenchmarkLevenshteinAutomatonK8(b *testing.B) {
	f := getFixture(100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := f.pairs[i%len(f.pairs)]
		// String-dependent: the automaton must be rebuilt per pattern —
		// the context-switch cost of §II.
		a := la.New(p.ref[:101], 8)
		a.Match(p.query)
	}
}

func BenchmarkEditDistanceDP(b *testing.B) {
	f := getFixture(100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := f.pairs[i%len(f.pairs)]
		sw.EditDistance(p.ref[:101], p.query)
	}
}

// ---- Figure 16: seeding ------------------------------------------------

func benchSeeding(b *testing.B, opts seed.Options) {
	f := getFixture(300_000)
	si, err := seed.BuildSegmentIndex(f.wl.Ref, 0, 0, 12)
	if err != nil {
		b.Fatal(err)
	}
	sd := seed.NewSeeder(si, opts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sd.Seed(f.reads[i%len(f.reads)])
	}
	b.ReportMetric(float64(sd.Stats.HitsEmitted)/float64(b.N), "hits/read")
	b.ReportMetric(float64(sd.Stats.CAMLookups)/float64(b.N), "camops/read")
}

func BenchmarkFig16SeedingFull(b *testing.B) { benchSeeding(b, seed.DefaultOptions()) }

func BenchmarkFig16SeedingNaive(b *testing.B) {
	opts := seed.DefaultOptions()
	opts.SMEMFilter = false
	benchSeeding(b, opts)
}

func BenchmarkFig16SeedingNoBinaryExtension(b *testing.B) {
	opts := seed.DefaultOptions()
	opts.BinaryExtension = false
	opts.ExactFastPath = false
	benchSeeding(b, opts)
}

func BenchmarkFMIndexSMEM(b *testing.B) {
	f := getFixture(100_000)
	sx := fmindex.BuildSMEMIndex(f.wl.Ref)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sx.SMEMs(f.reads[i%len(f.reads)], 19, 512)
	}
}

// ---- Figure 15: end-to-end pipelines -----------------------------------

func BenchmarkFig15BWAMEMPipeline(b *testing.B) {
	f := getFixture(100_000)
	a := bwamem.New(f.wl.Ref, bwamem.DefaultOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Align(f.reads[i%len(f.reads)])
	}
}

// ---- Figure 12 / Table II: hardware model -------------------------------

func BenchmarkFig12HWModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hw.FrequencySweep(hw.EditPE, 1, 8, 0.5)
		hw.FrequencySweep(hw.TracebackPE, 1, 8, 0.5)
		hw.DefaultChip().AreaBreakdown()
	}
}

// ---- ablations -----------------------------------------------------------

// BenchmarkAblationCollapsedVs3D shows the state-space saving of §III-C.
func BenchmarkAblationCollapsedVs3D(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	x := sim.RandomGenome(r, 60)
	y := sim.RandomGenome(r, 60)
	b.Run("collapsed", func(b *testing.B) {
		a := silla.New(6)
		for i := 0; i < b.N; i++ {
			a.Distance(x, y)
		}
	})
	b.Run("explicit3D", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			silla.Distance3D(x, y, 6)
		}
	})
}

// BenchmarkAblationComposedTiles compares a composed 2K engine with a
// monolithic one (§IV-D: composition is wiring, not overhead).
func BenchmarkAblationComposedTiles(b *testing.B) {
	r := rand.New(rand.NewSource(10))
	x := sim.RandomGenome(r, 101)
	y := sim.RandomGenome(r, 101)
	ta := sillax.NewTileArray(4, 2)
	cm, err := ta.Compose(9)
	if err != nil {
		b.Fatal(err)
	}
	mono := sillax.NewEditMachine(9)
	b.Run("composed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cm.Distance(x, y)
		}
	})
	b.Run("monolithic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mono.Distance(x, y)
		}
	})
}
