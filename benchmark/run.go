package main

import (
	"fmt"
	"runtime"
	"time"

	"genax/internal/core"
)

// Visit counts of the best-of-visits rule. The end-to-end run sets up
// setupReps times and visits every slice and every single read at least once
// per set-up; at the sizes in workload.go the run length buys between twelve
// and fifty visits.
const (
	setupReps   = 10
	tracePasses = 5 // each phase of the traced run
)

// target is a system that is ready for reads: a core.Aligner for the
// offline workloads, a serve.Server for the served one.
type target interface {
	// pass puts the bulk list through the workload's bulk path once,
	// recording every read's outcome and every slice's elapsed time, and
	// returns how many operations failed outright (served non-200s).
	pass(b *bench, out []outcome, times []time.Duration, parent int) (failed int)
	// single submits read i alone, with nothing else in flight.
	single(b *bench, i int) (outcome, bool)
	close()
}

// bench is one run of one workload.
type bench struct {
	w  workload
	in inputs
	n  int     // reads of the bulk list: all of them, or the traced run's leading slices
	tr *tracer // nil unless this is the traced run

	srv *serveEnv // served workload only

	attempted, failed int
	notes             []string // gate violations, printed and fatal
}

func (b *bench) slices() int { return b.n / b.w.sliceReads }

func (b *bench) violate(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// setup builds a fresh target and reports how long it took to get from a
// reference in memory (on disk, for the server) to ready for a first read.
func (b *bench) setup() (target, time.Duration, error) {
	if b.w.served {
		return b.setupServer(nil)
	}
	t0 := time.Now()
	al, err := core.New(b.in.ref, b.w.config())
	return &coreTarget{al: al}, time.Since(t0), err
}

// onePass puts the bulk list through the target once, after a collection
// so no pass inherits the previous one's garbage, and returns the slice
// times. The first pass ever run fixes the reference outcomes in *ref; a
// read that later comes out differently is a failed operation.
func (b *bench) onePass(t target, ref *[]outcome, r int) []time.Duration {
	runtime.GC()
	out := make([]outcome, b.n)
	row := make([]time.Duration, b.slices())
	id := b.tr.begin(-1, "pass", r)
	bad := t.pass(b, out, row, id)
	b.tr.end(id)
	if *ref == nil {
		*ref = out
	}
	b.attempted += b.n
	b.failed += bad + mismatches(out, *ref)
	return row
}

// passes runs onePass at least atLeast times and then until the deadline.
func (b *bench) passes(t target, atLeast int, until time.Time, ref *[]outcome) [][]time.Duration {
	var times [][]time.Duration
	for r := 0; r < atLeast || time.Now().Before(until); r++ {
		times = append(times, b.onePass(t, ref, r))
	}
	return times
}

// singlesPass submits the first w.singles reads one at a time and keeps
// each read's fastest visit so far in best (zero means not yet visited).
// Each must come out as it did on the bulk path.
func (b *bench) singlesPass(t target, ref []outcome, best []float64) {
	runtime.GC()
	for i := range best {
		t0 := time.Now()
		o, ok := t.single(b, i)
		d := float64(time.Since(t0))
		if best[i] == 0 || d < best[i] {
			best[i] = d
		}
		b.attempted++
		if !ok || o != ref[i] {
			b.failed++
		}
	}
}

// warmUp pushes the first two slices through untimed so pools, scratch
// buffers and the page cache are in their steady state.
func (b *bench) warmUp(t target) {
	warm := min(2, b.slices())
	t.pass(b, make([]outcome, warm*b.w.sliceReads), make([]time.Duration, warm), -1)
}

// endToEnd measures the five end-to-end metrics with tracing off. The run
// is setupReps blocks: each drops the previous instance, returns its memory
// to the OS so the build pays first-touch faults like a fresh process, sets
// up a new one (a setup_s sample) and puts rounds through it for its share
// of the run. A round is one bulk pass and one single-read pass, so the
// visits of any slice or read are spread over the whole run and over
// setupReps placements of the index in memory; each keeps its fastest.
func (b *bench) endToEnd(seconds int) (map[string]float64, error) {
	var (
		t      target
		setups []float64
		ref    []outcome
		times  [][]time.Duration
		single = make([]float64, b.w.singles)
	)
	var spent time.Duration // in rounds; set-ups come on top of --seconds
	for k := 1; k <= setupReps; k++ {
		if t != nil {
			t.close()
			t = nil
		}
		dropHeap()
		var d time.Duration
		var err error
		if t, d, err = b.setup(); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		b.warmUp(t)
		share := time.Duration(k) * time.Duration(seconds) * time.Second / setupReps
		for r := 0; r == 0 || spent < share; r++ {
			t0 := time.Now()
			times = append(times, b.onePass(t, &ref, len(times)))
			b.singlesPass(t, ref, single)
			spent += time.Since(t0)
		}
	}
	peak := peakRSSMiB()
	t.close()
	if b.w.served {
		// Only now, with the peak read, may an offline aligner share the
		// process: the served answers must equal AlignBatch's.
		al, m, err := b.offlineAligner()
		if err != nil {
			return nil, err
		}
		b.checkOffline(al, ref)
		if err := m.Close(); err != nil {
			return nil, err
		}
	}

	best := bestOfVisits(times)
	logf("passes=%d slices=%d best-of-visits=%.3fs median-pass=%.3fs setups=%.3v",
		len(times), b.slices(), best.Seconds(), medianPass(times).Seconds(), setups)
	noiseFrac(times)
	return map[string]float64{
		"setup_s":         median(setups),
		"reads_per_s":     float64(b.n) / best.Seconds(),
		"single_read_ms":  mean(single) / 1e6,
		"true_locus_frac": b.locusGate(ref),
		"peak_rss_mib":    peak,
	}, nil
}

// locusGate is the accuracy half of the correctness gate: the share of the
// bulk list placed at its true locus, a violation when below the
// workload's floor.
func (b *bench) locusGate(ref []outcome) float64 {
	locus := trueLocusFrac(ref, b.in.reads[:b.n])
	if locus < b.w.minLocus {
		b.violate("true_locus_frac %.4f below the workload's floor %.2f", locus, b.w.minLocus)
	}
	return locus
}

// noiseFrac is how much slower the median pass ran than the best-of-visits
// figure — the interference the run saw — and flags a run that saw a lot.
func noiseFrac(times [][]time.Duration) float64 {
	best := bestOfVisits(times)
	if best == 0 {
		return 0
	}
	nf := float64(medianPass(times)-best) / float64(best)
	logf("noise_frac=%.3f", nf)
	if nf > 0.25 {
		logf("NOISY: the median pass ran more than 25%% slower than best-of-visits; the host was busy")
	}
	return nf
}

// coreTarget is the offline path: AlignBatch per slice, AlignRead alone.
type coreTarget struct {
	al *core.Aligner
	// stats sums the work counters of every pass call, for the traced
	// run's per-read counts.
	stats core.Stats
}

func (t *coreTarget) pass(b *bench, out []outcome, times []time.Duration, parent int) int {
	per := b.w.sliceReads
	for s := range times {
		reads := b.in.seqs[s*per : (s+1)*per]
		id := b.tr.begin(parent, "core.AlignBatch", s)
		t0 := time.Now()
		res, st := t.al.AlignBatch(reads)
		times[s] = time.Since(t0)
		b.tr.end(id)
		addStats(&t.stats, st)
		for i, rr := range res {
			out[s*per+i] = toOutcome(rr)
		}
	}
	return 0
}

func (t *coreTarget) single(b *bench, i int) (outcome, bool) {
	res, ok := t.al.AlignRead(b.in.seqs[i])
	return toOutcome(core.ReadResult{Result: res, Aligned: ok}), true
}

func (t *coreTarget) close() {}

// addStats folds a run's counters into sum, including the per-window
// outcome tallies Stats.Merge leaves to its caller.
func addStats(sum *core.Stats, st core.Stats) {
	sum.Merge(st)
	sum.Reads += st.Reads
	sum.Aligned += st.Aligned
	sum.ExactReads += st.ExactReads
}
