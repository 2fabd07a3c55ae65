package main

import (
	"fmt"
	"math/rand"
	"strings"

	"genax/internal/core"
	"genax/internal/dna"
	"genax/internal/sim"
)

// workload is one set of inputs and the path they take. The read list is
// fixed per workload (slices × sliceReads), so every count the benchmark
// reports is a pure function of the seed; --seconds only decides how many
// times the list is visited.
type workload struct {
	Name string
	Why  string

	genomeLen, segments int
	kmer, editK         int
	readLen             int // fixed short-read length; 0 means long reads of meanLen
	meanLen             int
	errRate, indelFrac  float64
	exact               bool // no variants and no sequencing errors
	served              bool // through serve.Server instead of core.Aligner

	slices, sliceReads int // bulk list, visited best-of-visits
	singles            int // leading reads of the list that the unloaded-latency passes submit alone
	minLocus           float64
}

// The lists are sized so that eight passes fit the run length on a 2-vCPU
// host at the rates measured when the benchmark was defined; see README.
var workloads = []workload{
	{
		Name:      "short_err2",
		Why:       "paper-shaped 101 bp reads at 2% error: the extend lane is the bottleneck, so engine and filter changes show here",
		genomeLen: 1_000_000, segments: 8, kmer: 12, editK: 40,
		readLen: 101, errRate: 0.02, indelFrac: 0.1,
		slices: 20, sliceReads: 200, singles: 3000, minLocus: 0.99,
	},
	{
		Name:      "short_exact",
		Why:       "every read an exact substring: the exact-match seeding path does the work, extension changes predict no change",
		genomeLen: 1_000_000, segments: 8, kmer: 12, editK: 40,
		readLen: 101, exact: true,
		slices: 18, sliceReads: 800, singles: 500, minLocus: 0.99,
	},
	{
		Name:      "long_k80",
		Why:       "1.2 kbp reads at K=80: the only workload on the multi-word bitsilla datapath and the only one that chains anchors",
		genomeLen: 400_000, segments: 4, kmer: 12, editK: 80,
		meanLen: 1200, errRate: 0.02, indelFrac: 0.3,
		slices: 18, sliceReads: 12, singles: 216, minLocus: 0.97,
	},
	{
		Name:      "serve_err2",
		Why:       "the short_err2 inputs through serve.Server, 64 closed-loop callers: isolates coalescing, per-flush sessions and the mapped index",
		genomeLen: 1_000_000, segments: 8, kmer: 12, editK: 40,
		readLen: 101, errRate: 0.02, indelFrac: 0.1, served: true,
		slices: 27, sliceReads: 200, singles: 100, minLocus: 0.99,
	},
}

// traceSlices is how many leading slices the traced run uses. Its phases
// each visit the list five times, and per-layer figures are per read, so a
// third of the list keeps the traced run no longer than the timed one.
func (w workload) traceSlices() int {
	return max(w.slices/3, min(w.slices, 6))
}

// offPath names the per-layer metrics of layers the workload never enters:
// text parsing, the cache file and the server on the offline workloads, the
// chainer and the wide datapath on short reads, the narrow one on long.
func (w workload) offPath() []string {
	var off []string
	for _, d := range perLayer {
		layer, _, _ := strings.Cut(d.Name, ".")
		switch {
		case !w.served && (layer == "dna" || layer == "indexio" || layer == "serve"),
			w.readLen > 0 && (d.Name == "chain.collapse_us_per_group" || d.Name == "chain.kept_frac" || d.Name == "extend.wide_us_per_call"),
			w.readLen == 0 && d.Name == "extend.narrow_us_per_call":
			off = append(off, d.Name)
		}
	}
	return off
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs is what the seed produces; the aligner only ever sees ref and
// seqs, the truth in reads stays on the benchmark's side.
type inputs struct {
	ref   dna.Seq
	reads []sim.Read
	seqs  []dna.Seq
}

// generate draws the workload's genome, donor and exactly
// slices×sliceReads reads from seed. The seed goes to sim and nowhere
// else.
func (w workload) generate(seed int64) (inputs, error) {
	r := rand.New(rand.NewSource(seed))
	ref := sim.RandomGenome(r, w.genomeLen)
	vp := sim.DefaultVariantProfile()
	if w.exact {
		vp = sim.VariantProfile{}
	}
	donor := sim.MakeDonor(r, ref, vp)
	n := w.slices * w.sliceReads
	// sim sizes a read set by coverage; half a read of slack makes its
	// truncation land on exactly n for every donor length.
	coverage := func(readLen int) float64 {
		return (float64(n) + 0.5) * float64(readLen) / float64(len(donor.Seq))
	}
	var reads []sim.Read
	if w.readLen > 0 {
		reads = sim.Simulate(r, donor, sim.ReadProfile{Length: w.readLen, Coverage: coverage(w.readLen),
			ErrorRate: w.errRate, IndelErrorFrac: w.indelFrac, ReverseFraction: 0.5})
	} else {
		// SimulateLong draws lengths from MinLength + [0, MeanLength]; a
		// one-base-wide draw pins every read at meanLen (or one more), so
		// the bases per pass — and with them reads/s — do not swing with
		// the seed by the few percent a sample of 72 lengths would.
		reads = sim.SimulateLong(r, donor, sim.LongReadProfile{MeanLength: 1, MinLength: w.meanLen, Coverage: coverage(1),
			ErrorRate: w.errRate, IndelErrorFrac: w.indelFrac, ReverseFraction: 0.5})
	}
	if len(reads) != n {
		return inputs{}, fmt.Errorf("workload %s: simulator produced %d reads, want %d", w.Name, len(reads), n)
	}
	in := inputs{ref: ref, reads: reads, seqs: make([]dna.Seq, n)}
	for i, rd := range reads {
		in.seqs[i] = rd.Seq
	}
	return in, nil
}

// lanes is the worker budget every workload pins, together with
// GOMAXPROCS: the seed/extend split is then the same on every host with
// at least two cores, and no wider than the sandbox.
const lanes = 2

// config is the aligner configuration for the workload's geometry:
// default engine and seeding options, the segment count the workload
// names, and for long reads an overlap that covers the longest read drawn.
func (w workload) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.K = w.editK
	cfg.KmerLen = w.kmer
	cfg.SegmentLen = (w.genomeLen + w.segments - 1) / w.segments
	if w.readLen == 0 {
		cfg.Overlap = 3*w.meanLen/2 + w.editK + 16
	}
	cfg.Workers = lanes
	return cfg
}
