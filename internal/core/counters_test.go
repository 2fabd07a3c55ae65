package core

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"genax/internal/dna"
	"genax/internal/sim"
)

// countersGolden is the checked-in rendering of the chip's work counters
// on the three read shapes below. A change that means to move a counter
// edits this file in the same diff and says why; every other change must
// leave it byte-identical.
const countersGolden = "testdata/counters.golden"

// counterShape is a small fixed input shaped like one of the offline
// benchmark workloads: the same k-mer length, edit bound and error model
// on a genome small enough that the whole set aligns in well under a
// second.
type counterShape struct {
	name              string
	genomeLen, segs   int
	editK             int
	readLen, longLen  int // readLen > 0: short reads; else long reads of longLen
	errRate, indelErr float64
	exact             bool
	reads             int
}

var counterShapes = []counterShape{
	{name: "short_exact", genomeLen: 120_000, segs: 8, editK: 40, readLen: 101, exact: true, reads: 300},
	{name: "short_err2", genomeLen: 120_000, segs: 8, editK: 40, readLen: 101, errRate: 0.02, indelErr: 0.1, reads: 300},
	{name: "long_k80", genomeLen: 60_000, segs: 4, editK: 80, longLen: 1200, errRate: 0.02, indelErr: 0.3, reads: 12},
}

// counterInputs draws the shape's reference and reads from seed 14.
func (s counterShape) counterInputs() (dna.Seq, []dna.Seq) {
	r := rand.New(rand.NewSource(14))
	ref := sim.RandomGenome(r, s.genomeLen)
	vp := sim.DefaultVariantProfile()
	if s.exact {
		vp = sim.VariantProfile{}
	}
	donor := sim.MakeDonor(r, ref, vp)
	var rd []sim.Read
	if s.readLen > 0 {
		cov := float64(s.reads+1) * float64(s.readLen) / float64(len(donor.Seq))
		rd = sim.Simulate(r, donor, sim.ReadProfile{Length: s.readLen, Coverage: cov,
			ErrorRate: s.errRate, IndelErrorFrac: s.indelErr, ReverseFraction: 0.5})
	} else {
		cov := float64(s.reads+1) * float64(s.longLen) / float64(len(donor.Seq))
		rd = sim.SimulateLong(r, donor, sim.LongReadProfile{MeanLength: 1, MinLength: s.longLen, Coverage: cov,
			ErrorRate: s.errRate, IndelErrorFrac: s.indelErr, ReverseFraction: 0.5})
	}
	reads := make([]dna.Seq, 0, s.reads)
	for _, x := range rd[:min(s.reads, len(rd))] {
		reads = append(reads, x.Seq)
	}
	return ref, reads
}

func (s counterShape) config() Config {
	cfg := DefaultConfig()
	cfg.K = s.editK
	cfg.SegmentLen = (s.genomeLen + s.segs - 1) / s.segs
	if s.readLen == 0 {
		cfg.Overlap = 3*s.longLen/2 + s.editK + 16
	}
	return cfg
}

// renderCounters aligns every shape and renders one line of counters per
// shape.
func renderCounters(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, s := range counterShapes {
		ref, reads := s.counterInputs()
		a, err := New(ref, s.config())
		if err != nil {
			t.Fatal(err)
		}
		_, st := a.AlignBatch(reads)
		fmt.Fprintf(&b, "%s reads=%d aligned=%d exact=%d indexLookups=%d camLookups=%d seeds=%d hits=%d chainAnchors=%d extCycles=%d extensions=%d reruns=%d\n",
			s.name, st.Reads, st.Aligned, st.ExactReads, st.IndexLookups, st.CAMLookups, st.SeedsEmitted,
			st.HitsEmitted, st.ChainAnchors, st.ExtensionCycles, st.Extensions, st.ReRuns)
	}
	return b.String()
}

// TestCountersGolden pins the work counters the hardware model consumes —
// index and CAM lookups, seeds, hits, chain anchors, extension cycles,
// extensions and re-runs — on short exact, short 2 %-error and long K=80
// inputs. They are the paper's own measure (table accesses and cycles,
// not host time), so a host-side optimisation must leave every digit.
func TestCountersGolden(t *testing.T) {
	want, err := os.ReadFile(countersGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderCounters(t); got != string(want) {
		t.Errorf("counters differ from %s; if the change means to move them, replace the file with:\n%s\nwant:\n%s", countersGolden, got, want)
	}
}

// hostCountersGolden is the checked-in rendering of the host seeding
// counters (HostSeeding) on the shapes above. They are not the chip's, so
// they live in their own file: a host-side change to the seeding may move
// them, in the same diff and saying why, and must leave countersGolden be.
const hostCountersGolden = "testdata/host_counters.golden"

// renderHostCounters aligns every shape on a fresh aligner and renders its
// host seeding counters, one line per shape.
func renderHostCounters(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, s := range counterShapes {
		ref, reads := s.counterInputs()
		a, err := New(ref, s.config())
		if err != nil {
			t.Fatal(err)
		}
		a.AlignBatch(reads)
		h := a.HostSeeding()
		fmt.Fprintf(&b, "%s rowLoads=%d spanResolves=%d segmentsSkipped=%d\n", s.name, h.RowLoads, h.SpanResolves, h.SegmentsSkipped)
	}
	return b.String()
}

// TestHostCountersGolden pins the host seeding counters — rows loaded into
// the window state, spans resolved, segments skipped — at GOMAXPROCS 1 and
// 2, so at one lane and at two: like the chip's counters they must not
// depend on which lane claims a read at which segment.
func TestHostCountersGolden(t *testing.T) {
	want, err := os.ReadFile(hostCountersGolden)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		got := renderHostCounters(t)
		runtime.GOMAXPROCS(prev)
		if got != string(want) {
			t.Errorf("GOMAXPROCS %d: host counters differ from %s; if the change means to move them, replace the file with:\n%s\nwant:\n%s", procs, hostCountersGolden, got, want)
		}
	}
}

// TestLongReadOneExtensionPerLocus: chaining leaves one candidate per
// locus, so on the long_k80 shape — every read's anchors at one locus —
// no (read, strand, segment) work item extends more than once. A read in
// the overlap of two segments is still extended once in each.
func TestLongReadOneExtensionPerLocus(t *testing.T) {
	s := counterShapes[2]
	if s.name != "long_k80" {
		t.Fatalf("counterShapes[2] is %s, want long_k80", s.name)
	}
	ref, reads := s.counterInputs()
	a, err := New(ref, s.config())
	if err != nil {
		t.Fatal(err)
	}
	_, _, work := a.AlignBatchTraced(reads)
	for i, wk := range work {
		if len(wk.ExtJobs) > 1 {
			seg, read, strand := i/(2*len(reads)), i/2%len(reads), i%2
			t.Errorf("segment %d read %d strand %d: %d extensions, want at most 1", seg, read, strand, len(wk.ExtJobs))
		}
	}
}
