package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"genax/internal/dna"
	"genax/internal/sim"
)

func ms(vals ...int) []time.Duration {
	out := make([]time.Duration, len(vals))
	for i, v := range vals {
		out[i] = time.Duration(v) * time.Millisecond
	}
	return out
}

// Interference hits different slices on different passes; the estimator
// must recover the undisturbed total as long as every slice had one clean
// visit, while the median pass stays inflated.
func TestBestOfVisitsIgnoresSlowSlices(t *testing.T) {
	times := [][]time.Duration{
		ms(100, 340, 100, 100),
		ms(100, 100, 290, 100),
		ms(410, 100, 100, 100),
		ms(100, 100, 100, 180),
	}
	if got, want := bestOfVisits(times), 400*time.Millisecond; got != want {
		t.Errorf("bestOfVisits = %v, want %v", got, want)
	}
	if got := medianPass(times); got <= 400*time.Millisecond {
		t.Errorf("medianPass = %v, want it to show the injected slowness", got)
	}
	if got := noiseFrac(times); got <= 0 {
		t.Errorf("noiseFrac = %v, want > 0", got)
	}
	// A slice slow on every visit cannot be discounted.
	times = [][]time.Duration{ms(100, 200), ms(100, 250)}
	if got, want := bestOfVisits(times), 300*time.Millisecond; got != want {
		t.Errorf("bestOfVisits = %v, want %v", got, want)
	}
	if bestOfVisits(nil) != 0 {
		t.Error("bestOfVisits(nil) != 0")
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{50, 10, 40, 20, 30}
	for _, tc := range []struct{ p, want float64 }{
		{0, 10}, {50, 30}, {100, 50}, {25, 20}, {90, 46}, {-5, 10}, {120, 50},
	} {
		if got := percentile(vals, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if vals[0] != 50 {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 50) != 0 || median([]float64{7}) != 7 {
		t.Error("percentile edge cases")
	}
}

// The spread must be what Python's statistics.quantiles(v, n=4) gives:
// for 1..10 the quartiles are 2.75 and 8.25 around a median of 5.5.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	v := []float64{3, 1, 4, 10, 5, 9, 2, 6, 8, 7}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// quantiles([10, 11, 12, 13, 30], n=4) == [10.5, 12.0, 21.5]
	if got, want := quartileSpread([]float64{10, 11, 12, 13, 30}), (21.5-10.5)/12; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if quartileSpread([]float64{5}) != 0 {
		t.Error("single sample must have no spread")
	}
}

func TestAtTrueLocus(t *testing.T) {
	read := func(pos int, rev bool) sim.Read {
		return sim.Read{Seq: make(dna.Seq, 101), TruePos: pos, Reverse: rev}
	}
	// 101 bp: tolerance 8 + 101/50 = 10.
	for _, tc := range []struct {
		name string
		o    outcome
		rd   sim.Read
		want bool
	}{
		{"exact", outcome{Aligned: true, Pos: 1000, Cigar: "101="}, read(1000, false), true},
		{"unaligned", outcome{}, read(0, false), false},
		{"wrong strand", outcome{Aligned: true, Pos: 1000, Cigar: "101=", Reverse: true}, read(1000, false), false},
		{"reverse ok", outcome{Aligned: true, Pos: 1000, Cigar: "101=", Reverse: true}, read(1000, true), true},
		{"edge in", outcome{Aligned: true, Pos: 1010, Cigar: "101="}, read(1000, false), true},
		{"edge out", outcome{Aligned: true, Pos: 1011, Cigar: "101="}, read(1000, false), false},
		{"edge in left", outcome{Aligned: true, Pos: 990, Cigar: "101="}, read(1000, false), true},
		{"edge out left", outcome{Aligned: true, Pos: 989, Cigar: "101="}, read(1000, false), false},
		{"soft clip restores start", outcome{Aligned: true, Pos: 1030, Cigar: "30S71="}, read(1000, false), true},
		{"soft clip not enough", outcome{Aligned: true, Pos: 1030, Cigar: "5S96="}, read(1000, false), false},
		{"trailing clip ignored", outcome{Aligned: true, Pos: 1000, Cigar: "71=30S"}, read(1000, false), true},
	} {
		if got := atTrueLocus(tc.o, tc.rd); got != tc.want {
			t.Errorf("%s: atTrueLocus = %v, want %v", tc.name, got, tc.want)
		}
	}
	long := sim.Read{Seq: make(dna.Seq, 1200), TruePos: 500}
	if !atTrueLocus(outcome{Aligned: true, Pos: 532, Cigar: "1200="}, long) ||
		atTrueLocus(outcome{Aligned: true, Pos: 533, Cigar: "1200="}, long) {
		t.Error("tolerance must grow to 8 + len/50 = 32 for a 1200 bp read")
	}
	outs := []outcome{{Aligned: true, Pos: 7, Cigar: "101="}, {}}
	if got := trueLocusFrac(outs, []sim.Read{read(7, false), read(7, false)}); got != 0.5 {
		t.Errorf("trueLocusFrac = %v, want 0.5 (unaligned counts as wrong)", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "pass", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "call", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "call", Start: 30, End: 60},  // overlaps span 1: union is 10..60
		{ID: 3, Parent: 0, Name: "call", Start: 90, End: 120}, // clipped to the parent's end
		{ID: 4, Parent: 1, Name: "inner", Start: 15, End: 25}, // grandchild charges span 1 only
		{ID: 5, Parent: -1, Name: "alone", Start: 200, End: 230},
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{
		"pass":  100 - 50 - 10,
		"call":  (30 - 10) + 30 + 30,
		"inner": 10,
		"alone": 30,
	} {
		if self[name] != want {
			t.Errorf("self[%q] = %d, want %d", name, self[name], want)
		}
	}
}

func TestTracerNilIsOff(t *testing.T) {
	var tr *tracer
	id := tr.begin(-1, "x", 0)
	tr.end(id) // must not panic
	tr = newTracer()
	a := tr.begin(-1, "root", 7)
	b := tr.begin(a, "child", 7)
	tr.end(b)
	tr.end(a)
	if len(tr.spans) != 2 || tr.spans[1].Parent != a || tr.spans[1].Req != 7 || tr.spans[0].End < tr.spans[1].End {
		t.Errorf("unexpected spans %+v", tr.spans)
	}
}

// benchmarkJSON is the contract file one directory up.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []metricDef                  `json:"end_to_end"`
	PerLayer  []metricDef                  `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program {%s %s}", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// tiny shrinks a workload until a whole run takes well under a second,
// keeping the path it takes.
func tiny(w workload) workload {
	w.genomeLen, w.segments, w.kmer = 30_000, 2, 8
	w.slices, w.sliceReads, w.singles = 3, 8, 4
	if w.readLen == 0 {
		w.sliceReads, w.singles = 2, 2
	}
	w.minLocus = 0.8
	return w
}

// Under go test the program that prepareServe starts as a child is this test
// binary, so it answers the same arguments main does — on the tiny workload,
// the only size the tests run.
func TestMain(m *testing.M) {
	if len(os.Args) == 5 && os.Args[1] == "-coldload" && os.Args[3] == "-workload" {
		w, _ := findWorkload(os.Args[4])
		runtime.GOMAXPROCS(lanes)
		if err := coldLoadChild(tiny(w), os.Args[2], os.Stdout); err != nil {
			fatalf("cold load: %v", err)
		}
		return
	}
	logw = io.Discard
	os.Exit(m.Run())
}

// mayBeZero lists the per-layer metrics that can read 0 on a workload whose
// path includes their layer: shares of rare events, queue depths, and the
// two differences that noise can push to either side of nothing.
var mayBeZero = map[string]bool{
	"seed.exact_read_frac": true, "chain.anchors_per_read": true,
	"extend.extensions_per_read": true, "extend.reruns_per_read": true,
	"pipeline.seed_out_queue_avg": true, "pipeline.filter_out_queue_avg": true,
	"core.noise_frac": true, "core.gc_cycles": true, "core.trace_overhead_frac": true,
	"serve.rejected_frac": true, "serve.overhead_us_per_read": true,
}

// Every metric BENCHMARK.json names is emitted exactly once, with its
// unit, by the mode that owns it — on every kind of workload — and a
// per-layer metric reads 0 exactly when its layer is off the workload's path.
func TestSmokeEmitsEveryMetricOnce(t *testing.T) {
	doc := readBenchmarkJSON(t)
	for _, w := range workloads {
		off := map[string]bool{}
		for _, name := range w.offPath() {
			off[name] = true
		}
		for _, trace := range []bool{false, true} {
			want := doc.EndToEnd
			if trace {
				want = doc.PerLayer
			}
			seconds := 0 // one round per set-up
			if trace {
				seconds = 1 // so that the open loop, a sixth of it, sends requests
			}
			res, err := runOnce(tiny(w), options{seed: 3, seconds: seconds, trace: trace, outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				mv, ok := res.Metrics[d.Name]
				if !ok || mv.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s emitted=%v unit %q, want unit %q", w.Name, trace, d.Name, ok, mv.Unit, d.Unit)
				}
				if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %v", w.Name, trace, d.Name, mv.Value)
				}
				switch {
				case !trace && mv.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, mv.Value)
				case trace && off[d.Name] && mv.Value != 0:
					t.Errorf("%s: %s = %v, but its layer is off this workload's path", w.Name, d.Name, mv.Value)
				case trace && !off[d.Name] && !mayBeZero[d.Name] && mv.Value == 0:
					t.Errorf("%s: %s = 0, but its layer is on this workload's path", w.Name, d.Name)
				}
			}
			if trace && w.readLen == 0 && res.Metrics["chain.anchors_per_read"].Value <= 0 {
				t.Errorf("%s: long reads must chain, chain.anchors_per_read = 0", w.Name)
			}
		}
	}
}

// emit must refuse a run that forgot a metric or computed one nobody named.
func TestEmitRefusesMissingAndUndefined(t *testing.T) {
	defs := []metricDef{{Name: "a", Unit: "s"}, {Name: "b", Unit: "ms"}}
	got, err := emit(defs, map[string]float64{"a": 1, "b": 0})
	if err != nil || len(got) != 2 || got["b"] != (metricValue{0, "ms"}) {
		t.Errorf("emit = %v, %v", got, err)
	}
	if _, err := emit(defs, map[string]float64{"a": 1}); err == nil {
		t.Error("a definition without a value must be an error")
	}
	if _, err := emit(defs, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("a value without a definition must be an error")
	}
}

// The seed reaches the simulator and nothing else: the same seed gives the
// same inputs, another seed gives others.
func TestGenerateIsSeeded(t *testing.T) {
	w := tiny(workloads[0])
	a, err := w.generate(5)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := w.generate(5)
	c, _ := w.generate(6)
	if len(a.seqs) != w.slices*w.sliceReads {
		t.Fatalf("generated %d reads, want %d", len(a.seqs), w.slices*w.sliceReads)
	}
	if !a.ref.Equal(b.ref) || !a.seqs[0].Equal(b.seqs[0]) {
		t.Error("same seed gave different inputs")
	}
	if a.ref.Equal(c.ref) {
		t.Error("different seeds gave the same genome")
	}
}
