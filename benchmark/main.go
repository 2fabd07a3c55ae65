// Command benchmark is this repository's one benchmark: four workloads,
// five end-to-end metrics timed best-of-visits, and a separate traced run
// that attributes time to layers from outside. See README.md.
//
//	go run ./benchmark --workload short_err2 --seed 14 --seconds 24 --trace 0
//
// (from the repository root; run.sh does the same with the compiler cache
// kept inside the checkout). The last line of standard output is the result
// object; everything meant for people goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// logw takes the human-readable report.
var logw io.Writer = os.Stderr

// logf writes one line of the report; a diagnostic that cannot be written
// is not worth failing a run for.
func logf(format string, args ...any) {
	_, _ = fmt.Fprintf(logw, format+"\n", args...)
}

// options is one run's command line.
type options struct {
	seed    int64
	seconds int
	trace   bool
	// outDir holds everything a run writes: the span file and, while the
	// served workload runs, its reference and index cache.
	outDir string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the harness reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see -list)")
		seed    = flag.Int64("seed", 14, "seed for the input simulator; the aligner sees only the generated inputs")
		seconds = flag.Int("seconds", 24, "how long the run measures")
		trace   = flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
		list    = flag.Bool("list", false, "print every workload and metric and exit")
		repeat  = flag.Int("repeat", 0, "run the workload N times in fresh processes, seeds seed..seed+N-1, and print each metric's spread")
		coldDir = flag.String("coldload", "", "internal: perform the served workload's cold load in this directory and print its seconds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *list {
		printList()
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatalf("unknown workload %q (try -list)", *name)
	}
	runtime.GOMAXPROCS(lanes)
	switch {
	case *coldDir != "":
		if err := coldLoadChild(w, *coldDir, os.Stdout); err != nil {
			fatalf("cold load: %v", err)
		}
	case *repeat > 0:
		if err := runRepeats(w, *seed, *seconds, *trace, *repeat); err != nil {
			fatalf("%v", err)
		}
	default:
		res, err := runOnce(w, options{*seed, *seconds, *trace != 0, "benchmark/out"})
		if err != nil {
			fatalf("%v", err)
		}
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// runOnce is one run of one workload in this process.
func runOnce(w workload, o options) (result, error) {
	st := newStamp(w.Name, o.seed, o.seconds, o.trace)
	logf("%+v", st)
	in, err := w.generate(o.seed)
	if err != nil {
		return result{}, err
	}
	b := &bench{w: w, in: in, n: len(in.seqs)}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return result{}, err
	}
	var cold time.Duration
	if w.served {
		defer b.cleanupServe()
		if cold, err = b.prepareServe(o.outDir); err != nil {
			return result{}, err
		}
		logf("cold load %.3fs", cold.Seconds())
	}

	var values map[string]float64
	defs := endToEnd
	if o.trace {
		defs = perLayer
		var spans []span
		values, spans, err = b.traced(o.seconds, cold)
		if err == nil {
			err = writeTrace(filepath.Join(o.outDir, "trace-"+w.Name+".json"), st, values, spans)
		}
		if err == nil {
			printPredictions(w, values)
		}
	} else {
		values, err = b.endToEnd(o.seconds)
	}
	if err != nil {
		if b.srv != nil {
			logf("%s", b.srv.log.String())
		}
		return result{}, err
	}

	for _, n := range b.notes {
		logf("VIOLATION: %s", n)
	}
	res := result{Correct: b.failed == 0 && len(b.notes) == 0, Attempted: b.attempted, Failed: b.failed}
	if res.Metrics, err = emit(defs, values); err != nil {
		return result{}, err
	}
	for _, d := range defs {
		logf("%-36s %14.6g %s", d.Name, values[d.Name], d.Unit)
	}
	logf("attempted=%d failed=%d correct=%v", res.Attempted, res.Failed, res.Correct)
	return res, nil
}

// emit gives every computed value the unit its definition names. A
// definition nothing computed and a value nothing defines are both mistakes
// in the benchmark, so neither is papered over with a zero or dropped.
func emit(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was never computed", d.Name)
		}
		out[d.Name] = metricValue{v, d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("computed value %s is not a metric of this mode", name)
		}
	}
	return out, nil
}

// writeTrace writes the traced run's spans and each span name's self time
// (its duration minus what its children cover).
func writeTrace(path string, st stamp, values map[string]float64, spans []span) error {
	self := map[string]float64{}
	for name, d := range selfTimes(spans) {
		self[name] = d.Seconds()
	}
	doc := struct {
		Stamp   stamp              `json:"stamp"`
		Metrics map[string]float64 `json:"metrics"`
		SelfS   map[string]float64 `json:"self_time_s"`
		Spans   []span             `json:"spans"`
	}{st, values, self, spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		logf("self time %-28s %10.4fs", n, self[n])
	}
	return os.WriteFile(path, data, 0o644)
}

// printPredictions checks the interaction notes of the README against the
// traced run. They are printed, not enforced: a later change may move a
// bottleneck on purpose.
func printPredictions(w workload, v map[string]float64) {
	check := func(what string, ok bool) {
		verdict := "holds"
		if !ok {
			verdict = "DOES NOT HOLD"
		}
		logf("prediction: %s: %s", what, verdict)
	}
	share := v["pipeline.extend_busy_share"]
	switch {
	case w.exact:
		check(fmt.Sprintf("extend_busy_share %.3f < 0.1 (seeding does the work)", share), share < 0.1)
	case !w.served:
		check(fmt.Sprintf("extend_busy_share %.3f > 0.5 (extend lane is the bottleneck)", share), share > 0.5)
	}
	anchors := v["chain.anchors_per_read"]
	if w.readLen == 0 {
		check(fmt.Sprintf("chain.anchors_per_read %.2f > 0 (long reads chain)", anchors), anchors > 0)
	} else {
		check(fmt.Sprintf("chain.anchors_per_read %.2f = 0 (short reads never chain)", anchors), anchors == 0)
	}
}

func printList() {
	fmt.Println("workloads:")
	for _, wl := range workloads {
		fmt.Printf("  %-12s %d slices x %d reads, %d single reads — %s\n", wl.Name, wl.slices, wl.sliceReads, wl.singles, wl.Why)
	}
	fmt.Println("end-to-end metrics (--trace 0):")
	for _, d := range endToEnd {
		fmt.Printf("  %-36s %-6s better=%-6s bound=%g\n", d.Name, d.Unit, d.Better, d.Bound)
	}
	fmt.Println("per-layer metrics (--trace 1):")
	for _, d := range perLayer {
		fmt.Printf("  %-36s %-6s better=%s\n", d.Name, d.Unit, d.Better)
	}
}

// runRepeats is the evidence for the agreement rule: n fresh processes,
// one seed each, then every metric's min/median/max and the spread the
// harness computes (quartile distance over median).
func runRepeats(w workload, seed int64, seconds, trace, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	defs := endToEnd
	if trace != 0 {
		defs = perLayer
	}
	samples := map[string][]float64{}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		cmd := exec.Command(exe, "-workload", w.Name, "-seed", fmt.Sprint(seed+int64(i)),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, seed+int64(i), err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run %d printed no result: %w", i, err)
		}
		for name, mv := range res.Metrics {
			samples[name] = append(samples[name], mv.Value)
		}
		line := fmt.Sprintf("run %d seed %d: correct=%v failed=%d/%d in %.1fs", i, seed+int64(i), res.Correct, res.Failed, res.Attempted, time.Since(t0).Seconds())
		if trace == 0 {
			for _, d := range defs {
				line += fmt.Sprintf("  %s=%.6g", d.Name, res.Metrics[d.Name].Value)
			}
		}
		logf("%s", line)
	}
	fmt.Printf("%s, %d runs, seeds %d..%d\n", w.Name, n, seed, seed+int64(n)-1)
	fmt.Printf("%-36s %-6s %14s %14s %14s %8s\n", "metric", "unit", "min", "median", "max", "iqr/med")
	for _, d := range defs {
		v := samples[d.Name]
		fmt.Printf("%-36s %-6s %14.6g %14.6g %14.6g %7.2f%%\n", d.Name, d.Unit,
			slices.Min(v), median(v), slices.Max(v), 100*quartileSpread(v))
	}
	return nil
}
