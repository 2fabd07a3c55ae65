// Command genax-bench regenerates the tables and figures of the paper's
// evaluation (§VIII). Each subcommand prints paper-vs-measured rows:
//
//	genax-bench fig12     SillaX per-PE area/power vs frequency
//	genax-bench fig13     traceback re-execution distribution
//	genax-bench fig14     seed-extension throughput comparison
//	genax-bench fig15     end-to-end throughput and power
//	genax-bench fig16     seeding optimization ablations
//	genax-bench table2    GenAx area breakdown
//	genax-bench validate  GenAx vs BWA-MEM-like concordance
//	genax-bench all       everything above
//
// Flags: -quick shrinks the workload; -genome/-coverage/-seed resize it;
// -engine selects the extension engine (bitsilla, sillax, banded, genasm,
// cascade); -compare-engines runs the workload through every engine,
// prints wall clock, extend-stage busy time, allocations, result-hash
// equality and the cascade's per-leg routing histogram, and writes the
// measurements to BENCH_extend.json; -compare-longread runs the kilobase
// long-read workload (K > 63, every extension on the multi-word wide
// datapath) through the cycle oracle, the degraded cycle-fallback
// bitsilla, the wide bitsilla and the cascade, writes BENCH_longread.json,
// and fails on any oracle hash mismatch or (full workload only) when the
// wide datapath's extend-stage speedup over the cycle fallback is below
// bench.SpeedupFloor; -cpuprofile/-memprofile
// write pprof profiles of the selected experiment (see EXPERIMENTS.md for
// the profiling workflow); -allocbudget N measures steady-state AlignBatch
// heap allocations per read after the experiment and exits non-zero when
// they exceed N; -stages prints the per-stage busy-time breakdown of the
// pipeline (the Fig 11 seed/extend lane balance); -compare-index aligns the workload over one v2 index
// cache through the heap, zero-copy mapped, and sharded (bounded
// residency) backings and writes cold-start/peak-RSS/result-hash rows to
// BENCH_index.json; -mmap maps the -indexcache file instead of
// heap-loading it, and -shards partitions written caches into shard
// groups (bounding mapped residency to one group at a time).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"genax/internal/bench"
	"genax/internal/core"
)

func main() {
	os.Exit(run())
}

// run holds main's body so deferred profile writers execute before the
// process exits with a failure code (os.Exit in main would skip them).
func run() int {
	quick := flag.Bool("quick", false, "use a small workload for a fast smoke run")
	genome := flag.Int("genome", 0, "override synthetic genome length (bases)")
	coverage := flag.Float64("coverage", 0, "override read coverage")
	seed := flag.Int64("seed", 0, "override workload RNG seed")
	engine := flag.String("engine", "", "extension engine: bitsilla (default), sillax, banded, genasm, or cascade")
	compareEngines := flag.Bool("compare-engines", false,
		"run the workload through every extension engine, print the comparison, and write BENCH_extend.json")
	compareLongread := flag.Bool("compare-longread", false,
		"run the kilobase long-read workload (K > 63) through the cycle oracle, cycle-fallback bitsilla, wide bitsilla and cascade, print the comparison, and write BENCH_longread.json")
	compareSeed := flag.Bool("compare-seed", false,
		"run the workload through the per-probe and rolling seed paths plus serial/parallel index builds, print the comparison, and write BENCH_seed.json")
	compareIndex := flag.Bool("compare-index", false,
		"align the workload over one v2 index cache through the heap, mapped, and sharded backings, print cold-start/peak-RSS/result-hash rows, and write BENCH_index.json")
	compareServe := flag.Bool("compare-serve", false,
		"serve the workload over HTTP through per-request-session, pooled-AlignRead and coalesced modes, print capacity/latency/shedding rows, and write BENCH_serve.json")
	mmapIdx := flag.Bool("mmap", false,
		"with -indexcache, map the cache file zero-copy (indexio.OpenMapped) instead of heap-loading it; stale or v1 caches are rewritten in the v2 format first")
	shards := flag.Int("shards", 0,
		"shard groups for index caches: partitions files written by -indexcache/-compare-index and, with -mmap, bounds table residency to one group at a time (0 = one group; -compare-index defaults to 4)")
	workers := flag.Int("workers", 0,
		"worker count for the parallel index build measured by -compare-seed (0 = GOMAXPROCS); the recorded BENCH_seed.json speedup is labeled with this count")
	pairs := flag.Int("pairs", 2000, "extension pairs for fig14")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the experiment to this file")
	memprofile := flag.String("memprofile", "", "write a post-run heap profile to this file")
	allocbudget := flag.Float64("allocbudget", 0,
		"after the experiment, measure steady-state AlignBatch allocations per read and fail if above this budget (0 disables)")
	stages := flag.Bool("stages", false,
		"after the experiment, print the per-stage busy-time breakdown (Fig 11 lane balance)")
	indexCache := flag.String("indexcache", "",
		"keep the segmented index in an on-disk cache under this directory: the first run builds and writes it, later runs load it instead of rebuilding (empty disables)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: genax-bench [flags] {fig12|fig13|fig14|fig15|fig16|table2|validate|all}\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 && !((*compareEngines || *compareLongread || *compareSeed || *compareIndex || *compareServe) && flag.NArg() == 0) {
		flag.Usage()
		return 2
	}

	spec := bench.DefaultWorkload()
	if *quick {
		spec = bench.QuickWorkload()
	}
	if *genome > 0 {
		spec.GenomeLen = *genome
	}
	if *coverage > 0 {
		spec.Coverage = *coverage
	}
	if *seed != 0 {
		spec.Seed = *seed
	}
	spec.Engine = core.Engine(*engine)
	spec.IndexCacheDir = *indexCache
	spec.IndexWorkers = *workers
	spec.MmapIndex = *mmapIdx
	spec.Shards = *shards

	if *compareEngines {
		if code := runCompareEngines(spec); code != 0 {
			return code
		}
	}
	if *compareLongread {
		lr := bench.DefaultLongread()
		if *quick {
			lr = bench.QuickLongread()
		}
		if *seed != 0 {
			lr.Seed = *seed
		}
		if *genome > 0 {
			lr.GenomeLen = *genome
		}
		if *coverage > 0 {
			lr.Coverage = *coverage
		}
		if code := runCompareLongread(lr, *quick); code != 0 {
			return code
		}
	}
	if *compareSeed {
		if code := runCompareSeed(spec); code != 0 {
			return code
		}
	}
	if *compareIndex {
		n := *shards
		if n <= 0 {
			n = 4
		}
		if code := runCompareIndex(spec, n); code != 0 {
			return code
		}
	}
	if *compareServe {
		if code := runCompareServe(*quick); code != 0 {
			return code
		}
	}
	if flag.NArg() == 0 {
		return 0
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "genax-bench: %v\n", err)
			return 1
		}
		defer func() { _ = f.Close() }()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "genax-bench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "genax-bench: %v\n", err)
				return
			}
			runtime.GC() // flush dead objects so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "genax-bench: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "genax-bench: %v\n", err)
			}
		}()
	}

	experiments := map[string]func(){
		"fig12":    func() { fmt.Println(bench.Fig12()) },
		"fig13":    func() { fmt.Println(bench.Fig13(spec)) },
		"fig14":    func() { fmt.Println(bench.Fig14(spec, *pairs)) },
		"fig15":    func() { fmt.Println(bench.Fig15(spec)) },
		"fig16":    func() { fmt.Println(bench.Fig16(spec)) },
		"table2":   func() { fmt.Println(bench.Table2String()) },
		"validate": func() { fmt.Println(bench.Validate(spec)) },
	}
	name := flag.Arg(0)
	if name == "all" {
		for _, k := range []string{"fig12", "table2", "fig13", "fig14", "fig16", "fig15", "validate"} {
			fmt.Printf("==== %s ====\n", k)
			experiments[k]()
		}
		return runChecks(spec, *allocbudget, *stages)
	}
	f, ok := experiments[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "genax-bench: unknown experiment %q\n", name)
		flag.Usage()
		return 2
	}
	f()
	return runChecks(spec, *allocbudget, *stages)
}

// runCompareEngines measures every extension engine on the workload,
// prints the comparison, writes BENCH_extend.json, and fails when any
// identity-claiming engine (bitsilla, genasm, cascade) diverges from the
// cycle-level oracle.
func runCompareEngines(spec bench.WorkloadSpec) int {
	cmp, err := bench.CompareEngines(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "genax-bench: compare-engines: %v\n", err)
		return 1
	}
	fmt.Println(cmp)
	data, err := json.MarshalIndent(cmp, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "genax-bench: compare-engines: %v\n", err)
		return 1
	}
	if err := os.WriteFile("BENCH_extend.json", append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "genax-bench: compare-engines: %v\n", err)
		return 1
	}
	fmt.Println("wrote BENCH_extend.json")
	if !cmp.OracleMatch {
		fmt.Fprintf(os.Stderr, "genax-bench: engine results diverge from the oracle\n")
		return 1
	}
	return 0
}

// runCompareLongread measures the long-read workload through every
// identity-claiming engine configuration, prints the comparison, writes
// BENCH_longread.json, and fails when any configuration's results diverge
// from the cycle-level oracle — or, on the full workload, when the wide
// multi-word datapath's extend-stage advantage over the cycle fallback is
// below the acceptance floor. The -quick variant gates hash identity only:
// its workload is too small for a stable speedup measurement.
func runCompareLongread(spec bench.LongreadSpec, quick bool) int {
	cmp, err := bench.CompareLongread(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "genax-bench: compare-longread: %v\n", err)
		return 1
	}
	fmt.Println(cmp)
	data, err := json.MarshalIndent(cmp, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "genax-bench: compare-longread: %v\n", err)
		return 1
	}
	if err := os.WriteFile("BENCH_longread.json", append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "genax-bench: compare-longread: %v\n", err)
		return 1
	}
	fmt.Println("wrote BENCH_longread.json")
	if !cmp.OracleMatch {
		fmt.Fprintf(os.Stderr, "genax-bench: long-read engine results diverge from the oracle\n")
		return 1
	}
	if !quick && cmp.WideVsCycle < bench.SpeedupFloor {
		fmt.Fprintf(os.Stderr, "genax-bench: wide datapath speedup %.2fx is below the %.0fx floor\n",
			cmp.WideVsCycle, bench.SpeedupFloor)
		return 1
	}
	return 0
}

// runCompareSeed measures the per-probe and rolling seed paths plus the
// serial/parallel index builds, prints the comparison, writes
// BENCH_seed.json, and fails when the rolling path's results or work
// counters diverge from the per-probe baseline — or when the parallel
// index build is not byte-identical to the serial one.
func runCompareSeed(spec bench.WorkloadSpec) int {
	cmp, err := bench.CompareSeed(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "genax-bench: compare-seed: %v\n", err)
		return 1
	}
	fmt.Println(cmp)
	data, err := json.MarshalIndent(cmp, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "genax-bench: compare-seed: %v\n", err)
		return 1
	}
	if err := os.WriteFile("BENCH_seed.json", append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "genax-bench: compare-seed: %v\n", err)
		return 1
	}
	fmt.Println("wrote BENCH_seed.json")
	if !cmp.ResultMatch {
		fmt.Fprintf(os.Stderr, "genax-bench: rolling-scan results diverge from the per-probe baseline\n")
		return 1
	}
	if !cmp.IndexHashMatch {
		fmt.Fprintf(os.Stderr, "genax-bench: parallel index build diverges from the serial build\n")
		return 1
	}
	if !cmp.MappedMatch {
		fmt.Fprintf(os.Stderr, "genax-bench: mapped-index results diverge from the heap baseline\n")
		return 1
	}
	return 0
}

// runCompareIndex aligns the workload over a single v2 cache file through
// the heap, mapped, and sharded index backings, prints the comparison,
// writes BENCH_index.json, and fails when any backing's results diverge
// from the heap baseline or when the mapped cold start does not beat heap
// deserialization.
func runCompareIndex(spec bench.WorkloadSpec, shards int) int {
	cmp, err := bench.CompareIndex(spec, shards)
	if err != nil {
		fmt.Fprintf(os.Stderr, "genax-bench: compare-index: %v\n", err)
		return 1
	}
	fmt.Println(cmp)
	data, err := json.MarshalIndent(cmp, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "genax-bench: compare-index: %v\n", err)
		return 1
	}
	if err := os.WriteFile("BENCH_index.json", append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "genax-bench: compare-index: %v\n", err)
		return 1
	}
	fmt.Println("wrote BENCH_index.json")
	if !cmp.ResultMatch {
		fmt.Fprintf(os.Stderr, "genax-bench: mapped/sharded results diverge from the heap baseline\n")
		return 1
	}
	if !cmp.ColdStartGate {
		fmt.Fprintf(os.Stderr, "genax-bench: mapped cold start did not beat heap deserialization\n")
		return 1
	}
	return 0
}

// runCompareServe serves the workload over HTTP in all three serving
// modes, prints the comparison, writes BENCH_serve.json, and fails when
// any mode's served results diverge from offline AlignBatch — or, on the
// full workload, when the overloaded server failed to shed with 429 +
// Retry-After. Capacities and latencies are reported, not gated. The
// -quick variant gates hash identity only: its rate phases are too short
// to be stable.
func runCompareServe(quick bool) int {
	cmp, err := bench.CompareServe(quick)
	if err != nil {
		fmt.Fprintf(os.Stderr, "genax-bench: compare-serve: %v\n", err)
		return 1
	}
	fmt.Println(cmp)
	data, err := json.MarshalIndent(cmp, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "genax-bench: compare-serve: %v\n", err)
		return 1
	}
	if err := os.WriteFile("BENCH_serve.json", append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "genax-bench: compare-serve: %v\n", err)
		return 1
	}
	fmt.Println("wrote BENCH_serve.json")
	if !cmp.HashOK {
		fmt.Fprintf(os.Stderr, "genax-bench: served results diverge from offline AlignBatch\n")
		return 1
	}
	if quick {
		return 0
	}
	if !cmp.ShedGate {
		fmt.Fprintf(os.Stderr, "genax-bench: overloaded baseline did not shed with 429 + Retry-After\n")
		return 1
	}
	return 0
}

// runChecks executes the post-experiment measurements (-stages, -allocbudget).
func runChecks(spec bench.WorkloadSpec, budget float64, stages bool) int {
	if stages {
		br, err := bench.Stages(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "genax-bench: stages: %v\n", err)
			return 1
		}
		fmt.Println(br)
	}
	return checkAllocBudget(spec, budget)
}

// checkAllocBudget runs the steady-state allocation measurement when a
// budget is set, printing the result and failing the process on overrun.
func checkAllocBudget(spec bench.WorkloadSpec, budget float64) int {
	if budget <= 0 {
		return 0
	}
	res, err := bench.AllocsPerRead(spec, budget)
	if err != nil {
		fmt.Fprintf(os.Stderr, "genax-bench: allocbudget: %v\n", err)
		return 1
	}
	fmt.Println(res)
	if res.Exceeded() {
		fmt.Fprintf(os.Stderr, "genax-bench: allocation budget exceeded\n")
		return 1
	}
	return 0
}
