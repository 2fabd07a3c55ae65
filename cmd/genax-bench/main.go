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
// -pairs sizes fig14; -cpuprofile/-memprofile write pprof profiles of the
// selected experiment (see EXPERIMENTS.md for the profiling workflow).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"genax/internal/bench"
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
	pairs := flag.Int("pairs", 2000, "extension pairs for fig14")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the experiment to this file")
	memprofile := flag.String("memprofile", "", "write a post-run heap profile to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: genax-bench [flags] {fig12|fig13|fig14|fig15|fig16|table2|validate|all}\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
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
	} else if f, ok := experiments[name]; ok {
		f()
	} else {
		fmt.Fprintf(os.Stderr, "genax-bench: unknown experiment %q\n", name)
		flag.Usage()
		return 2
	}
	return 0
}
