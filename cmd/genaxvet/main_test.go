package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"genax/internal/lint/load"
)

// mutant is one plausible edit of a real source file that a rule must
// catch. edits holds old/new pairs; each old string occurs exactly once in
// the file, so a mutant whose target moved fails loudly instead of testing
// nothing.
type mutant struct {
	rule     string // subtest name
	analyzer string
	file     string // relative to the module root; a _test.go file loads test variants
	edits    []string
	want     string // regexp over the finding's message
}

// mutants lists every rule genaxvet keeps, each broken once in the tree it
// guards. A rule that no edit of the real packages can trip has no row
// here, and has no place in the suite.
var mutants = []mutant{
	// hotpath: seedLane.seedOne and the seed index lookups are //genax:hotpath.
	{"hotpath/defer", "hotpath", "internal/core/seedstage.go",
		[]string{"\tsd := l.sd\n", "\tsd := l.sd\n\tdefer println()\n"}, `^defer in`},
	{"hotpath/go", "hotpath", "internal/core/seedstage.go",
		[]string{"\tsd := l.sd\n", "\tsd := l.sd\n\tgo println()\n"}, `^go statement in`},
	{"hotpath/closure", "hotpath", "internal/core/seedstage.go",
		[]string{"\tsd := l.sd\n", "\tsd := func() *seed.Seeder { return l.sd }()\n"}, `^closure literal in`},
	{"hotpath/make", "hotpath", "internal/core/seedstage.go",
		[]string{"\tvar flags uint8\n", "\tflags := make([]uint8, 1)[0]\n"}, `^make allocates`},
	{"hotpath/new", "hotpath", "internal/core/seedstage.go",
		[]string{"\tvar flags uint8\n", "\tflags := *new(uint8)\n"}, `^new allocates`},
	{"hotpath/map-literal", "hotpath", "internal/core/seedstage.go",
		[]string{"\tvar flags uint8\n", "\tflags := map[bool]uint8{}[reverse]\n"}, `^map literal allocates`},
	{"hotpath/slice-literal", "hotpath", "internal/core/seedstage.go",
		[]string{"\tvar flags uint8\n", "\tflags := []uint8{0}[0]\n"}, `^slice literal allocates`},
	{"hotpath/address-of-literal", "hotpath", "internal/core/seedstage.go",
		[]string{"b.cands = append(b.cands, cand{", "b.cands = append(b.cands, *&cand{"}, `^&.*cand composite literal`},
	{"hotpath/fmt", "hotpath", "internal/seed/index.go",
		[]string{"\tt := &si.tab\n\tr := uint(", "\tt := &si.tab\n\t_ = fmt.Sprint()\n\tr := uint("}, `^call to fmt\.Sprint`},
	{"hotpath/boxing", "hotpath", "internal/core/seedstage.go",
		[]string{"\tsd := l.sd\n", "\tsd := l.sd\n\t_ = any(readIdx)\n"}, `^value of type int32 converted as interface`},
	{"hotpath/misplaced", "hotpath", "internal/seed/seeder.go",
		[]string{"//genax:hotpath\nfunc (sd *Seeder) adopt()", "//genax:hotpath\n\nfunc (sd *Seeder) adopt()"}, `^misplaced //genax:hotpath`},

	// determinism: internal/core is a deterministic package.
	{"determinism/map-range", "determinism", "internal/core/core.go",
		[]string{"\tswitch cfg.Engine {\n", "\tfor range map[string]bool{} {\n\t}\n\tswitch cfg.Engine {\n"}, `^range over map`},
	{"determinism/wall-clock", "determinism", "internal/core/core.go",
		[]string{"\t\"fmt\"\n", "\t\"fmt\"\n\t\"time\"\n", "\tif cfg.Workers <= 0 {\n", "\t_ = time.Now()\n\tif cfg.Workers <= 0 {\n"}, `^time\.Now in deterministic`},
	{"determinism/global-rand", "determinism", "internal/core/core.go",
		[]string{"\t\"fmt\"\n", "\t\"fmt\"\n\t\"math/rand\"\n", "\tif cfg.Workers <= 0 {\n", "\t_ = rand.Intn(2)\n\tif cfg.Workers <= 0 {\n"}, `^math/rand\.Intn in deterministic`},
	{"determinism/select", "determinism", "internal/core/stream.go",
		[]string{"\t\tr, ok := <-in\n", "\t\tvar r dna.Seq\n\t\tvar ok bool\n\t\tselect {\n\t\tcase r, ok = <-in:\n\t\tcase <-make(chan struct{}):\n\t\t}\n"}, `^select over 2 channels`},
	{"determinism/test-file", "determinism", "internal/core/stats_test.go",
		[]string{"\tdst.Merge(src)\n", "\tfor range map[int]bool{} {\n\t}\n\tdst.Merge(src)\n"}, `^range over map`},

	// invariants: the serve registry discards Close explicitly, and
	// seed.BuildSegmentIndex bound-checks k.
	{"invariants/dropped-error", "invariants", "internal/serve/registry.go",
		[]string{"\t\t_ = m.Close()\n", "\t\tm.Close()\n"}, `^error result of .*Close is dropped`},
	{"invariants/bound-check", "invariants", "internal/seed/index.go",
		[]string{"k int) (*SegmentIndex, error) {\n\tif k < 1 {", "k int) (*SegmentIndex, error) {\n\tif k == 0 {"}, `^exported kernel entry point BuildSegmentIndex does not bound-check parameter k`},

	// borrow: seedLane.seedOne holds Seeder.Seed's scratch-backed result,
	// and the seed package lends its tables under //genax:borrowed.
	{"borrow/field-store", "borrow", "internal/core/seedstage.go",
		[]string{"\tstats *Stats // the owning lane's work counters\n", "\tstats *Stats // the owning lane's work counters\n\tlast  []seed.Seed\n",
			"\tseeds := sd.SeedRows(q, b.win.readRows(readIdx, reverse))\n", "\tseeds := sd.SeedRows(q, b.win.readRows(readIdx, reverse))\n\tl.last = seeds\n"}, `^borrowed slice stored to a struct field`},
	{"borrow/global-store", "borrow", "internal/core/seedstage.go",
		[]string{"// seedLane is a lane's seeding half", "var lastSeeds []seed.Seed\n\n// seedLane is a lane's seeding half",
			"\tseeds := sd.SeedRows(q, b.win.readRows(readIdx, reverse))\n", "\tseeds := sd.SeedRows(q, b.win.readRows(readIdx, reverse))\n\tlastSeeds = seeds\n"}, `^borrowed slice stored to package-level variable lastSeeds`},
	{"borrow/closure-capture", "borrow", "internal/core/seedstage.go",
		[]string{"\tseeds := sd.SeedRows(q, b.win.readRows(readIdx, reverse))\n", "\tseeds := sd.SeedRows(q, b.win.readRows(readIdx, reverse))\n\tdefer func() { _ = len(seeds) }()\n"}, `^borrowed slice seeds captured by closure`},
	{"borrow/goroutine-capture", "borrow", "internal/core/seedstage.go",
		[]string{"\tseeds := sd.SeedRows(q, b.win.readRows(readIdx, reverse))\n", "\tseeds := sd.SeedRows(q, b.win.readRows(readIdx, reverse))\n\tgo println(len(seeds))\n"}, `^borrowed slice seeds captured by goroutine`},
	{"borrow/append", "borrow", "internal/core/seedstage.go",
		[]string{"\tseeds := sd.SeedRows(q, b.win.readRows(readIdx, reverse))\n", "\tseeds := sd.SeedRows(q, b.win.readRows(readIdx, reverse))\n\tseeds = append(seeds, seed.Seed{})\n"}, `^append to a borrowed slice`},
	{"borrow/write-through", "borrow", "internal/core/seedstage.go",
		[]string{"\t\tfor _, h := range s.Positions {\n", "\t\tfor j, h := range s.Positions {\n\t\t\ts.Positions[j] = h + 1\n"}, `^write through a borrowed slice`},
	{"borrow/send", "borrow", "internal/core/seedstage.go",
		[]string{"\tseeds := sd.SeedRows(q, b.win.readRows(readIdx, reverse))\n", "\tseeds := sd.SeedRows(q, b.win.readRows(readIdx, reverse))\n\tch := make(chan []seed.Seed, 1)\n\tch <- seeds\n"}, `^borrowed slice sent on a channel`},
	{"borrow/unannotated-return", "borrow", "internal/seed/seeder.go",
		[]string{"//genax:borrowed\n//genax:hotpath\nfunc (sd *Seeder) hitsAt(", "//genax:hotpath\nfunc (sd *Seeder) hitsAt("}, `^borrowed slice returned from hitsAt`},
	{"borrow/misplaced", "borrow", "internal/seed/index.go",
		[]string{"//genax:borrowed\nfunc (si *SegmentIndex) Tables()", "//genax:borrowed\n\nfunc (si *SegmentIndex) Tables()"}, `^misplaced //genax:borrowed`},
	{"borrow/no-reference", "borrow", "internal/seed/index.go",
		[]string{"// K returns the k-mer length.\n", "// K returns the k-mer length.\n//\n//genax:borrowed\n"}, `^//genax:borrowed on K, which returns no reference`},

	// stagecontract: the serve intake queue is bounded, and a window's
	// lanes are WaitGroup-tracked.
	{"stagecontract/unbounded-chan", "stagecontract", "internal/serve/serve.go",
		[]string{"make(chan pending, cfg.QueueLimit)", "make(chan pending)"}, `^unbounded make\(chan genax/internal/serve\.pending\)`},
	{"stagecontract/unaccounted-goroutine", "stagecontract", "internal/core/lane.go",
		[]string{"\t\t\tdefer w.wg.Done()\n\t\t\tl.run(w)\n", "\t\t\tl.run(w)\n\t\t\tw.wg.Done()\n"}, `^unaccounted goroutine in runWindow`},
}

// lender is loaded alongside every mutated package so the borrow
// analyzer's registry knows seed's //genax:borrowed functions, as the
// ./... run does.
const lender = "./internal/seed"

// vetPatched loads dirs from the module root with overlay applied (and
// their test variants when tests is set) and returns genaxvet's findings.
func vetPatched(t *testing.T, root string, tests bool, overlay map[string][]byte, dirs ...string) []finding {
	t.Helper()
	pkgs, err := (&load.Config{Dir: root, Tests: tests, Overlay: overlay}).Load(dirs...)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := vet(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

// TestEveryRuleFiresOnTheTree breaks each kept rule once in the real
// package it guards and checks that genaxvet reports it there, after
// checking that the unpatched packages are clean.
func TestEveryRuleFiresOnTheTree(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	covered := make(map[string]bool)
	dirs := map[string]bool{lender: true}
	for _, m := range mutants {
		covered[m.analyzer] = true
		dirs["./"+filepath.Dir(m.file)] = true
	}
	for _, a := range analyzers {
		if !covered[a.Name] {
			t.Errorf("analyzer %s has no mutant: every rule must be breakable by an edit of the tree", a.Name)
		}
	}
	var all []string
	for d := range dirs {
		all = append(all, d)
	}
	for _, f := range vetPatched(t, root, true, nil, all...) {
		t.Fatalf("unpatched tree is not clean: %s: %s (%s)", f.pos, f.message, f.analyzer)
	}

	for _, m := range mutants {
		t.Run(m.rule, func(t *testing.T) {
			path := filepath.Join(root, m.file)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			src := string(b)
			for i := 0; i+1 < len(m.edits); i += 2 {
				if n := strings.Count(src, m.edits[i]); n != 1 {
					t.Fatalf("%s: edit target %q occurs %d times, want 1", m.file, m.edits[i], n)
				}
				src = strings.Replace(src, m.edits[i], m.edits[i+1], 1)
			}
			want := regexp.MustCompile(m.want)
			tests := strings.HasSuffix(m.file, "_test.go")
			findings := vetPatched(t, root, tests, map[string][]byte{path: []byte(src)}, "./"+filepath.Dir(m.file), lender)
			for _, f := range findings {
				if f.analyzer == m.analyzer && f.pos.Filename == path && want.MatchString(f.message) {
					return
				}
			}
			t.Errorf("%s: no %s finding matching %q; got:", m.file, m.analyzer, m.want)
			for _, f := range findings {
				t.Errorf("  %s: %s (%s)", f.pos, f.message, f.analyzer)
			}
		})
	}
}
