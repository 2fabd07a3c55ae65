package genax_test

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// retiredRow is one decision that deleted a second path: the names it
// retired, where they may not come back, and the CHANGES.md entry that
// retired them. A name is spelled as Go source spells it: an identifier; a
// selector, which also matches the tail of a longer chain (cfg.X matches
// s.cfg.X); a quoted string literal; "func F" or "func T.M" for a top-level
// declaration; or "import path". Identifiers and selectors also match as
// whole words in comments, so a comment that still names a retired API
// fails too.
type retiredRow struct {
	change string   // the title of the CHANGES.md entry that retired the names
	dirs   []string // the roots the names are retired from; nil is the tree
	except string   // a root the row does not reach
	tests  bool     // whether _test.go files count
	names  []string
	plant  plant
}

// plant brings one retired name back into a real file: old occurs exactly
// once in file, and the patched copy, parsed in memory, must report want.
type plant struct{ file, old, new, want string }

var cmdInternalExamples = []string{"cmd", "internal", "examples"}

// retired holds every name a deletion retired. A change that deletes an
// API adds a row: its names, their reach, and a plant that brings one back.
var retired = []retiredRow{
	{change: "One index path", tests: true,
		names: []string{"indexio.Read", "indexio.ReadFile", "buildDense", "IsMapped", `"mmap"`},
		plant: plant{"cmd/genax/main.go", "\tverify := fs.Bool(", "\t_ = fs.Bool(\"mmap\", false, \"\")\n\tverify := fs.Bool(", `"mmap"`}},
	// Tests name the AlignStream path they drive "stream", so they do not count.
	{change: "Every option earns its place",
		names: []string{"EngineBanded", "MaxCandidates", "ReadFastq", `"stream"`},
		plant: plant{"internal/core/core.go", "\tWorkers int\n", "\tWorkers int\n\tMaxCandidates int\n", "MaxCandidates"}},
	{change: "One serve path", dirs: cmdInternalExamples, tests: true,
		names: []string{"alignOne", "latestDeadline", "errOverloaded", "RecordIndexBuild", "ClockNow", "bench.Stages"},
		plant: plant{"internal/serve/serve_test.go", "func TestServeUnknownGenome404(", "func alignOne() {}\n\nfunc TestServeUnknownGenome404(", "alignOne"}},
	// Goes when the package does: only the benchmark still reads it.
	{change: "One aligner package", except: "benchmark", tests: true,
		names: []string{"import genax/internal/pipeline"},
		plant: plant{"internal/core/core.go", "\t\"fmt\"\n", "\t\"fmt\"\n\t_ \"genax/internal/pipeline\"\n", "import genax/internal/pipeline"}},
	{change: "One aligner package",
		names: []string{"pipeline.Params", "pipeline.New", "PackSeq", "SampledIndex", "MyersBounded", "cfg.RetryAfter", "cfg.MaxReadBytes"},
		plant: plant{"internal/serve/serve.go", "make(chan pending, cfg.QueueLimit)", "make(chan pending, s.cfg.RetryAfter)", "cfg.RetryAfter"}},
	// The bwamem baseline's own a.opts.MaxHits stays.
	{change: "Retire an exact read",
		names: []string{"Seeding.MaxHits", "sd.opts.MaxHits"},
		plant: plant{"internal/seed/seeder.go", "\tif sd.opts.Probing {\n", "\tif sd.opts.MaxHits > 0 && sd.opts.Probing {\n", "sd.opts.MaxHits"}},
	{change: "One owner per genome", dirs: cmdInternalExamples,
		names: []string{"loadSem", "LoadConcurrency", `"load-concurrency"`, "ErrUnknownGenome", "entryLoading", "finishLoad"},
		plant: plant{"cmd/genaxd/main.go", "\tkmer := flag.Int(", "\t_ = flag.Int(\"load-concurrency\", 1, \"\")\n\tkmer := flag.Int(", `"load-concurrency"`}},
	{change: "Record a lane's work where it happens", dirs: cmdInternalExamples, tests: true,
		names: []string{"workIdx", "countingEngine", "b.work", "func AlignAt"},
		plant: plant{"internal/extend/extend.go", "func (st *Stitcher) AlignAt(", "func AlignAt() {}\n\nfunc (st *Stitcher) AlignAt(", "func AlignAt"}},
	{change: "One body per algorithm", tests: true,
		names: []string{"Hirschberg", "NewHirschberg", "BandedEditDistance", "IndelDistance", "ActivePerCycle", "sw.Global", "sw.Local", "func Aligner.Clone",
			"TestHirschbergEdgeCases", "TestHirschbergLongStringsLinearSpace", "TestHirschbergMatchesGotoh", "TestHirschbergPanicsOnAffine", "TestHirschbergUnitEditDistance", "TestBandedEditDistanceLengthGap", "TestBandedEditDistanceMatchesDP"},
		plant: plant{"internal/sw/dp.go", "func (a *Aligner) Align(", "func (a Aligner) Clone() Aligner { return a }\n\nfunc (a *Aligner) Align(", "func Aligner.Clone"}},
	{change: "The CAM is a count",
		names: []string{"NewCAM", "IntersectProbeInto", "IntersectBinaryInto", "IntersectChunkedInto", "CAMSize"},
		plant: plant{"internal/seed/cam.go", "const camSize = 512\n", "const camSize = 512\n\nconst CAMSize = camSize\n", "CAMSize"}},
	{change: "only what the paper needs", tests: true,
		names: []string{"DistanceOf", "indelDistanceOf", "DistanceStrings", "LCSLen", "ContextSwitchStates",
			"TestDistanceOfAgainstDP", "TestDistanceOfRunes", "TestDistanceStrings", "TestIndelDistanceMatchesLCS", "TestLCSLenAgainstDP", "TestLCSLenBasics", "TestLCSLenSimilarStringsAreCheap", "TestContextSwitchStates"},
		plant: plant{"internal/silla/silla.go", "func New(k int) *Automaton {", "func indelDistanceOf() {}\n\nfunc New(k int) *Automaton {", "indelDistanceOf"}},
	{change: "Tier-1 checks what CI claims", tests: true,
		names: []string{"LookupAt", "func Server.Draining"},
		plant: plant{"internal/seed/index.go", "// Lookup returns the sorted", "// Lookup, like LookupAt, returns the sorted", "LookupAt"}},
	// The suffix table is stepWide's only pruning floor.
	{change: "One offer rule and one pruning floor", tests: true,
		names: []string{"futileThr", "useU"},
		plant: plant{"internal/bitsilla/wide.go", "\tpb := max(best, wd.bound-1)\n", "\tpb := max(best, wd.bound-1)\n\tuseU := len(stab) > 0\n", "useU"}},
}

// TestRetiredNamesStayDeleted parses every Go file of the tree once,
// testdata fixtures included, and fails on each retired name a row reaches.
// Then each row must report its plant.
func TestRetiredNamesStayDeleted(t *testing.T) {
	fixtures := func(dir string) bool { return skipDir(dir) && filepath.Base(dir) != "testdata" }
	walkDirs(t, ".", fixtures, func(dir string) {
		for _, f := range append(parseDir(t, dir), parseTests(t, dir)...) {
			retiredIn(f, retired, func(pos token.Position, name, change string) {
				t.Errorf("%s: %s was retired by %q; delete it or choose another name", pos, name, change)
			})
		}
	})
	for _, r := range retired {
		t.Run(r.plant.want, func(t *testing.T) {
			p, found := r.plant, false
			src := readFile(t, p.file)
			if n := strings.Count(src, p.old); n != 1 {
				t.Fatalf("%s: plant anchor occurs %d times, want 1", p.file, n)
			}
			f := parseFile(t, p.file, strings.Replace(src, p.old, p.new, 1))
			retiredIn(f, []retiredRow{r}, func(_ token.Position, name, _ string) { found = found || name == p.want })
			if !found {
				t.Errorf("%s: planted %s is not reported", p.file, p.want)
			}
		})
	}
}

// retiredIn reports each retired name f spells within the reach of rows.
func retiredIn(f *ast.File, rows []retiredRow, report func(pos token.Position, name, change string)) {
	path := filepath.ToSlash(fset.Position(f.Package).Filename)
	spelled := spellings(f)
	for _, r := range rows {
		for _, name := range r.names {
			if pos, ok := spelled[name]; ok && r.reaches(path) {
				report(fset.Position(pos), name, r.change)
			}
		}
	}
}

func (r retiredRow) reaches(path string) bool {
	under := func(dir string) bool { return strings.HasPrefix(path, dir+"/") }
	if !r.tests && strings.HasSuffix(path, "_test.go") || r.except != "" && under(r.except) {
		return false
	}
	return r.dirs == nil || slices.ContainsFunc(r.dirs, under)
}

// commentWord is a word of a comment, dotted words kept whole.
var commentWord = regexp.MustCompile(`[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*`)

// spellings maps each name f spells, in the forms retiredRow describes, to
// a place it does.
func spellings(f *ast.File) map[string]token.Pos {
	spelled := map[string]token.Pos{}
	// addTails adds every run of consecutive parts, so x.y.z also spells
	// y.z and z.
	addTails := func(parts []string, pos token.Pos) {
		for i := range parts {
			for j := i + 1; j <= len(parts); j++ {
				spelled[strings.Join(parts[i:j], ".")] = pos
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			spelled[n.Name] = n.Pos()
		case *ast.SelectorExpr:
			addTails(selectorNames(n), n.Pos())
		case *ast.BasicLit:
			if s, err := strconv.Unquote(n.Value); n.Kind == token.STRING && err == nil {
				spelled[strconv.Quote(s)] = n.Pos()
			}
		case *ast.ImportSpec:
			if s, err := strconv.Unquote(n.Path.Value); err == nil {
				spelled["import "+s] = n.Pos()
			}
		case *ast.FuncDecl:
			if typ := recvType(n); typ != "" {
				spelled["func "+typ+"."+n.Name.Name] = n.Pos()
			} else if n.Recv == nil {
				spelled["func "+n.Name.Name] = n.Pos()
			}
		}
		return true
	})
	for _, g := range f.Comments {
		for _, w := range commentWord.FindAllString(g.Text(), -1) {
			addTails(strings.Split(w, "."), g.Pos())
		}
	}
	return spelled
}

// selectorNames spells the selector chain that ends in e as far back as
// its operands are names: f().cfg.X gives cfg and X.
func selectorNames(e ast.Expr) []string {
	switch e := e.(type) {
	case *ast.Ident:
		return []string{e.Name}
	case *ast.SelectorExpr:
		return append(selectorNames(e.X), e.Sel.Name)
	}
	return nil
}
