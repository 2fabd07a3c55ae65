package genax_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// commands are the binaries whose flag sets the tests below collect.
var commands = []string{"cmd/genax", "cmd/genaxd", "cmd/genax-bench", "cmd/genaxvet"}

// flagDefiners are the flag.FlagSet methods (and package flag functions)
// that define a flag. The name is the first argument, except for the
// ...Var forms, which take the destination first.
var flagDefiners = map[string]int{
	"Bool": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0, "String": 0,
	"Float64": 0, "Duration": 0, "Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1,
	"StringVar": 1, "Float64Var": 1, "DurationVar": 1, "TextVar": 1, "Var": 1,
}

// commandFlags parses the non-test files of every command and returns each
// flag name it defines, mapped to the commands that define it. A call
// defines a flag when its receiver is package flag or a variable assigned
// from flag.NewFlagSet.
func commandFlags(t *testing.T) map[string][]string {
	t.Helper()
	flags := map[string][]string{}
	for _, dir := range commands {
		for _, f := range parseDir(t, dir) {
			sets := map[string]bool{"flag": true}
			ast.Inspect(f, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
					for i, rhs := range as.Rhs {
						if call, ok := rhs.(*ast.CallExpr); ok && isSelector(call.Fun, "flag", "NewFlagSet") {
							if id, ok := as.Lhs[i].(*ast.Ident); ok {
								sets[id.Name] = true
							}
						}
					}
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				recv, ok := sel.X.(*ast.Ident)
				arg, defines := flagDefiners[sel.Sel.Name]
				if !ok || !sets[recv.Name] || !defines || len(call.Args) <= arg {
					return true
				}
				lit, ok := call.Args[arg].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Errorf("%s: %s.%s defines a flag whose name is not a literal", dir, recv.Name, sel.Sel.Name)
					return true
				}
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				flags[name] = appendOnce(flags[name], dir)
				return true
			})
		}
	}
	if len(flags) == 0 {
		t.Fatal("no flags found; the collector is broken")
	}
	return flags
}

// TestEveryFlagIsExercised holds each command-line flag to one rule: some
// check runs it. The flag must appear as -name in the CI workflow, in a
// _test.go file, or in the verify skill's recipes. A flag that none of
// them uses is either exercised there or deleted.
func TestEveryFlagIsExercised(t *testing.T) {
	var corpus strings.Builder
	for _, p := range []string{".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		corpus.WriteString(readFile(t, p))
	}
	walkDirs(t, ".", skipDir, func(dir string) {
		tests, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
		for _, p := range tests {
			corpus.WriteString(readFile(t, p))
		}
	})
	text := corpus.String()
	flags := commandFlags(t)
	for _, name := range sortedKeys(flags) {
		use := regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(name) + `([^\w-]|$)`)
		if !use.MatchString(text) {
			t.Errorf("%s: flag -%s is named by no CI step, test or verify recipe; exercise it or delete it",
				strings.Join(flags[name], ", "), name)
		}
	}
}

// docs are the documents TestDocsResolve holds to the tree.
var docs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	backticked = regexp.MustCompile("`([^`\n]+)`")
	// qualified is a whole span naming pkg.Ident or pkg.Type.Member,
	// optionally called.
	qualified = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(?:\(.*\))?$`)
	// metric is a BENCHMARK.json-shaped name: layer.snake_case.
	metric = regexp.MustCompile(`^[a-z]+\.[a-z0-9]+(?:_[a-z0-9]+)+$`)
	// bareTest is a span that names a test function without its package;
	// a trailing * makes it a prefix.
	bareTest = regexp.MustCompile(`^((?:Test|Benchmark|Fuzz)[A-Z_]\w*)(\*?)$`)
	// flagSpan is a span that is a flag, alone or with its value.
	flagSpan = regexp.MustCompile(`^-([a-z][a-z0-9-]*)(?:[ =].*)?$`)
	// command is a fenced or backticked shell line that runs one of the
	// commands; flagTok finds its flags up to the first shell operator.
	command = regexp.MustCompile(`(?:^|[\s/])(genax|genaxd|genax-bench|genaxvet)\s+(.*)$`)
	flagTok = regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)`)
	// repoPath is a span that begins with a path into the tree; goRun
	// finds the path a fenced or backticked `go run` line builds.
	repoPath = regexp.MustCompile(`^((?:internal|cmd|examples|benchmark)/\S*)`)
	goRun    = regexp.MustCompile(`\bgo run \./(\S+)`)
)

// TestDocsResolve checks that the documents name only what exists: each
// backticked pkg.Ident or pkg.Type.Member of a repository package resolves
// in that package's non-test sources (a Test, Benchmark or Fuzz function
// in its test files), each bare Test, Benchmark or Fuzz name (or name*
// prefix) is a test function somewhere in the tree, each flag a document
// quotes or passes to one of the commands is defined by one, and each
// metric-shaped name is a BENCHMARK.json metric, and each path a document
// names (backticked under internal/, cmd/, examples/ or benchmark/, or
// built by go run) exists.
func TestDocsResolve(t *testing.T) {
	pkgs := repoPackages(t)
	tests := treeTests(t)
	flags := commandFlags(t)
	metrics := benchmarkMetrics(t)
	checkFlags := func(where, line string) {
		m := command.FindStringSubmatch(line)
		if m == nil {
			return
		}
		args := m[2]
		if i := strings.IndexAny(args, "|;>&#"); i >= 0 {
			args = args[:i]
		}
		for _, f := range flagTok.FindAllStringSubmatch(args, -1) {
			if flags[f[1]] == nil {
				t.Errorf("%s: %q passes -%s, which no command defines", where, strings.TrimSpace(line), f[1])
			}
		}
	}
	checkPath := func(where, line string) {
		var paths []string
		if m := repoPath.FindStringSubmatch(line); m != nil {
			paths = append(paths, m[1])
		}
		if m := goRun.FindStringSubmatch(line); m != nil {
			paths = append(paths, m[1])
		}
		for _, p := range paths {
			for _, alt := range expandBraces(p) {
				if m, _ := filepath.Glob(strings.TrimSuffix(alt, "/")); len(m) == 0 {
					t.Errorf("%s: %s does not exist", where, alt)
				}
			}
		}
	}
	for _, doc := range docs {
		fenced := false
		for i, line := range strings.Split(readFile(t, doc), "\n") {
			where := doc + ":" + strconv.Itoa(i+1)
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				checkFlags(where, line)
				checkPath(where, strings.TrimSpace(line))
				continue
			}
			for _, m := range backticked.FindAllStringSubmatch(line, -1) {
				span := m[1]
				checkFlags(where, span)
				checkPath(where, span)
				if f := flagSpan.FindStringSubmatch(span); f != nil && flags[f[1]] == nil {
					t.Errorf("%s: `%s` quotes -%s, which no command defines", where, span, f[1])
				}
				if b := bareTest.FindStringSubmatch(span); b != nil {
					if !tests.has(b[1], b[2] == "*") {
						t.Errorf("%s: `%s` names no test function in the tree", where, span)
					}
					continue
				}
				if metric.MatchString(span) {
					if !metrics[span] {
						t.Errorf("%s: `%s` is not a BENCHMARK.json metric", where, span)
					}
					continue
				}
				q := qualified.FindStringSubmatch(span)
				if q == nil || pkgs[q[1]] == nil {
					continue
				}
				if !pkgs.resolve(q[1], q[2], q[3]) {
					t.Errorf("%s: `%s` does not resolve in package %s", where, span, q[1])
				}
			}
		}
	}
}

// expandBraces spells out the one {a,b,...} alternation of p, if any.
func expandBraces(p string) []string {
	i, j := strings.Index(p, "{"), strings.Index(p, "}")
	if i < 0 || j < i {
		return []string{p}
	}
	var out []string
	for _, alt := range strings.Split(p[i+1:j], ",") {
		out = append(out, p[:i]+alt+p[j+1:])
	}
	return out
}

// pkgDecls is one package's top-level names and, per type, its methods,
// fields and interface methods. tests holds the test functions of its test
// files.
type pkgDecls struct {
	names   map[string]bool
	members map[string]map[string]bool
	tests   map[string]bool
}

// repoPackages maps each non-main package name under internal/ and
// benchmark/ to its declarations, merged across packages sharing a name.
type repoPkgs map[string]*pkgDecls

func repoPackages(t *testing.T) repoPkgs {
	t.Helper()
	pkgs := repoPkgs{}
	for _, root := range []string{"internal", "benchmark"} {
		walkDirs(t, root, skipDir, func(p string) {
			for _, f := range parseDir(t, p) {
				if f.Name.Name != "main" {
					pkgs.add(f)
				}
			}
			for _, f := range parseTests(t, p) {
				pd := pkgs[strings.TrimSuffix(f.Name.Name, "_test")]
				for _, decl := range f.Decls {
					if fn, ok := decl.(*ast.FuncDecl); ok && pd != nil && fn.Recv == nil && testFunc.MatchString(fn.Name.Name) {
						pd.tests[fn.Name.Name] = true
					}
				}
			}
		})
	}
	return pkgs
}

func (r repoPkgs) add(f *ast.File) {
	pd := r[f.Name.Name]
	if pd == nil {
		pd = &pkgDecls{names: map[string]bool{}, members: map[string]map[string]bool{}, tests: map[string]bool{}}
		r[f.Name.Name] = pd
	}
	member := func(typ, name string) {
		if pd.members[typ] == nil {
			pd.members[typ] = map[string]bool{}
		}
		pd.members[typ][name] = true
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				pd.names[d.Name.Name] = true
				continue
			}
			if typ := recvType(d); typ != "" {
				member(typ, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						pd.names[n.Name] = true
					}
				case *ast.TypeSpec:
					pd.names[s.Name.Name] = true
					var fields *ast.FieldList
					switch ty := s.Type.(type) {
					case *ast.StructType:
						fields = ty.Fields
					case *ast.InterfaceType:
						fields = ty.Methods
					}
					if fields == nil {
						continue
					}
					for _, fld := range fields.List {
						for _, n := range fld.Names {
							member(s.Name.Name, n.Name)
						}
					}
				}
			}
		}
	}
}

// resolve reports whether pkg.name (and, when member is set,
// pkg.name.member) is declared.
func (r repoPkgs) resolve(pkg, name, member string) bool {
	if member == "" && testFunc.MatchString(name) {
		return r[pkg].tests[name]
	}
	pd := r[pkg]
	return pd != nil && pd.names[name] && (member == "" || pd.members[name][member])
}

func benchmarkMetrics(t *testing.T) map[string]bool {
	t.Helper()
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal([]byte(readFile(t, "BENCHMARK.json")), &spec); err != nil {
		t.Fatal(err)
	}
	metrics := map[string]bool{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		metrics[m.Name] = true
	}
	return metrics
}

// testNames is the set of Test, Benchmark and Fuzz functions in the tree.
type testNames map[string]bool

// treeTests collects the test functions of every _test.go file in the
// tree, the root package and commands included.
func treeTests(t *testing.T) testNames {
	t.Helper()
	names := testNames{}
	walkDirs(t, ".", skipDir, func(p string) {
		for _, f := range parseTests(t, p) {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testFunc.MatchString(fn.Name.Name) {
					names[fn.Name.Name] = true
				}
			}
		}
	})
	return names
}

// has reports whether name is a test function or, with prefix set, begins
// one.
func (n testNames) has(name string, prefix bool) bool {
	if !prefix {
		return n[name]
	}
	for fn := range n {
		if strings.HasPrefix(fn, name) {
			return true
		}
	}
	return false
}

// walkDirs calls fn on root and on every directory below it that skip does
// not prune.
func walkDirs(t *testing.T, root string, skip func(dir string) bool, fn func(dir string)) {
	t.Helper()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if skip(p) {
			return filepath.SkipDir
		}
		fn(p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// skipDir reports the directories no walk enters: git metadata, fixture
// trees, and the benchmark's build cache (benchmark/run.sh).
func skipDir(p string) bool {
	base := filepath.Base(p)
	return base == ".git" || base == "testdata" || p == filepath.Join("benchmark", "out")
}

var testFunc = regexp.MustCompile(`^(Test|Benchmark|Fuzz)[A-Z_]`)

// parseDir parses the non-test Go files of one directory.
func parseDir(t *testing.T, dir string) []*ast.File {
	return parseGo(t, dir, false)
}

// parseTests parses the _test.go files of one directory.
func parseTests(t *testing.T, dir string) []*ast.File {
	return parseGo(t, dir, true)
}

func parseGo(t *testing.T, dir string, tests bool) []*ast.File {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") != tests {
			continue
		}
		files = append(files, parseFile(t, filepath.Join(dir, n), nil))
	}
	return files
}

// fset positions every file the tests in this package parse.
var fset = token.NewFileSet()

// parseFile parses one Go file, comments included: src when it is not
// nil, else the file at path.
func parseFile(t *testing.T, path string, src any) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// recvType names the type a method is declared on, pointer or not; it is
// empty for a function.
func recvType(d *ast.FuncDecl) string {
	if d.Recv != nil {
		recv := d.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if id, ok := recv.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

func isSelector(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg && sel.Sel.Name == name
}

func readFile(t *testing.T, p string) string {
	t.Helper()
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func appendOnce(s []string, v string) []string {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

func sortedKeys(m map[string][]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
