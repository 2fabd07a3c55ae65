// Package analysistest runs a genaxvet analyzer over golden testdata
// packages and checks its diagnostics against // want comments, mirroring
// golang.org/x/tools/go/analysis/analysistest closely enough that the
// testdata layout (testdata/src/<import/path>/*.go) and expectation
// syntax (`// want "regexp"`) transfer unchanged.
//
// A // want comment names one or more quoted regular expressions; every
// diagnostic reported on that comment's line must match one of them, and
// every expectation must be consumed by a diagnostic. A clean file — an
// annotated hot-path function with no violations, say — simply carries no
// want comments and fails the test if anything is reported.
package analysistest

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"genax/internal/lint/analysis"
	"genax/internal/lint/load"
)

// TestData returns the absolute path of the calling package's testdata
// directory.
func TestData() string {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return dir
}

// expectation is one parsed // want regexp with its location.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

// Run loads each package from dir/src/<path>, applies the analyzer, and
// compares diagnostics against the // want expectations in the sources.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	for _, path := range pkgPaths {
		runOne(t, dir, a, path)
	}
}

func runOne(t *testing.T, dir string, a *analysis.Analyzer, pkgPath string) {
	t.Helper()
	srcDir := filepath.Join(dir, "src", filepath.FromSlash(pkgPath))
	names, err := filepath.Glob(filepath.Join(srcDir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("%s: no testdata sources in %s (%v)", pkgPath, srcDir, err)
	}
	sort.Strings(names)

	fset := token.NewFileSet()
	files, err := load.ParseFiles(fset, srcDir, names, nil)
	if err != nil {
		t.Fatalf("%s: %v", pkgPath, err)
	}

	// Resolve the testdata package's imports (standard library only)
	// through real export data.
	var imports []string
	for _, f := range files {
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err == nil && p != "unsafe" {
				imports = append(imports, p)
			}
		}
	}
	exports, err := load.ExportData(".", imports...)
	if err != nil {
		t.Fatalf("%s: %v", pkgPath, err)
	}
	imp := load.NewImporter(fset, func(path string) (string, bool) {
		f, ok := exports[path]
		return f, ok
	})
	pkg, err := load.CheckFiles(fset, imp, pkgPath, files)
	if err != nil {
		t.Fatalf("%s: %v", pkgPath, err)
	}

	expects := parseExpectations(t, fset, pkg)
	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if _, err := a.Run(pass); err != nil {
		t.Fatalf("%s: analyzer %s: %v", pkgPath, a.Name, err)
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if !claim(expects, filepath.Base(pos.Filename), pos.Line, d.Message) {
			t.Errorf("%s:%d: unexpected diagnostic: %s", filepath.Base(pos.Filename), pos.Line, d.Message)
		}
	}
	for _, e := range expects {
		if !e.used {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.re)
		}
	}
}

// claim marks the first unused expectation at (file, line) whose regexp
// matches msg.
func claim(expects []*expectation, file string, line int, msg string) bool {
	for _, e := range expects {
		if !e.used && e.file == file && e.line == line && e.re.MatchString(msg) {
			e.used = true
			return true
		}
	}
	return false
}

// parseExpectations extracts // want comments from the package sources.
func parseExpectations(t *testing.T, fset *token.FileSet, pkg *load.Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "want ")
				if !strings.HasPrefix(c.Text, "//") || idx < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				res, err := parseWant(c.Text[idx+len("want "):])
				if err != nil {
					t.Fatalf("%s:%d: bad want comment: %v", pos.Filename, pos.Line, err)
				}
				for _, re := range res {
					out = append(out, &expectation{file: filepath.Base(pos.Filename), line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}

// parseWant parses the sequence of quoted regexps after "want".
func parseWant(s string) ([]*regexp.Regexp, error) {
	var out []*regexp.Regexp
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			break
		}
		var lit string
		switch s[0] {
		case '"':
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '\\' {
					i++
					continue
				}
				if s[i] == '"' {
					end = i
					break
				}
			}
			if end < 0 {
				return nil, fmt.Errorf("unterminated %q", s)
			}
			var err error
			lit, err = strconv.Unquote(s[:end+1])
			if err != nil {
				return nil, err
			}
			s = s[end+1:]
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated %q", s)
			}
			lit = s[1 : end+1]
			s = s[end+2:]
		default:
			return nil, fmt.Errorf("expected quoted regexp, found %q", s)
		}
		re, err := regexp.Compile(lit)
		if err != nil {
			return nil, err
		}
		out = append(out, re)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no regexps")
	}
	return out, nil
}
