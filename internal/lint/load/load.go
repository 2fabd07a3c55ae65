// Package load type-checks Go packages for the genaxvet analyzers without
// depending on golang.org/x/tools/go/packages (the build environment is
// hermetic). It shells out to `go list -export -deps -json`, which works
// offline: the go tool compiles dependencies into the build cache and
// reports per-package export-data files, which the standard library's gc
// importer can read through a lookup function. Target packages are then
// parsed from source and type-checked against that export data.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	// ImportPath is the package path; test variants keep the path of the
	// package under test, external test packages carry a "_test" suffix.
	ImportPath string
	Name       string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	// TestVariant marks the in-package test build (GoFiles plus
	// TestGoFiles) and external _test packages. Drivers typically restrict
	// diagnostics from a variant to its _test.go files, since the non-test
	// files were already analyzed in the base package.
	TestVariant bool
}

// Config parametrizes a load.
type Config struct {
	// Dir is the working directory for the go tool (the module root or any
	// directory inside it). Empty means the current directory.
	Dir string
	// Tests additionally loads each matched package's test variants.
	Tests bool
	// Overlay replaces the contents of the named files (absolute paths)
	// when the matched packages are parsed. Dependencies still come from
	// the go tool's export data, so an overlay may change only the bodies
	// and unexported API of the packages under analysis.
	Overlay map[string][]byte
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath   string
	Name         string
	Dir          string
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	TestImports  []string
	XTestImports []string
	DepOnly      bool
}

const listFields = "-json=ImportPath,Name,Dir,Export,GoFiles,TestGoFiles,XTestGoFiles,TestImports,XTestImports,DepOnly"

// goList runs `go list` with the given extra arguments and decodes the
// JSON package stream.
func goList(dir string, args ...string) ([]*listPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-export", listFields}, args...)...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", args, err, stderr.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", args, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Load lists, parses, and type-checks the packages matched by patterns.
func (c *Config) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	listed, err := goList(c.Dir, append([]string{"-deps", "--"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	var targets []*listPkg
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	if c.Tests {
		// Test files may import packages (testing, etc.) that the non-test
		// build graph does not reach; list those separately for their
		// export data. In-module test dependencies matched by the original
		// patterns are already present.
		missing := make(map[string]bool)
		for _, p := range targets {
			for _, imp := range append(append([]string{}, p.TestImports...), p.XTestImports...) {
				if _, ok := exports[imp]; !ok && imp != "C" && imp != "unsafe" {
					missing[imp] = true
				}
			}
		}
		if len(missing) > 0 {
			extra := make([]string, 0, len(missing))
			for imp := range missing {
				extra = append(extra, imp)
			}
			sort.Strings(extra)
			more, err := goList(c.Dir, append([]string{"-deps", "--"}, extra...)...)
			if err != nil {
				return nil, err
			}
			for _, p := range more {
				if p.Export != "" {
					exports[p.ImportPath] = p.Export
				}
			}
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := NewImporter(fset, func(path string) (string, bool) {
		f, ok := exports[path]
		return f, ok
	})
	var out []*Package
	for _, t := range targets {
		base, err := check(fset, imp, t.ImportPath, t.Name, t.Dir, t.GoFiles, false, c.Overlay)
		if err != nil {
			return nil, err
		}
		out = append(out, base)
		if !c.Tests {
			continue
		}
		if len(t.TestGoFiles) > 0 {
			files := append(append([]string{}, t.GoFiles...), t.TestGoFiles...)
			tv, err := check(fset, imp, t.ImportPath, t.Name, t.Dir, files, true, c.Overlay)
			if err != nil {
				return nil, err
			}
			out = append(out, tv)
		}
		if len(t.XTestGoFiles) > 0 {
			xv, err := check(fset, imp, t.ImportPath+"_test", t.Name+"_test", t.Dir, t.XTestGoFiles, true, c.Overlay)
			if err != nil {
				return nil, err
			}
			out = append(out, xv)
		}
	}
	return out, nil
}

// ExportData maps the given import paths — and everything they depend on —
// to their export-data files, compiling them into the build cache as
// needed. The analysistest harness uses it to type-check testdata packages
// against the real standard library.
func ExportData(dir string, importPaths ...string) (map[string]string, error) {
	exports := make(map[string]string)
	if len(importPaths) == 0 {
		return exports, nil
	}
	pkgs, err := goList(dir, append([]string{"-deps", "--"}, importPaths...)...)
	if err != nil {
		return nil, err
	}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// NewImporter builds a types.Importer that resolves import paths through
// export-data files named by lookup (as produced by `go list -export`).
func NewImporter(fset *token.FileSet, lookup func(path string) (string, bool)) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := lookup(path)
		if !ok {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(f)
	})
}

// NewInfo allocates the full set of types.Info maps the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// ParseFiles parses the named files (relative to dir) into fset, keeping
// comments so analyzers can see directives. A file named in overlay is
// parsed from the overlay's contents instead of the disk.
func ParseFiles(fset *token.FileSet, dir string, names []string, overlay map[string][]byte) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		var src any // nil: read path from disk
		if b, ok := overlay[path]; ok {
			src = b
		}
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// CheckFiles type-checks already-parsed files as the package named by
// path, resolving imports through imp.
func CheckFiles(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) (*Package, error) {
	info := NewInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: type-checking %s: %v", path, err)
	}
	return &Package{
		ImportPath: path,
		Name:       tpkg.Name(),
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// check parses and type-checks one package build.
func check(fset *token.FileSet, imp types.Importer, path, name, dir string, fileNames []string, testVariant bool, overlay map[string][]byte) (*Package, error) {
	files, err := ParseFiles(fset, dir, fileNames, overlay)
	if err != nil {
		return nil, err
	}
	pkg, err := CheckFiles(fset, imp, path, files)
	if err != nil {
		return nil, err
	}
	pkg.Name = name
	pkg.Dir = dir
	pkg.TestVariant = testVariant
	return pkg, nil
}
