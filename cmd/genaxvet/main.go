// Command genaxvet is the GenAx-specific static analysis suite: a
// multichecker over the analyzers in internal/lint that enforce, at
// compile time, the invariants the runtime tests only sample —
//
//	hotpath        //genax:hotpath functions contain no heap-allocating
//	               constructs (defer, closures, make/new, map/slice
//	               literals, fmt/strings calls, interface boxing)
//	determinism    the deterministic kernel packages (core, seed, silla,
//	               sillax, extend, align, bitsilla, chain) contain
//	               no map iteration, wall-clock reads, unseeded math/rand,
//	               or multi-channel selects
//	invariants     no silently dropped error results; exported kernel entry
//	               points bound-check their edit-distance / segment-index
//	               parameters
//	borrow         slices returned by //genax:borrowed functions never
//	               escape or mutate their owner's storage (no heap stores,
//	               goroutine/closure captures, appends, channel sends, or
//	               unannotated returns)
//	stagecontract  internal/core and internal/serve keep channels
//	               bounded and goroutines WaitGroup-tracked or
//	               context-bounded
//
// Every rule is one that an edit of today's tree can break:
// TestEveryRuleFiresOnTheTree patches the real packages one rule at a time
// and checks that the rule reports.
//
// Usage:
//
//	go run ./cmd/genaxvet ./...
//	go run ./cmd/genaxvet -tests=false ./internal/seed/...
//	go run ./cmd/genaxvet -json ./... > findings.json
//
// Exit status is 1 when any diagnostic is reported, 2 on driver errors.
// With -json, findings are emitted as a JSON array of
// {file,line,col,analyzer,message} objects on stdout (empty array when
// clean) so CI can annotate. CI runs it as a required gate; see
// DESIGN.md ("Static analysis & enforced invariants") for the annotation
// contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"genax/internal/lint/analysis"
	"genax/internal/lint/borrow"
	"genax/internal/lint/determinism"
	"genax/internal/lint/hotpath"
	"genax/internal/lint/invariants"
	"genax/internal/lint/load"
	"genax/internal/lint/stagecontract"
)

var analyzers = []*analysis.Analyzer{
	hotpath.Analyzer,
	determinism.Analyzer,
	invariants.Analyzer,
	borrow.Analyzer,
	stagecontract.Analyzer,
}

func main() {
	tests := flag.Bool("tests", true, "also analyze test files")
	jsonOut := flag.Bool("json", false, "emit findings as JSON ({file,line,col,analyzer,message}) on stdout")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: genaxvet [-tests=false] [-json] [packages]\n\nanalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cfg := &load.Config{Tests: *tests}
	pkgs, err := cfg.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "genaxvet: %v\n", err)
		os.Exit(2)
	}
	findings, err := vet(pkgs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "genaxvet: %v\n", err)
		os.Exit(2)
	}
	cwd, _ := os.Getwd()
	relName := func(name string) string {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
				return rel
			}
		}
		return name
	}

	type jsonFinding struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	seen := make(map[string]bool)
	jsonFindings := []jsonFinding{}
	n := 0
	for _, f := range findings {
		name := relName(f.pos.Filename)
		line := fmt.Sprintf("%s:%d:%d: %s (%s)", name, f.pos.Line, f.pos.Column, f.message, f.analyzer)
		if seen[line] {
			continue
		}
		seen[line] = true
		if *jsonOut {
			jsonFindings = append(jsonFindings, jsonFinding{
				File: name, Line: f.pos.Line, Col: f.pos.Column,
				Analyzer: f.analyzer, Message: f.message,
			})
		} else {
			fmt.Println(line)
		}
		n++
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonFindings); err != nil {
			fmt.Fprintf(os.Stderr, "genaxvet: %v\n", err)
			os.Exit(2)
		}
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "genaxvet: %d finding(s)\n", n)
		os.Exit(1)
	}
}

// finding is one diagnostic with its resolved position.
type finding struct {
	pos      token.Position
	message  string
	analyzer string
}

// vet runs every analyzer over pkgs and returns the findings sorted by
// position.
func vet(pkgs []*load.Package) ([]finding, error) {
	// Pre-pass: register every //genax:borrowed annotation before any
	// package is analyzed, so the borrow analyzer resolves cross-package
	// calls (core using seed.Lookup) regardless of analysis order.
	for _, pkg := range pkgs {
		borrow.Collect(pkg.Info, pkg.Files)
	}
	var findings []finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			pass.Report = func(d analysis.Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				// A test variant re-checks the non-test files the base
				// build already covered; only its _test.go findings are new.
				if pkg.TestVariant && !strings.HasSuffix(pos.Filename, "_test.go") {
					return
				}
				findings = append(findings, finding{pos: pos, message: d.Message, analyzer: a.Name})
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", pkg.ImportPath, a.Name, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		return a.message < b.message
	})
	return findings, nil
}
