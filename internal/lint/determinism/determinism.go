// Package determinism implements the genaxvet analyzer that keeps the
// declared-deterministic packages byte-reproducible.
//
// AlignBatch guarantees byte-identical output for any worker count, and
// the Fig 13/16 experiment tables are diffed against golden numbers. Both
// properties die quietly if nondeterminism leaks into the kernel packages,
// so the packages listed in Packages are declared deterministic and this
// analyzer forbids the usual entropy sources inside them (test files
// included — the determinism tests themselves must be reproducible):
//
//   - ranging over a map (iteration order is randomized per run)
//   - time.Now (and friends that read the wall clock)
//   - package-level math/rand functions (globally, randomly seeded);
//     explicitly seeded generators via rand.New(rand.NewSource(n)) stay
//     legal, as all simulation inputs are built that way
//   - select over multiple channels (the runtime picks a ready case
//     pseudo-randomly)
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"genax/internal/lint/analysis"
)

// Packages are the import paths declared deterministic. DESIGN.md
// documents the contract; extend the set when a new kernel package lands.
var Packages = map[string]bool{
	"genax/internal/align":    true,
	"genax/internal/bitsilla": true,
	"genax/internal/chain":    true,
	"genax/internal/core":     true,
	"genax/internal/extend":   true,
	"genax/internal/seed":     true,
	"genax/internal/silla":    true,
	"genax/internal/sillax":   true,
}

// seededConstructors are math/rand package-level functions that build
// explicitly seeded generators rather than drawing from the global source.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// clockFuncs are time package functions that read the wall clock.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
}

// Analyzer forbids nondeterministic constructs in the declared packages.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "forbid nondeterministic constructs in the deterministic kernel packages",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	// External test packages ("p_test") share the determinism contract of
	// the package they test.
	path := strings.TrimSuffix(pass.Pkg.Path(), "_test")
	if !Packages[path] {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if t := pass.TypeOf(n.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						pass.Reportf(n.Pos(), "range over map %s in deterministic package %s: iteration order is randomized, iterate sorted keys instead", t, path)
					}
				}
			case *ast.SelectStmt:
				ready := 0
				for _, clause := range n.Body.List {
					if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
						ready++
					}
				}
				if ready >= 2 {
					pass.Reportf(n.Pos(), "select over %d channels in deterministic package %s: the runtime picks a ready case pseudo-randomly", ready, path)
				}
			case *ast.CallExpr:
				checkCall(pass, path, n)
			}
			return true
		})
	}
	return nil, nil
}

func checkCall(pass *analysis.Pass, path string, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return // methods (e.g. on an explicitly seeded *rand.Rand) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if clockFuncs[fn.Name()] {
			pass.Reportf(call.Pos(), "%s in deterministic package %s: wall-clock reads are not reproducible", fn.FullName(), path)
		}
	case "math/rand", "math/rand/v2":
		if !seededConstructors[fn.Name()] {
			pass.Reportf(call.Pos(), "%s in deterministic package %s: the global generator is unseeded; use rand.New(rand.NewSource(seed))", fn.FullName(), path)
		}
	}
}
