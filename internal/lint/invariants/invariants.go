// Package invariants implements the genaxvet analyzer for two repo-wide
// API-robustness rules.
//
// Dropped errors: a call whose result set includes an error must not stand
// alone as an expression statement. Acknowledged discards (assigning to
// the blank identifier) and deferred cleanup calls are allowed, as are
// calls that cannot meaningfully fail: fmt printing to stdout/stderr and
// writes into strings.Builder / bytes.Buffer.
//
// Bound checks: exported entry points of the kernel packages that accept
// an edit-distance or segment-index parameter (k, kmer, margin, seg, ...)
// must bound-check it in their own body — a comparison against the
// parameter — before handing it to the machines. The SillaX grids are
// sized (K+1)², so an unchecked K reaching a constructor or an unchecked
// segment index reaching a table turns into a huge allocation or an
// out-of-range panic deep inside a lane. Test files are exempt from both
// rules (the determinism analyzer is the one that covers tests).
package invariants

import (
	"go/ast"
	"go/types"
	"strings"

	"genax/internal/lint/analysis"
)

// kernelPackages are the packages whose exported entry points must
// bound-check their edit-distance / segment-index parameters.
var kernelPackages = map[string]bool{
	"genax/internal/align":   true,
	"genax/internal/core":    true,
	"genax/internal/extend":  true,
	"genax/internal/indexio": true,
	"genax/internal/seed":    true,
	"genax/internal/silla":   true,
	"genax/internal/sillax":  true,
}

// watchedParams are the integer parameter names that denote an edit bound
// or a segment/tile index at kernel entry points.
var watchedParams = map[string]bool{
	"k": true, "K": true, "kmer": true, "kmerLen": true,
	"margin": true, "seg": true, "segIdx": true, "segLen": true,
}

// Analyzer flags dropped errors and unchecked kernel bounds.
var Analyzer = &analysis.Analyzer{
	Name: "invariants",
	Doc:  "flag dropped error results and kernel entry points missing bound checks",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	errType := types.Universe.Lookup("error").Type()
	kernel := kernelPackages[pass.Pkg.Path()]
	for _, f := range pass.Files {
		if name := pass.Fset.Position(f.Pos()).Filename; strings.HasSuffix(name, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDroppedError(pass, errType, call)
				}
			case *ast.FuncDecl:
				if kernel {
					checkBounds(pass, n)
				}
			}
			return true
		})
	}
	return nil, nil
}

// returnsError reports whether the call's result set includes an error.
func returnsError(pass *analysis.Pass, errType types.Type, call *ast.CallExpr) bool {
	t := pass.TypeOf(call)
	if t == nil {
		return false
	}
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if types.Identical(tuple.At(i).Type(), errType) {
				return true
			}
		}
		return false
	}
	return types.Identical(t, errType)
}

// checkDroppedError flags expression-statement calls that silently drop an
// error result.
func checkDroppedError(pass *analysis.Pass, errType types.Type, call *ast.CallExpr) {
	if !returnsError(pass, errType, call) {
		return
	}
	fn := calleeFunc(pass, call)
	if fn != nil && exemptCall(pass, fn, call) {
		return
	}
	name := "call"
	if fn != nil {
		name = fn.FullName()
	}
	pass.Reportf(call.Pos(), "error result of %s is dropped: handle it or discard it explicitly with _", name)
}

// calleeFunc resolves the statically-known callee of call, if any.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// exemptCall lists calls whose error can be dropped without losing
// information.
func exemptCall(pass *analysis.Pass, fn *types.Func, call *ast.CallExpr) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		// strings.Builder and bytes.Buffer writes are documented to never
		// return a non-nil error.
		return infallibleWriter(sig.Recv().Type())
	}
	if pkg.Path() != "fmt" {
		return false
	}
	switch fn.Name() {
	case "Print", "Printf", "Println":
		return true // stdout diagnostics: nothing sensible to do on failure
	case "Fprint", "Fprintf", "Fprintln":
		if len(call.Args) == 0 {
			return false
		}
		if infallibleWriter(pass.TypeOf(call.Args[0])) {
			return true
		}
		// Writes to the standard streams are best-effort diagnostics.
		if sel, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == "os" &&
				(sel.Sel.Name == "Stderr" || sel.Sel.Name == "Stdout") {
				if pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok && pkgName.Imported().Path() == "os" {
					return true
				}
			}
		}
	}
	return false
}

// infallibleWriter reports whether t is *strings.Builder or *bytes.Buffer.
func infallibleWriter(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	full := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	return full == "strings.Builder" || full == "bytes.Buffer"
}

// checkBounds enforces the bound-check rule on one function declaration.
func checkBounds(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Body == nil || !fd.Name.IsExported() || fd.Type.Params == nil {
		return
	}
	if !isEntryPoint(pass, fd) {
		return
	}
	for _, field := range fd.Type.Params.List {
		if !isIntType(pass.TypeOf(field.Type)) {
			continue
		}
		for _, nameID := range field.Names {
			if !watchedParams[nameID.Name] {
				continue
			}
			obj := pass.TypesInfo.Defs[nameID]
			if obj == nil || !hasComparison(pass, fd.Body, obj) {
				pass.Reportf(nameID.Pos(), "exported kernel entry point %s does not bound-check parameter %s before using it", fd.Name.Name, nameID.Name)
			}
		}
	}
}

// isEntryPoint limits the bound-check rule to functions that actually
// drive kernel machinery: they consume a sequence (slice parameter) or
// construct something fallible (pointer or error result). Pure arithmetic
// helpers like NumStates3D(k) stay exempt.
func isEntryPoint(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	for _, field := range fd.Type.Params.List {
		if t := pass.TypeOf(field.Type); t != nil {
			if _, ok := t.Underlying().(*types.Slice); ok {
				return true
			}
		}
	}
	if fd.Type.Results == nil {
		return false
	}
	errType := types.Universe.Lookup("error").Type()
	for _, field := range fd.Type.Results.List {
		t := pass.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if _, ok := t.(*types.Pointer); ok {
			return true
		}
		if types.Identical(t, errType) {
			return true
		}
	}
	return false
}

// hasComparison reports whether body contains an ordered comparison with
// the parameter object as an operand.
func hasComparison(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op.String() {
		case "<", ">", "<=", ">=":
		default:
			return true
		}
		for _, side := range []ast.Expr{be.X, be.Y} {
			if id, ok := ast.Unparen(side).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				found = true
			}
		}
		return true
	})
	return found
}

// isIntType reports whether t is a basic integer type.
func isIntType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
