// Package stagecontract implements the genaxvet analyzer that enforces
// the channel and goroutine discipline of genax/internal/core and
// genax/internal/serve.
//
// Their memory bounds and clean shutdown rest on two structural rules
// (DESIGN.md §7, §10, §13):
//
//  1. Bounded channels. Every make(chan …) must state a capacity; the
//     memory ceiling is the sum of those bounds. The one exception is
//     chan struct{}: zero-size signal channels that are closed for
//     broadcast carry no data and impose no buffer.
//  2. Accounted goroutines. Every go statement must be either tracked by
//     a sync.WaitGroup — the spawned body's first statement is
//     `defer wg.Done()`, so whoever waits (a window joining its lanes, a
//     stream its executing window, a server its dispatchers) can see it —
//     or handed a context.Context, making it cancel-bounded. The aligner
//     is deliberately select-free (the determinism analyzer forbids
//     multi-way selects), so "respects the context" means WaitGroup
//     accounting or explicit ctx, not a select loop.
//
// In genax/internal/serve the admission queues and the waiter channels
// are bounded channels, and the per-genome dispatcher goroutines are
// WaitGroup-tracked so StartDrain can sequence shutdown. The registry
// loads a genome inline, on the dispatcher that needs it, and starts no
// goroutine of its own. The analyzer runs over both packages' non-test
// files: tests legitimately build unbuffered admission channels to
// exercise backpressure.
package stagecontract

import (
	"go/ast"
	"go/types"
	"strings"

	"genax/internal/lint/analysis"
)

// Packages holds the import paths the contract applies to: the aligner's
// fused lanes and stream and the serving layer built on top of them, whose
// admission queue and dispatcher follow the same bounded-channel /
// accounted-goroutine discipline (DESIGN.md §13).
var Packages = map[string]bool{
	"genax/internal/core":  true,
	"genax/internal/serve": true,
}

// Analyzer enforces the bounded-channel / accounted-goroutine contract.
var Analyzer = &analysis.Analyzer{
	Name: "stagecontract",
	Doc:  "enforce bounded channels and accounted goroutines in internal/core and internal/serve",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	if !Packages[strings.TrimSuffix(pass.Pkg.Path(), "_test")] {
		return nil, nil
	}
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkMakeChan(pass, n)
		case *ast.GoStmt:
			checkGo(pass, fd.Name.Name, n)
		}
		return true
	})
}

// checkMakeChan flags make(chan T) without an explicit capacity, except
// struct{} signal channels.
func checkMakeChan(pass *analysis.Pass, call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return
	}
	if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
		return
	}
	if len(call.Args) == 0 {
		return
	}
	t := pass.TypeOf(call.Args[0])
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return
	}
	if len(call.Args) >= 2 {
		return // capacity stated; the bound is explicit
	}
	if st, ok := ch.Elem().Underlying().(*types.Struct); ok && st.NumFields() == 0 {
		return // chan struct{}: close-broadcast signal, carries no data
	}
	pass.Reportf(call.Pos(), "unbounded make(chan %s): every data channel must state its capacity (the stage memory bound is the sum of channel bounds)", ch.Elem())
}

// checkGo flags goroutines that are neither WaitGroup-tracked nor
// context-bounded.
func checkGo(pass *analysis.Pass, name string, g *ast.GoStmt) {
	if hasCtxArg(pass, g.Call) {
		return
	}
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		if firstStmtIsDeferDone(pass, fun.Body) || usesContext(pass, fun.Body) {
			return
		}
	default:
		if decl := localDecl(pass, fun); decl != nil && decl.Body != nil && firstStmtIsDeferDone(pass, decl.Body) {
			return
		}
	}
	pass.Reportf(g.Pos(), "unaccounted goroutine in %s: start with `defer wg.Done()` (WaitGroup-tracked for the shutdown cascade) or pass it the stage context", name)
}

// hasCtxArg reports whether any call argument is a context.Context.
func hasCtxArg(pass *analysis.Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if isContext(pass.TypeOf(arg)) {
			return true
		}
	}
	return false
}

// usesContext reports whether the body references any context.Context
// value (a captured ctx bounds the goroutine's work).
func usesContext(pass *analysis.Pass, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil && isContext(obj.Type()) {
				found = true
			}
		}
		return true
	})
	return found
}

func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// firstStmtIsDeferDone reports whether the body's first statement is
// `defer x.Done()` with x a sync.WaitGroup.
func firstStmtIsDeferDone(pass *analysis.Pass, body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	df, ok := body.List[0].(*ast.DeferStmt)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(df.Call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	t := pass.TypeOf(sel.X)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// localDecl finds the same-package FuncDecl a go statement's function
// expression (f or x.f) names, or nil.
func localDecl(pass *analysis.Pass, fun ast.Expr) *ast.FuncDecl {
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		fun = sel.Sel
	}
	id, ok := fun.(*ast.Ident)
	if !ok || pass.TypesInfo.Uses[id] == nil {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && pass.TypesInfo.Defs[fd.Name] == pass.TypesInfo.Uses[id] {
				return fd
			}
		}
	}
	return nil
}
