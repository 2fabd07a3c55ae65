// Package stagecontract implements the genaxvet analyzer that enforces
// the channel and goroutine discipline of genax/internal/pipeline and
// genax/internal/serve.
//
// Their memory bounds and clean shutdown rest on three structural rules
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
//     or handed a context.Context, making it cancel-bounded. The pipeline
//     is deliberately select-free (the determinism analyzer forbids
//     multi-way selects), so "respects the context" means WaitGroup
//     accounting or explicit ctx, not a select loop.
//  3. Credit-traceable sends. A send of a pointer-typed element is a
//     hand-off of owned storage; its value must be traceable to a credit
//     acquire — received from a channel, passed in by the caller who
//     already holds it, or freshly minted in the same function that makes
//     the channel (a constructor seeding a credit pool). Anything else
//     fabricates capacity the bound does not account for. (The pipeline's
//     fused lanes never send a pointer — a batch stays in its lane — so
//     today this rule bites in the serving layer.)
//
// In genax/internal/serve the admission queue, waiter channels, and
// registry build slots are all bounded channels, the dispatcher and build
// goroutines are WaitGroup-tracked so StartDrain can sequence shutdown,
// and request hand-offs into the intake queue follow the ownership rule.
// The analyzer runs over both packages' non-test files: tests
// legitimately build unbuffered admission channels to exercise
// backpressure.
package stagecontract

import (
	"go/ast"
	"go/types"
	"strings"

	"genax/internal/lint/analysis"
	"genax/internal/lint/ssautil"
)

// Packages holds the import paths the contract applies to: the staged
// pipeline itself and the serving layer built on top of it, whose
// admission queue and dispatcher follow the same bounded-channel /
// accounted-goroutine discipline (DESIGN.md §13).
var Packages = map[string]bool{
	"genax/internal/pipeline": true,
	"genax/internal/serve":    true,
}

// Analyzer enforces the bounded-channel / accounted-goroutine /
// credit-traceable-send contract.
var Analyzer = &analysis.Analyzer{
	Name: "stagecontract",
	Doc:  "enforce bounded channels, accounted goroutines, and credit-traceable sends in internal/pipeline and internal/serve",
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
	fn := ssautil.New(pass.TypesInfo, fd)
	mints := chanMints(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkMakeChan(pass, n)
		case *ast.GoStmt:
			checkGo(pass, fd.Name.Name, n)
		case *ast.SendStmt:
			checkSend(pass, fd.Name.Name, fn, mints, n)
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
	pass.Reportf(call.Pos(), "unbounded make(chan %s): every pipeline data channel must state its capacity (the stage memory bound is the sum of channel bounds)", ch.Elem())
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
		if fn := ssautil.Callee(pass.TypesInfo, g.Call); fn != nil {
			if decl := localDecl(pass, fn); decl != nil && decl.Body != nil && firstStmtIsDeferDone(pass, decl.Body) {
				return
			}
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

// localDecl finds the FuncDecl for a same-package function.
func localDecl(pass *analysis.Pass, fn *types.Func) *ast.FuncDecl {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if pass.TypesInfo.Defs[fd.Name] == fn {
				return fd
			}
		}
	}
	return nil
}

// chanMints records, per function body, the rendered form of every
// expression assigned a fresh make(chan …) — the constructor's own
// channels, on which a fresh mint send is the credit pool being seeded.
func chanMints(body *ast.BlockStmt) map[string]bool {
	mints := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "make" {
				continue
			}
			if key := render(as.Lhs[i]); key != "" {
				mints[key] = true
			}
		}
		return true
	})
	return mints
}

// checkSend verifies a pointer-element send is traceable to a credit
// acquire.
func checkSend(pass *analysis.Pass, name string, fn *ssautil.Func, mints map[string]bool, s *ast.SendStmt) {
	ct := pass.TypeOf(s.Chan)
	ch, ok := ct.Underlying().(*types.Chan)
	if !ok {
		return
	}
	if _, isPtr := ch.Elem().Underlying().(*types.Pointer); !isPtr {
		return // value-element channels copy; the credit ledger tracks owned storage
	}
	o := fn.Origins(s.Value)
	if o.Has(ssautil.OriginReceive) || o.Has(ssautil.OriginParam) {
		return // re-circulating an acquired credit, or the caller's own
	}
	if o.Has(ssautil.OriginFresh) && mints[render(s.Chan)] {
		return // constructor seeding the pool it just made
	}
	pass.Reportf(s.Pos(), "send of %s in %s is not traceable to a credit acquire: the value must come from a channel receive, a parameter, or mint into a channel made in the same function", ch.Elem(), name)
}

// render flattens a selector/index chain to a comparison key
// (pl.free, pl.winChs[i] → pl.winChs[]).
func render(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := render(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.IndexExpr:
		base := render(e.X)
		if base == "" {
			return ""
		}
		return base + "[]"
	case *ast.ParenExpr:
		return render(e.X)
	}
	return ""
}
