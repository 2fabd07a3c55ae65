// Package borrow implements the genaxvet analyzer that enforces the
// //genax:borrowed lifetime contract at compile time.
//
// Several kernel entry points return slices that alias storage they do not
// transfer: seed.SegmentIndex.Lookup hands out windows of the shared
// position table, Seeder.Seed returns seeds carved from the lane's
// hit-list arena, and the Seeder probe/intersect helpers return lane
// scratch. Such a view is valid only transiently — until the next call on
// the owner — and must never be mutated. PR 5 pinned those rules with
// runtime tests; this analyzer proves them for every caller.
//
// A function whose doc comment carries //genax:borrowed declares that the
// reference-typed values it returns are borrowed views. At every call site
// the analyzer taints the result through the function's def-use chains
// (taint.go: assignment, slicing, field selection, composite wrapping,
// append all propagate) and rejects the operations that would let the view
// outlive or mutate its owner's frame:
//
//   - storing it to a struct field, array/slice/map element, dereferenced
//     pointer, or package-level variable (heap escape). Inside a function
//     that is itself annotated //genax:borrowed, stores rooted at the
//     method's own receiver stay legal: the owner reclaiming its scratch
//     is the arena pattern, not an escape.
//   - capturing it in a closure literal or go statement (the goroutine or
//     closure may run after the view is invalidated)
//   - appending to it (a spare-capacity append writes into, or retains,
//     the shared backing array)
//   - writing through it (element assignment mutates the owner's storage)
//   - sending it on a channel (escapes to a consumer with its own lifetime)
//   - returning it from a function not annotated //genax:borrowed
//     (the borrow would silently outlive the owning frame's contract)
//
// Inside a function that is itself annotated, borrowed calls reached
// through the method's own receiver are not treated as taint sources: the
// owner rearranging its own scratch (Seeder.exactMatch compacting a
// curBuf-backed candidate set in place) is the arena pattern, and the
// contract is enforced at every frame outside the owner instead.
//
// Passing a borrowed value to an ordinary call stays legal: that is a
// reborrow for the duration of the callee, the same transient loan the
// caller holds. The callee's own body is checked under the same rules, so
// a callee that stores its argument is caught when it, in turn, receives a
// tainted value — the contract is enforced frame by frame.
//
// Cross-package calls resolve through a process-wide registry of annotated
// functions keyed by their type-checker full name. The genaxvet driver
// pre-collects annotations from every loaded package before any analysis
// runs, so `genaxvet ./...` checks core's use of seed.Lookup even
// though the packages are analyzed separately.
package borrow

import (
	"go/ast"
	"go/types"
	"strings"
	"sync"

	"genax/internal/lint/analysis"
)

// Directive is the doc-comment annotation marking a function whose
// returned reference values are borrowed views.
const Directive = "//genax:borrowed"

// Analyzer enforces the //genax:borrowed lifetime contract.
var Analyzer = &analysis.Analyzer{
	Name: "borrow",
	Doc:  "forbid escapes and mutation of slices returned by //genax:borrowed functions",
	Run:  run,
}

// registry holds the full names of annotated functions across packages.
// The driver fills it via Collect before running the analyzer; run also
// collects from its own pass so single-package tests are self-contained.
var registry = struct {
	sync.Mutex
	m map[string]bool
}{m: make(map[string]bool)}

// Collect registers every //genax:borrowed function declared in files so
// later passes over other packages resolve cross-package calls. It is
// idempotent and safe for concurrent use.
func Collect(info *types.Info, files []*ast.File) {
	registry.Lock()
	defer registry.Unlock()
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !hasDirective(fd.Doc) {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				registry.m[fn.FullName()] = true
			}
		}
	}
}

// hasDirective reports whether the comment group contains the directive as
// a stand-alone comment line.
func hasDirective(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(c.Text)
		if text == Directive || strings.HasPrefix(text, Directive+" ") {
			return true
		}
	}
	return false
}

// borrowed reports whether the call statically resolves to an annotated
// function.
func borrowed(info *types.Info, call *ast.CallExpr) bool {
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = info.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil {
		return false
	}
	registry.Lock()
	defer registry.Unlock()
	return registry.m[fn.FullName()]
}

func run(pass *analysis.Pass) (any, error) {
	Collect(pass.TypesInfo, pass.Files)
	for _, f := range pass.Files {
		annotated := make(map[*ast.CommentGroup]bool)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			isBorrowed := hasDirective(fd.Doc)
			if isBorrowed {
				annotated[fd.Doc] = true
				checkAnnotation(pass, fd)
			}
			if fd.Body != nil {
				checkFunc(pass, fd, isBorrowed)
			}
		}
		for _, cg := range f.Comments {
			if hasDirective(cg) && !annotated[cg] {
				pass.Reportf(cg.Pos(), "misplaced %s directive: it must be part of a function declaration's doc comment", Directive)
			}
		}
	}
	return nil, nil
}

// checkAnnotation validates that an annotated function can actually lend
// something: at least one result must be reference-like.
func checkAnnotation(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Type.Results != nil {
		for _, r := range fd.Type.Results.List {
			if t := pass.TypeOf(r.Type); t != nil && refLike(t) {
				return
			}
		}
	}
	pass.Reportf(fd.Pos(), "%s on %s, which returns no reference type that could be borrowed", Directive, fd.Name.Name)
}

// checkFunc analyzes one function body for borrow escapes.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, isBorrowed bool) {
	// recvObj is the method receiver: the owner whose scratch an annotated
	// method may legally reclaim.
	var recvObj types.Object
	if isBorrowed && fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		recvObj = pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
	}
	tainted := newTaint(pass.TypesInfo, fd.Body, func(call *ast.CallExpr) bool {
		if !borrowed(pass.TypesInfo, call) {
			return false
		}
		// An annotated method is the owner's own frame: borrowed calls
		// reached through its receiver (sd.lookup, sd.intersect) hand back
		// the owner's scratch, which the owner may rearrange freely. The
		// contract is enforced at every caller outside the frame instead.
		if recvObj != nil {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && rootedAt(pass, sel.X, recvObj) {
				return false
			}
		}
		return true
	})
	name := fd.Name.Name

	// funcLits tracks closure bodies so the outer walk can skip statements
	// already judged as captures.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkCapture(pass, name, n, n.Body, tainted, "closure")
			return false
		case *ast.GoStmt:
			checkCapture(pass, name, n, n.Call, tainted, "goroutine")
			return false
		case *ast.AssignStmt:
			checkAssign(pass, name, n, tainted, recvObj)
		case *ast.SendStmt:
			if tainted.expr(n.Value) {
				pass.Reportf(n.Pos(), "borrowed slice sent on a channel in %s: the consumer outlives the borrow", name)
			}
		case *ast.ReturnStmt:
			if isBorrowed {
				return true
			}
			for _, res := range n.Results {
				if tainted.expr(res) {
					pass.Reportf(res.Pos(), "borrowed slice returned from %s, which is not annotated %s: the view would outlive the owning frame", name, Directive)
				}
			}
		case *ast.CallExpr:
			checkAppend(pass, name, n, tainted)
		}
		return true
	})
}

// checkAppend rejects appending TO a borrowed slice (spare-capacity appends
// write into the shared backing array; full ones retain it via the old
// header). Appending borrowed *elements* into an owned slice is a store and
// is caught by checkAssign through taint propagation.
func checkAppend(pass *analysis.Pass, name string, call *ast.CallExpr, tainted *taint) {
	if isBuiltin(pass.TypesInfo, call, "append") && len(call.Args) > 0 && tainted.expr(call.Args[0]) {
		pass.Reportf(call.Pos(), "append to a borrowed slice in %s: may write into or retain the owner's backing array", name)
	}
}

// checkAssign rejects stores of tainted values to escaping locations and
// writes through tainted bases.
func checkAssign(pass *analysis.Pass, name string, as *ast.AssignStmt, tainted *taint, recvObj types.Object) {
	rhsFor := func(i int) ast.Expr {
		if len(as.Lhs) == len(as.Rhs) {
			return as.Rhs[i]
		}
		if len(as.Rhs) == 1 {
			return as.Rhs[0]
		}
		return nil
	}
	for i, lhs := range as.Lhs {
		// Writing through a borrowed view mutates the owner's storage,
		// whatever the value being stored.
		if ix, ok := lhs.(*ast.IndexExpr); ok && tainted.expr(ix.X) {
			pass.Reportf(lhs.Pos(), "write through a borrowed slice in %s: mutates the owner's backing array", name)
			continue
		}
		rhs := rhsFor(i)
		if rhs == nil || !tainted.expr(rhs) {
			continue
		}
		if rt := pass.TypeOf(lhs); rt != nil && !refLike(rt) {
			continue // a scalar copied out of the view carries no reference
		}
		switch l := lhs.(type) {
		case *ast.Ident:
			// Plain local rebinding keeps the borrow in-frame; package-level
			// variables escape it.
			if obj := pass.ObjectOf(l); obj != nil && obj.Parent() == pass.Pkg.Scope() {
				pass.Reportf(lhs.Pos(), "borrowed slice stored to package-level variable %s in %s", l.Name, name)
			}
		default:
			if rootedAt(pass, lhs, recvObj) {
				continue // the owner reclaiming its own scratch (arena pattern)
			}
			pass.Reportf(lhs.Pos(), "borrowed slice stored to %s in %s: the store outlives the borrow (copy into owned scratch instead)", describeLHS(lhs), name)
		}
	}
}

// checkCapture reports tainted free variables referenced inside a closure
// or go statement.
func checkCapture(pass *analysis.Pass, name string, at ast.Node, body ast.Node, tainted *taint, kind string) {
	reported := false
	ast.Inspect(body, func(n ast.Node) bool {
		if reported {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := pass.TypesInfo.Uses[id]; obj != nil && tainted.obj(obj) {
			pass.Reportf(at.Pos(), "borrowed slice %s captured by %s in %s: it may be used after the owner invalidates it", id.Name, kind, name)
			reported = true
			return false
		}
		return true
	})
}

// rootedAt reports whether the assignable expression's root identifier is
// the given object (e.g. sd.arena or sd.curBuf[i] rooted at receiver sd).
func rootedAt(pass *analysis.Pass, e ast.Expr, obj types.Object) bool {
	if obj == nil {
		return false
	}
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return pass.ObjectOf(x) == obj
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}

// describeLHS names the escaping store target for the diagnostic.
func describeLHS(e ast.Expr) string {
	switch e.(type) {
	case *ast.SelectorExpr:
		return "a struct field"
	case *ast.IndexExpr:
		return "a container element"
	case *ast.StarExpr:
		return "a dereferenced pointer"
	}
	return "an escaping location"
}
