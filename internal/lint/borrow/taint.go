package borrow

import (
	"go/ast"
	"go/types"
)

// taint is the dataflow under the borrow analyzer: the set of locals in one
// function body that may alias a value produced by a source call. Every
// local's assignment and range-binding sites are collected into def-use
// chains and the set is their monotone fixed point. Control flow is joined
// conservatively (a local is tainted if any of its reaching definitions
// is), which can only over-approximate: the analyzer never misses an
// escape because of a branch, it at worst asks for a copy that a
// path-sensitive analysis could have proven unnecessary.
//
// It depends only on go/ast and go/types, like the rest of the vendored
// analysis core, so it runs in the hermetic build environment.
type taint struct {
	info     *types.Info
	isSource func(*ast.CallExpr) bool
	objs     map[types.Object]bool
}

// newTaint propagates isSource through body: an object is tainted when any
// of its reaching definitions evaluates (possibly through slicing, field
// selection, composite wrapping, or append) to a value derived from a call
// matched by isSource.
func newTaint(info *types.Info, body ast.Node, isSource func(*ast.CallExpr) bool) *taint {
	t := &taint{info: info, isSource: isSource, objs: make(map[types.Object]bool)}
	defs := collectDefs(info, body)
	for changed := true; changed; {
		changed = false
		for obj, rhs := range defs {
			if t.objs[obj] || !refLike(obj.Type()) {
				continue
			}
			for _, e := range rhs {
				if t.expr(e) {
					t.objs[obj] = true
					changed = true
					break
				}
			}
		}
	}
	return t
}

// collectDefs maps every local assigned or range-bound in body to the
// expressions it is defined from. A range binding records the ranged
// operand: the value holds one element of it. Range keys over slices are
// ints and carry no reference, so only value bindings are recorded, plus
// a range key over a channel, which is the received element.
func collectDefs(info *types.Info, body ast.Node) map[types.Object][]ast.Expr {
	defs := make(map[types.Object][]ast.Expr)
	record := func(l ast.Expr, rhs ast.Expr) {
		id, ok := l.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj != nil {
			defs[obj] = append(defs[obj], rhs)
		}
	}
	assign := func(lhs, rhs []ast.Expr) {
		switch {
		case len(lhs) == len(rhs):
			for i := range lhs {
				record(lhs[i], rhs[i])
			}
		case len(rhs) == 1:
			// x, y := f()  /  v, ok := <-ch  /  v, ok := m[k]
			for i := range lhs {
				record(lhs[i], rhs[0])
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			assign(n.Lhs, n.Rhs)
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				lhs := make([]ast.Expr, len(vs.Names))
				for i, name := range vs.Names {
					lhs[i] = name
				}
				assign(lhs, vs.Values)
			}
		case *ast.RangeStmt:
			if n.Value != nil {
				record(n.Value, n.X)
			}
			if t := info.TypeOf(n.X); t != nil && n.Key != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					record(n.Key, n.X)
				}
			}
		}
		return true
	})
	return defs
}

// refLike reports whether values of type t can carry a reference to
// another value's backing store: slices, pointers, maps, channels,
// functions, interfaces, type parameters, and any composite containing
// one. Plain numeric/bool/string types cannot retain a borrow.
func refLike(t types.Type) bool {
	return refLikeDepth(t, 0)
}

func refLikeDepth(t types.Type, depth int) bool {
	if t == nil || depth > 10 {
		return true // unknown or very deep: be conservative
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return false
	case *types.Slice, *types.Pointer, *types.Map, *types.Chan, *types.Signature, *types.Interface, *types.TypeParam:
		return true
	case *types.Array:
		return refLikeDepth(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if refLikeDepth(u.Field(i).Type(), depth+1) {
				return true
			}
		}
		return false
	}
	return true
}

// obj reports whether the object is tainted.
func (t *taint) obj(obj types.Object) bool { return t.objs[obj] }

// expr reports whether the expression may evaluate to a tainted value.
func (t *taint) expr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		obj := t.info.Uses[e]
		if obj == nil {
			obj = t.info.Defs[e]
		}
		return obj != nil && t.objs[obj]
	case *ast.ParenExpr:
		return t.expr(e.X)
	case *ast.StarExpr:
		return t.expr(e.X)
	case *ast.UnaryExpr:
		return t.expr(e.X)
	case *ast.SliceExpr:
		return t.expr(e.X)
	case *ast.IndexExpr:
		// Indexing a tainted container yields a tainted value only when
		// the element can carry the reference.
		if typ := t.info.TypeOf(e); typ != nil && !refLike(typ) {
			return false
		}
		return t.expr(e.X)
	case *ast.SelectorExpr:
		if typ := t.info.TypeOf(e); typ != nil && !refLike(typ) {
			return false
		}
		return t.expr(e.X)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			v := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if t.expr(v) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		if t.isSource(e) {
			return true
		}
		// Conversions pass the value through unchanged.
		if tv, ok := t.info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return t.expr(e.Args[0])
		}
		// append returns a slice aliasing (or retaining elements of) its
		// arguments.
		if isBuiltin(t.info, e, "append") {
			for _, arg := range e.Args {
				if t.expr(arg) {
					return true
				}
			}
		}
		return false
	}
	return false
}

// isBuiltin reports whether call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}
