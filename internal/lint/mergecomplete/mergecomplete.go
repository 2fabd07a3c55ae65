// Package mergecomplete implements the genaxvet analyzer that keeps the
// kernel's counter-merge methods exhaustive.
//
// Work counters (pipeline.Stats) are folded across lanes by Merge methods,
// and the merge is what makes the totals partition-independent. The
// failure mode is silent: a counter added to the struct must be added to
// Stats.merge by hand — a forgotten field simply merges to zero, and no
// runtime test that uses one lane can notice. This analyzer closes the
// hole: for every struct in a
// kernel package with a method named Merge or merge taking one value of
// the struct's own type, each field must provably flow from the argument —
// read through a selector path rooted at the parameter — or be annotated
// //genax:nomerge with the reason it is excluded.
//
// Coverage is structural: leaf fields (after flattening same-package
// nested structs and arrays of structs) are covered when a selector path
// reaching them is read; reading, passing, or assigning an ancestor whole
// (t.Sub.Merge(s.Sub), or delegating the entire argument as in
// Merge calling merge) covers the whole subtree. Fields whose struct types
// live in other packages are treated as leaves — their own package's
// Merge, if any, is checked in its own pass.
package mergecomplete

import (
	"go/ast"
	"go/token"
	"go/types"

	"genax/internal/lint/analysis"
	"genax/internal/lint/determinism"
	"genax/internal/lint/ssautil"
)

// Directive marks a field intentionally excluded from its struct's Merge
// (per-window outcome tallies, identity fields). It must appear in the
// field's doc or trailing line comment.
const Directive = "//genax:nomerge"

// Packages are the import paths whose Merge methods are checked — the
// deterministic kernel set, where partition-independent totals are part of
// the correctness contract.
var Packages = determinism.Packages

// Analyzer proves Merge methods fold (or explicitly exclude) every field.
var Analyzer = &analysis.Analyzer{
	Name: "mergecomplete",
	Doc:  "require Merge methods in kernel packages to fold every field or mark it //genax:nomerge",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	path := trimTestSuffix(pass.Pkg.Path())
	if !Packages[path] {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			if fd.Name.Name != "Merge" && fd.Name.Name != "merge" {
				continue
			}
			checkMerge(pass, fd)
		}
	}
	return nil, nil
}

func trimTestSuffix(s string) string {
	const suf = "_test"
	if len(s) > len(suf) && s[len(s)-len(suf):] == suf {
		return s[:len(s)-len(suf)]
	}
	return s
}

// checkMerge verifies one Merge/merge method's field coverage.
func checkMerge(pass *analysis.Pass, fd *ast.FuncDecl) {
	recvType := receiverStruct(pass, fd)
	if recvType == nil {
		return
	}
	arg := mergeArg(pass, fd, recvType)
	if arg == nil {
		return // not the canonical Merge(T) shape; nothing to prove
	}

	covered := coveredPaths(pass, fd.Body, arg)
	if covered == nil {
		return // argument consumed whole (delegation): all fields flow
	}
	leaves := flatten(pass, recvType, nil, nil)
	for _, leaf := range leaves {
		if pathCovered(covered, leaf.path) {
			continue
		}
		if leaf.nomerge {
			continue
		}
		pass.Reportf(leaf.pos, "field %s of %s is not folded by %s and not annotated %s: it would merge silently to zero",
			leaf.name, recvName(pass, fd), fd.Name.Name, Directive)
	}
}

// receiverStruct resolves the receiver's named struct type.
func receiverStruct(pass *analysis.Pass, fd *ast.FuncDecl) *types.Named {
	if len(fd.Recv.List) != 1 {
		return nil
	}
	t := pass.TypeOf(fd.Recv.List[0].Type)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// mergeArg returns the parameter object when the method takes exactly one
// parameter of the receiver's type (by value or pointer).
func mergeArg(pass *analysis.Pass, fd *ast.FuncDecl, recv *types.Named) types.Object {
	params := fd.Type.Params
	if params == nil || len(params.List) != 1 || len(params.List[0].Names) != 1 {
		return nil
	}
	pt := pass.TypeOf(params.List[0].Type)
	if p, ok := pt.(*types.Pointer); ok {
		pt = p.Elem()
	}
	if !types.Identical(pt, recv) {
		return nil
	}
	return pass.TypesInfo.Defs[params.List[0].Names[0]]
}

// coveredPaths walks the body and records every selector path read from
// the argument. It returns nil when the bare argument is consumed whole
// (passed to a call, assigned, ranged) — full delegation.
func coveredPaths(pass *analysis.Pass, body *ast.BlockStmt, arg types.Object) map[string]bool {
	covered := make(map[string]bool)
	whole := false

	// parent chains: climb from each use of arg through selectors/indexes.
	parents := make(map[ast.Node]ast.Node)
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		for _, c := range children(n) {
			parents[c] = n
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[id] != arg {
			return true
		}
		path := ""
		var cur ast.Node = id
		for {
			p := parents[cur]
			climbed := false
			switch pn := p.(type) {
			case *ast.SelectorExpr:
				if pn.X == cur {
					if path != "" {
						path += "."
					}
					path += pn.Sel.Name
					cur, climbed = pn, true
				}
			case *ast.IndexExpr:
				if pn.X == cur {
					cur, climbed = pn, true // element read keeps the path
				}
			case *ast.ParenExpr:
				cur, climbed = pn, true
			case *ast.UnaryExpr:
				cur, climbed = pn, true
			}
			if !climbed {
				break
			}
		}
		if path == "" {
			whole = true
			return true
		}
		covered[path] = true
		return true
	})
	if whole {
		return nil
	}
	return covered
}

// children returns a node's direct AST children (used to build the parent
// map without a full typed visitor).
func children(n ast.Node) []ast.Node {
	var out []ast.Node
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil || c == n {
			return c == n
		}
		out = append(out, c)
		return false
	})
	return out
}

// leaf is one flattened field the merge must cover.
type leaf struct {
	name    string // dotted path for the diagnostic
	path    string // selector path (array indexes elided)
	pos     token.Pos
	nomerge bool
}

// flatten expands a named struct into its mergeable leaves, recursing into
// same-package structs and arrays of structs; prefix carries the selector
// path so far. An annotated struct-typed field is excluded whole.
func flatten(pass *analysis.Pass, named *types.Named, prefix []string, fields []leaf) []leaf {
	st := named.Underlying().(*types.Struct)
	spec := structSpec(pass, named)
	for i := 0; i < st.NumFields(); i++ {
		fld := st.Field(i)
		path := append(append([]string{}, prefix...), fld.Name())
		nomerge := fieldNomerge(spec, fld.Name())
		pos := fld.Pos()
		ft := fld.Type()
		if arr, ok := ft.Underlying().(*types.Array); ok {
			ft = arr.Elem()
		}
		if sub, ok := ft.(*types.Named); ok {
			if _, isStruct := sub.Underlying().(*types.Struct); isStruct && sub.Obj().Pkg() == named.Obj().Pkg() && !nomerge {
				fields = flatten(pass, sub, path, fields)
				continue
			}
		}
		fields = append(fields, leaf{name: join(path), path: join(path), pos: pos, nomerge: nomerge})
	}
	return fields
}

func join(path []string) string {
	out := ""
	for i, p := range path {
		if i > 0 {
			out += "."
		}
		out += p
	}
	return out
}

// pathCovered reports whether the leaf path or any ancestor prefix was
// read from the argument.
func pathCovered(covered map[string]bool, path string) bool {
	for i := len(path); i > 0; i-- {
		if i == len(path) || path[i] == '.' {
			if covered[path[:i]] {
				return true
			}
		}
	}
	return false
}

// structSpec finds the *ast.StructType declaring the named type in the
// current package's files, for annotation lookup. Returns nil for types
// declared elsewhere.
func structSpec(pass *analysis.Pass, named *types.Named) *ast.StructType {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != named.Obj().Name() {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					return st
				}
			}
		}
	}
	return nil
}

// fieldNomerge reports whether the field's declaration carries the
// //genax:nomerge directive (in its doc or trailing comment; a directive
// on a multi-name declaration covers all its names).
func fieldNomerge(st *ast.StructType, name string) bool {
	if st == nil {
		return false
	}
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			if n.Name == name {
				return ssautil.HasDirective(f.Doc, Directive) || ssautil.HasDirective(f.Comment, Directive)
			}
		}
	}
	return false
}

// recvName renders the receiver type name for diagnostics.
func recvName(pass *analysis.Pass, fd *ast.FuncDecl) string {
	if named := receiverStruct(pass, fd); named != nil {
		return named.Obj().Name()
	}
	return "receiver"
}
