package borrow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

const src = `package p

type T struct{ buf []int32 }

func source() []int32 { return nil }

func f(in chan []int32, p []int32) {
	s := source()
	alias := s[1:]
	wrapped := []([]int32){alias}
	n := s[0]
	recv := <-in
	fresh := make([]int32, 4)
	grown := append(fresh, s...)
	var fromParam []int32 = p
	_, _, _, _, _, _ = wrapped, n, recv, fresh, grown, fromParam
}
`

// load typechecks src and returns the info plus the FuncDecl named f.
func load(t *testing.T) (*types.Info, *ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatal(err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
			return info, fd
		}
	}
	t.Fatal("no func f")
	return nil, nil
}

// local resolves a local of f by name.
func local(t *testing.T, info *types.Info, fd *ast.FuncDecl, name string) types.Object {
	t.Helper()
	var found types.Object
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			if o := info.Defs[id]; o != nil {
				found = o
			}
		}
		return true
	})
	if found == nil {
		t.Fatalf("no local %q", name)
	}
	return found
}

func TestTaintPropagation(t *testing.T) {
	info, fd := load(t)
	taint := newTaint(info, fd.Body, func(call *ast.CallExpr) bool {
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "source"
	})
	for name, tainted := range map[string]bool{
		"s":         true,  // direct source result
		"alias":     true,  // reslice of a tainted value
		"wrapped":   true,  // composite literal holding a tainted element
		"grown":     true,  // append retains tainted elements
		"n":         false, // scalar element copy
		"recv":      false, // channel receive, not the source
		"fresh":     false, // make in this frame
		"fromParam": false, // parameter, not the source
	} {
		if got := taint.obj(local(t, info, fd, name)); got != tainted {
			t.Errorf("taint(%s) = %v, expected %v", name, got, tainted)
		}
	}
}

func TestRefLike(t *testing.T) {
	info, fd := load(t)
	if refLike(local(t, info, fd, "n").Type()) {
		t.Errorf("int32 classified reference-like")
	}
	if !refLike(local(t, info, fd, "s").Type()) {
		t.Errorf("[]int32 not classified reference-like")
	}
}
