package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// calleeFunc resolves the static callee of a call expression, or nil for
// dynamic calls (function values, method values through interfaces stay
// resolvable via Selections; calls of func-typed variables do not).
// Explicitly instantiated generic calls (F[T](…)) resolve to the generic
// function.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fn := unwrapIndex(ast.Unparen(call.Fun)).(type) {
	case *ast.Ident:
		if f, ok := pkg.Info.Uses[fn].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fn]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call (pkg.Fn).
		if f, ok := pkg.Info.Uses[fn.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// unwrapIndex strips an explicit generic instantiation (F[T] or F[T1,T2])
// from a call head, returning the underlying function expression.
func unwrapIndex(e ast.Expr) ast.Expr {
	switch ix := e.(type) {
	case *ast.IndexExpr:
		return ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		return ast.Unparen(ix.X)
	}
	return e
}

// sigKey renders a function type as a universe-independent string: types
// from different type-checker universes (the loader checks each package
// independently) compare equal iff their full-path renderings do.
func sigKey(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Path() })
}

// isConversion reports whether the call is a type conversion, not a call.
func isConversion(pkg *Package, call *ast.CallExpr) bool {
	tv, ok := pkg.Info.Types[call.Fun]
	return ok && tv.IsType()
}

// funcPkgPath returns the import path of the package a function belongs
// to, or "" for builtins.
func funcPkgPath(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// recvNamed returns the named type of a method's receiver (dereferencing a
// pointer receiver), or nil.
func recvNamed(f *types.Func) *types.Named {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// namedIs reports whether n is the named type pkgPath.name.
func namedIs(n *types.Named, pkgPath, name string) bool {
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// pathHasSuffix reports whether the package path is path or ends in
// "/"+path — matching a package regardless of the module prefix.
func pathHasSuffix(pkgPath, suffix string) bool {
	return pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix)
}

// inModulePath reports whether pkgPath is the module itself or one of its
// packages.
func inModulePath(pkgPath, mod string) bool {
	return pkgPath == mod || strings.HasPrefix(pkgPath, mod+"/")
}

// position returns the file position of a node in the package's fileset.
func position(pkg *Package, n ast.Node) token.Position {
	return pkg.Fset.Position(n.Pos())
}

// returnsError reports whether the function's last result is the builtin
// error type.
func returnsError(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

// leafIdents appends the identifier names appearing in expr (selectors
// contribute their field name and their base chain names).
func leafIdents(expr ast.Expr, out *[]string) {
	switch e := expr.(type) {
	case *ast.Ident:
		*out = append(*out, e.Name)
	case *ast.SelectorExpr:
		*out = append(*out, e.Sel.Name)
		leafIdents(e.X, out)
	case *ast.CallExpr:
		leafIdents(e.Fun, out)
	case *ast.ParenExpr:
		leafIdents(e.X, out)
	case *ast.UnaryExpr:
		leafIdents(e.X, out)
	case *ast.BinaryExpr:
		leafIdents(e.X, out)
		leafIdents(e.Y, out)
	case *ast.IndexExpr:
		leafIdents(e.X, out)
	case *ast.StarExpr:
		leafIdents(e.X, out)
	}
}

// funcKey names a function across packages by path, receiver, and name.
// String identity deliberately: the loader type-checks each package in its
// own full pass, so *types.Func pointers for the same function differ
// between the defining package's load and an importer's load.
func funcKey(fn *types.Func) string {
	if r := recvNamed(fn); r != nil {
		return funcPkgPath(fn) + "." + r.Obj().Name() + "." + fn.Name()
	}
	return funcPkgPath(fn) + "." + fn.Name()
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}
