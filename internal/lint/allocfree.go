package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AllocfreeAnalyzer proves that the declared hot-path root set (see
// hotpath.go) transitively performs zero heap allocations. The paper's
// data-plane claim (§3.4–3.5: rewriting happens per packet, in line) is
// only true if the rewrite path never touches the allocator, and the
// dynamic check (TestRewritePathZeroAlloc) only covers the inputs the
// test happens to drive; this rule makes the property hold for every
// path through the region.
//
// Flagged inside the hot region: make, new, escaping composite literals
// (&T{…} and slice/map literals), append, string concatenation and
// string<->slice conversions, interface boxing (arguments, assignments,
// conversions, returns), capturing closures, variadic calls that build
// an argument slice, map writes, defer, `go`, and any call that cannot
// be proven — dynamic calls, unresolved interface calls, and calls out
// of the module (fmt and friends included). Arguments of panic calls
// are exempt: a crash path may allocate.
var AllocfreeAnalyzer = &Analyzer{
	Name:      "allocfree",
	Doc:       "the hot-path root set must be transitively allocation-free",
	RunModule: runAllocfree,
}

func runAllocfree(pkgs []*Package) []Finding {
	if len(pkgs) == 0 {
		return nil
	}
	cg := BuildCallGraph(pkgs)
	region, findings := buildHotRegion(pkgs, cg)
	mod := pkgs[0].ModulePath
	for _, hf := range region.funcs {
		node := cg.Nodes[hf.key]
		report := func(n ast.Node, msg string) {
			findings = append(findings, hotFinding("allocfree", node.Pkg, n, hf.chain, msg))
		}
		scanAllocBody(node.Pkg, node.Decl, cg, mod, report)
	}
	return findings
}

// scanAllocBody walks one hot function body and reports every construct
// that allocates or cannot be proven not to.
func scanAllocBody(pkg *Package, fd *ast.FuncDecl, cg *CallGraph, mod string, report func(ast.Node, string)) {
	sig, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	var resSig *types.Signature
	if sig != nil {
		resSig = sig.Type().(*types.Signature)
	}
	var walk func(n ast.Node)
	walkAll := func(ns ...ast.Node) {
		for _, m := range ns {
			walk(m)
		}
	}
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			if caps := capturedNames(pkg, n); len(caps) > 0 {
				report(n, fmt.Sprintf("function literal captures %s: building the closure allocates", strings.Join(caps, ", ")))
			}
			return // body runs only if invoked; invocation sites are flagged
		case *ast.GoStmt:
			report(n, "go statement allocates a goroutine")
			return
		case *ast.DeferStmt:
			report(n, "defer cannot be proven allocation-free")
			walk(n.Call)
			return
		case *ast.CallExpr:
			scanAllocCall(pkg, n, cg, mod, report, walk)
			return
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if cl, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n, "address of composite literal escapes to the heap")
					walkAll(exprNodes(cl.Elts)...)
					return
				}
			}
		case *ast.CompositeLit:
			if tv, ok := pkg.Info.Types[n]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					report(n, "slice literal allocates its backing array")
				case *types.Map:
					report(n, "map literal allocates")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := pkg.Info.Types[n]; ok && isStringType(tv.Type) {
					report(n, "string concatenation allocates")
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if tv, ok := pkg.Info.Types[ix.X]; ok && tv.Type != nil {
						if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
							report(lhs, "map assignment may allocate")
						}
					}
				}
				if len(n.Rhs) == len(n.Lhs) {
					if tv, ok := pkg.Info.Types[lhs]; ok && boxAllocs(pkg, tv.Type, n.Rhs[i]) {
						report(n.Rhs[i], "assignment boxes a non-pointer value into an interface")
					}
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				if tv, ok := pkg.Info.Types[n.Type]; ok {
					for _, v := range n.Values {
						if boxAllocs(pkg, tv.Type, v) {
							report(v, "declaration boxes a non-pointer value into an interface")
						}
					}
				}
			}
		case *ast.ReturnStmt:
			if resSig != nil && len(n.Results) == resSig.Results().Len() {
				for i, r := range n.Results {
					if boxAllocs(pkg, resSig.Results().At(i).Type(), r) {
						report(r, "return boxes a non-pointer value into an interface")
					}
				}
			}
		}
		walkAll(astChildren(n)...)
	}
	walk(fd.Body)
}

// scanAllocCall classifies one call expression on the hot path.
func scanAllocCall(pkg *Package, call *ast.CallExpr, cg *CallGraph, mod string, report func(ast.Node, string), walk func(ast.Node)) {
	walkArgs := func() {
		for _, a := range call.Args {
			walk(a)
		}
	}
	if isBuiltinPanic(pkg, call) {
		return // allocation on an unconditionally-crashing path is moot
	}
	if isConversion(pkg, call) {
		if len(call.Args) == 1 {
			if msg := convAllocMsg(pkg, call); msg != "" {
				report(call, msg)
			}
			walk(call.Args[0])
		}
		return
	}
	fun := unwrapIndex(ast.Unparen(call.Fun))
	if lit, ok := fun.(*ast.FuncLit); ok {
		// IIFE: the body executes here, scan it inline; the literal itself
		// never escapes.
		walk(lit.Body)
		walkArgs()
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				report(call, "append may grow its backing array and allocate")
			case "make":
				report(call, "make allocates")
			case "new":
				report(call, "new allocates")
			case "print", "println":
				report(call, "print allocates temporaries")
			}
			walkArgs()
			return
		}
	}
	// Interface method call: proven iff RTA resolves it to live module
	// implementations (which the region traversal then scans).
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s, ok := pkg.Info.Selections[sel]; ok && types.IsInterface(s.Recv()) {
			if len(cg.IfaceTargets(pkg, call)) == 0 {
				report(call, "interface method call resolves to no loaded implementation; cannot be proven allocation-free")
			}
			checkCallArgs(pkg, call, nil, report)
			walk(sel.X)
			walkArgs()
			return
		}
	}
	if fn := calleeFunc(pkg, call); fn != nil {
		if path := funcPkgPath(fn); path != "" && !inModulePath(path, mod) && !allocFreeStdPkg(path) {
			report(call, fmt.Sprintf("call into %s cannot be proven allocation-free", funcKey(fn)))
		}
		checkCallArgs(pkg, call, fn.Type().(*types.Signature), report)
		walk(call.Fun)
		walkArgs()
		return
	}
	// Dynamic call through a function value.
	report(call, "call through a function value cannot be proven allocation-free")
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.Type != nil {
		if dsig, ok := tv.Type.Underlying().(*types.Signature); ok {
			checkCallArgs(pkg, call, dsig, report)
		}
	}
	walk(call.Fun)
	walkArgs()
}

// allocFreeStdPkg whitelists the out-of-module packages whose exported
// operations are allocation-free by specification, so hot code may call
// them without breaking the proof. sync/atomic is the only member: every
// operation compiles to a single load/store/RMW machine instruction and
// never touches the heap — it is what the dataplane's lock-free snapshot
// readers are built from. Argument boxing is still checked at the call
// site (atomic.Value.Store(x) boxing x would be flagged by
// checkCallArgs, not excused here).
func allocFreeStdPkg(path string) bool { return path == "sync/atomic" }

// checkCallArgs flags variadic argument-slice construction and interface
// boxing of arguments. sig may be nil (unresolved interface calls — the
// call itself was already flagged).
func checkCallArgs(pkg *Package, call *ast.CallExpr, sig *types.Signature, report func(ast.Node, string)) {
	if sig == nil {
		return
	}
	np := sig.Params().Len()
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= np {
		report(call, "variadic call allocates its argument slice")
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				pt = sig.Params().At(np - 1).Type()
			} else if s, ok := sig.Params().At(np - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < np:
			pt = sig.Params().At(i).Type()
		}
		if boxAllocs(pkg, pt, arg) {
			report(arg, "argument boxes a non-pointer value into an interface parameter")
		}
	}
}

// convAllocMsg classifies a type conversion: "" means alloc-free.
func convAllocMsg(pkg *Package, call *ast.CallExpr) string {
	tv, ok := pkg.Info.Types[call]
	if !ok || tv.Type == nil {
		return ""
	}
	dst := tv.Type
	sv, ok := pkg.Info.Types[call.Args[0]]
	if !ok || sv.Type == nil {
		return ""
	}
	src := sv.Type
	switch {
	case isStringType(src) && isByteishSlice(dst), isByteishSlice(src) && isStringType(dst):
		return "conversion between string and byte/rune slice copies and allocates"
	case isIntegerType(src) && isStringType(dst):
		return "integer-to-string conversion allocates"
	case boxAllocs(pkg, dst, call.Args[0]):
		return "conversion boxes a non-pointer value into an interface"
	}
	return ""
}

// boxAllocs reports whether storing src into a destination of type dst
// boxes a value on the heap. Pointer-shaped values (pointers, channels,
// maps, funcs, unsafe.Pointer) fit the interface word directly; nil and
// interface-typed sources copy without boxing; everything else (ints,
// strings, structs, slices, arrays) allocates.
func boxAllocs(pkg *Package, dst types.Type, src ast.Expr) bool {
	if dst == nil || !types.IsInterface(dst) {
		return false
	}
	tv, ok := pkg.Info.Types[src]
	if !ok || tv.Type == nil || tv.IsNil() {
		return false
	}
	st := tv.Type
	if types.IsInterface(st) {
		return false
	}
	switch u := st.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		return u.Kind() != types.UnsafePointer
	}
	return true
}

// capturedNames returns the sorted names of enclosing-function variables
// a function literal captures (receiver, params, and locals declared
// outside the literal; package-level variables are not captured).
func capturedNames(pkg *Package, lit *ast.FuncLit) []string {
	seen := map[string]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() == nil || v.Pkg() != pkg.Types {
			return true
		}
		if v.Parent() == pkg.Types.Scope() || v.Parent() == types.Universe {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the literal
		}
		seen[v.Name()] = true
		return true
	})
	var out []string
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// isBuiltinPanic is the type-aware version of cfg.go's syntactic
// isPanicCall (the hot scanners have type info available).
func isBuiltinPanic(pkg *Package, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pkg.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isIntegerType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isByteishSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

// exprNodes converts a []ast.Expr to []ast.Node.
func exprNodes(es []ast.Expr) []ast.Node {
	out := make([]ast.Node, len(es))
	for i, e := range es {
		out[i] = e
	}
	return out
}
