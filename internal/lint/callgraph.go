package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the module-wide call graph that the interprocedural
// rules (allocfree, blockfree) traverse and that `dyscolint -callgraph`
// dumps. Nodes are functions named by funcKey (pkgpath.Recv.Name);
// string keys deliberately, because the loader type-checks each package in
// its own universe and *types.Func pointers do not survive the crossing.
//
// Resolution is RTA-flavored and over-approximate in the direction that
// keeps the hot-path proofs sound:
//
//   - static calls (including promoted and package-qualified methods)
//     produce one CGStatic edge;
//   - interface method calls produce one CGIface edge per *live* module
//     type whose method set structurally satisfies the interface (method
//     names plus universe-independent signature strings); a live type is
//     any module named type that appears as a composite literal, a new()
//     argument, or the declared type of some variable — generous on
//     purpose, since a missing edge would let an allocation hide;
//   - calls through function values produce one CGDynamic edge per
//     *bound* function (a function or method referenced outside call
//     position anywhere in the module) with a matching signature, or a
//     single edge to "<indirect>" when nothing matches.
//
// Calls inside function literals belong to the enclosing declared
// function but carry ViaLit, so traversals can distinguish "runs when the
// caller runs" from "runs if the closure is ever invoked". Calls in `go`
// statements carry Go for the same reason. Immediately-invoked literals
// (func(){...}()) are inlined into the caller: their calls are ordinary
// edges.

// CGEdgeKind classifies how a call site was resolved.
type CGEdgeKind uint8

const (
	CGStatic  CGEdgeKind = iota // direct call to a known function
	CGIface                     // interface method call, RTA-resolved
	CGDynamic                   // call through a function value
)

func (k CGEdgeKind) String() string {
	switch k {
	case CGStatic:
		return "static"
	case CGIface:
		return "iface"
	case CGDynamic:
		return "dynamic"
	}
	return "?"
}

// CGIndirect is the callee key used when a dynamic call matches no bound
// function (nothing is known about the target).
const CGIndirect = "<indirect>"

// CGEdge is one resolved call relationship, deduplicated per
// (caller, callee, kind, flags); Pos is the earliest site.
type CGEdge struct {
	Caller string
	Callee string
	Kind   CGEdgeKind
	Go     bool // call site is a `go` statement
	ViaLit bool // call site is inside a (non-invoked) function literal
	Pos    token.Position
}

// CGNode is a function with loaded source. Functions that appear only as
// callees (stdlib, unloaded packages) have edges but no node.
type CGNode struct {
	Key  string
	Pkg  *Package
	Decl *ast.FuncDecl
}

// CallGraph is the module-wide graph plus the RTA state needed to
// re-resolve individual call sites (the interprocedural rules ask about
// specific interface calls while walking bodies).
type CallGraph struct {
	Nodes map[string]*CGNode
	Edges []CGEdge // sorted by (Caller, Callee, Kind, Go, ViaLit)
	out   map[string][]int
	rta   *rtaState
}

// Out returns the outgoing edges of a node key, in sorted order.
func (g *CallGraph) Out(key string) []CGEdge {
	idx := g.out[key]
	edges := make([]CGEdge, len(idx))
	for i, j := range idx {
		edges[i] = g.Edges[j]
	}
	return edges
}

// rtaState is the module-wide type and function-value inventory.
type rtaState struct {
	mod  string
	live []string // sorted keys of instantiated module named types
	// methods: type key -> method name -> {target function key, sigKey of
	// the method with receiver stripped}.
	methods map[string]map[string]cgMethod
	// bound: signature string -> sorted keys of address-taken functions
	// with that signature.
	bound map[string][]string
}

type cgMethod struct {
	target string
	sig    string
}

// BuildCallGraph constructs the graph over the loaded packages.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Nodes: map[string]*CGNode{}, out: map[string][]int{}}
	if len(pkgs) == 0 {
		g.rta = &rtaState{methods: map[string]map[string]cgMethod{}, bound: map[string][]string{}}
		return g
	}
	mod := pkgs[0].ModulePath

	// Pass 1: nodes for every declared function with a body.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.Nodes[funcKey(fn)] = &CGNode{Key: funcKey(fn), Pkg: pkg, Decl: fd}
			}
		}
	}

	// Pass 2: the RTA inventory — live types and bound functions.
	g.rta = buildRTA(pkgs, mod)

	// Pass 3: edges.
	type edgeID struct {
		caller, callee string
		kind           CGEdgeKind
		goStmt, viaLit bool
	}
	first := map[edgeID]token.Position{}
	add := func(caller, callee string, kind CGEdgeKind, goStmt, viaLit bool, pos token.Position) {
		id := edgeID{caller, callee, kind, goStmt, viaLit}
		if old, ok := first[id]; !ok || posLess(pos, old) {
			first[id] = pos
		}
	}
	var keys []string
	for k := range g.Nodes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		n := g.Nodes[key]
		scanCalls(n.Pkg, n.Decl.Body, func(site callSite) {
			pos := position(n.Pkg, site.call)
			for _, callee := range g.resolveSite(n.Pkg, site.call) {
				add(key, callee.key, callee.kind, site.goStmt, site.viaLit, pos)
			}
		})
	}
	for id, pos := range first {
		g.Edges = append(g.Edges, CGEdge{Caller: id.caller, Callee: id.callee, Kind: id.kind, Go: id.goStmt, ViaLit: id.viaLit, Pos: pos})
	}
	sort.Slice(g.Edges, func(i, j int) bool {
		a, b := g.Edges[i], g.Edges[j]
		if a.Caller != b.Caller {
			return a.Caller < b.Caller
		}
		if a.Callee != b.Callee {
			return a.Callee < b.Callee
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Go != b.Go {
			return !a.Go
		}
		return !a.ViaLit
	})
	for i, e := range g.Edges {
		g.out[e.Caller] = append(g.out[e.Caller], i)
	}
	return g
}

// callSite is a call expression with its structural context.
type callSite struct {
	call   *ast.CallExpr
	goStmt bool
	viaLit bool
}

// scanCalls walks a function body in source order, yielding every call
// expression that is an actual call (conversions and builtins are the
// caller's problem to filter via resolveSite). Immediately-invoked
// function literals are inlined; other literals set viaLit; `go` call
// expressions set goStmt (a `go` of a literal marks the literal's inner
// calls both goStmt and viaLit-free — they run on the new goroutine when
// the statement executes).
func scanCalls(pkg *Package, body ast.Node, visit func(callSite)) {
	var walk func(n ast.Node, viaLit, goCtx bool)
	walk = func(n ast.Node, viaLit, goCtx bool) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			// The spawned call itself is a goStmt site; everything inside
			// a spawned literal runs on the new goroutine.
			visit(callSite{call: n.Call, goStmt: true, viaLit: viaLit})
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				walk(lit.Body, viaLit, true)
			} else {
				walk(n.Call.Fun, viaLit, goCtx)
			}
			for _, a := range n.Call.Args {
				walk(a, viaLit, goCtx)
			}
			return
		case *ast.FuncLit:
			walk(n.Body, true, goCtx)
			return
		case *ast.CallExpr:
			visit(callSite{call: n, goStmt: goCtx, viaLit: viaLit})
			if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				walk(lit.Body, viaLit, goCtx) // IIFE: body executes here
			} else {
				walk(n.Fun, viaLit, goCtx)
			}
			for _, a := range n.Args {
				walk(a, viaLit, goCtx)
			}
			return
		}
		for _, c := range astChildren(n) {
			walk(c, viaLit, goCtx)
		}
	}
	walk(body, false, false)
}

// astChildren returns the direct child nodes of n, preserving source
// order, via ast.Inspect's first level.
func astChildren(n ast.Node) []ast.Node {
	var out []ast.Node
	root := true
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return true
		}
		if root {
			root = false
			return true
		}
		out = append(out, m)
		return false
	})
	return out
}

// cgTarget is one resolved callee.
type cgTarget struct {
	key  string
	kind CGEdgeKind
}

// resolveSite resolves a call expression to its callee keys. Conversions
// and builtin calls resolve to nothing (no edge). IIFE calls resolve to
// nothing — the inlined body already contributed its calls.
func (g *CallGraph) resolveSite(pkg *Package, call *ast.CallExpr) []cgTarget {
	if isConversion(pkg, call) {
		return nil
	}
	fun := unwrapIndex(ast.Unparen(call.Fun))
	if _, ok := fun.(*ast.FuncLit); ok {
		return nil
	}
	if id, ok := fun.(*ast.Ident); ok {
		if _, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			return nil
		}
	}
	// Interface method call?
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s, ok := pkg.Info.Selections[sel]; ok && types.IsInterface(s.Recv()) {
			fn, _ := s.Obj().(*types.Func)
			return g.rta.ifaceTargets(s.Recv(), fn)
		}
	}
	if fn := calleeFunc(pkg, call); fn != nil {
		return []cgTarget{{key: funcKey(fn), kind: CGStatic}}
	}
	// Dynamic call through a function value: match bound functions by
	// signature.
	tv, ok := pkg.Info.Types[call.Fun]
	if ok && tv.Type != nil {
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
			if keys := g.rta.bound[sigKey(sig)]; len(keys) > 0 {
				out := make([]cgTarget, len(keys))
				for i, k := range keys {
					out[i] = cgTarget{key: k, kind: CGDynamic}
				}
				return out
			}
		}
	}
	return []cgTarget{{key: CGIndirect, kind: CGDynamic}}
}

// IfaceTargets re-resolves an interface call site for rule traversals;
// empty means no live module type satisfies the interface.
func (g *CallGraph) IfaceTargets(pkg *Package, call *ast.CallExpr) []string {
	sel, ok := unwrapIndex(ast.Unparen(call.Fun)).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok || !types.IsInterface(s.Recv()) {
		return nil
	}
	fn, _ := s.Obj().(*types.Func)
	var out []string
	for _, t := range g.rta.ifaceTargets(s.Recv(), fn) {
		if t.kind == CGIface && g.Nodes[t.key] != nil {
			out = append(out, t.key)
		}
	}
	return out
}

// buildRTA inventories live module types (with their method sets rendered
// as universe-independent strings) and bound functions.
func buildRTA(pkgs []*Package, mod string) *rtaState {
	rta := &rtaState{mod: mod, methods: map[string]map[string]cgMethod{}, bound: map[string][]string{}}

	// Named types defined in the module, in their defining universes.
	defs := map[string]*types.Named{}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				defs[pkg.PkgPath+"."+name] = named
			}
		}
	}

	// Live types: module named types that are instantiated or declared as
	// the type of any variable (field, param, local, global). Generous by
	// design: over-approximating liveness only adds edges.
	liveSet := map[string]bool{}
	addLive := func(t types.Type) {
		if t == nil {
			return
		}
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return
		}
		key := named.Obj().Pkg().Path() + "." + named.Obj().Name()
		if _, ok := defs[key]; ok && !types.IsInterface(named) {
			liveSet[key] = true
		}
	}
	boundSet := map[string]map[string]bool{} // sig -> keys
	addBound := func(fn *types.Func, sig types.Type) {
		s := sigKey(sig)
		if boundSet[s] == nil {
			boundSet[s] = map[string]bool{}
		}
		boundSet[s][funcKey(fn)] = true
	}
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Defs {
			if v, ok := obj.(*types.Var); ok {
				addLive(v.Type())
			}
		}
		for expr, tv := range pkg.Info.Types {
			if _, ok := expr.(*ast.CompositeLit); ok {
				addLive(tv.Type)
			}
		}
		for _, file := range pkg.Files {
			collectBound(pkg, file, addBound)
		}
	}
	for k := range liveSet {
		rta.live = append(rta.live, k)
	}
	sort.Strings(rta.live)
	for sig, keys := range boundSet {
		for k := range keys {
			rta.bound[sig] = append(rta.bound[sig], k)
		}
		sort.Strings(rta.bound[sig])
	}

	// Method sets of live types (pointer receiver: the superset).
	for _, key := range rta.live {
		named := defs[key]
		ms := types.NewMethodSet(types.NewPointer(named))
		m := map[string]cgMethod{}
		for i := 0; i < ms.Len(); i++ {
			sel := ms.At(i)
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				continue
			}
			m[fn.Name()] = cgMethod{target: funcKey(fn), sig: sigKey(stripRecv(fn))}
		}
		rta.methods[key] = m
	}
	return rta
}

// collectBound finds functions and methods referenced outside call
// position (assigned, passed, stored): the candidate targets of dynamic
// calls.
func collectBound(pkg *Package, file *ast.File, add func(*types.Func, types.Type)) {
	// First mark the head expression of every call: those references are
	// calls, not values.
	callHead := map[ast.Node]bool{}
	selSel := map[*ast.Ident]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			callHead[unwrapIndex(ast.Unparen(n.Fun))] = true
		case *ast.SelectorExpr:
			selSel[n.Sel] = true
		}
		return true
	})
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if callHead[n] {
				return true // descend: X may still hold references
			}
			if fn, ok := pkg.Info.Uses[n.Sel].(*types.Func); ok {
				if tv, ok := pkg.Info.Types[ast.Expr(n)]; ok && tv.Type != nil {
					if _, isSig := tv.Type.Underlying().(*types.Signature); isSig {
						add(fn, tv.Type)
					}
				}
			}
		case *ast.Ident:
			if callHead[n] || selSel[n] {
				return true
			}
			if fn, ok := pkg.Info.Uses[n].(*types.Func); ok {
				if tv, ok := pkg.Info.Types[ast.Expr(n)]; ok && tv.Type != nil {
					add(fn, tv.Type)
				}
			}
		}
		return true
	})
}

// stripRecv returns the signature of a method without its receiver, for
// structural comparison against interface method signatures.
func stripRecv(fn *types.Func) *types.Signature {
	sig := fn.Type().(*types.Signature)
	return types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
}

// ifaceTargets resolves an interface method call against the live-type
// inventory. A type satisfies the interface iff every interface method has
// a same-name, same-signature entry in the type's method set.
func (rta *rtaState) ifaceTargets(recv types.Type, fn *types.Func) []cgTarget {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok || fn == nil {
		return []cgTarget{{key: CGIndirect, kind: CGDynamic}}
	}
	want := make(map[string]string, iface.NumMethods())
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		want[m.Name()] = sigKey(m.Type())
	}
	var out []cgTarget
	for _, key := range rta.live {
		ms := rta.methods[key]
		ok := true
		for name, sig := range want {
			if m, have := ms[name]; !have || m.sig != sig {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, cgTarget{key: ms[fn.Name()].target, kind: CGIface})
		}
	}
	if len(out) == 0 {
		// Unresolved: name the interface method itself so the dump shows
		// where resolution stopped.
		return []cgTarget{{key: funcKey(fn), kind: CGIface}}
	}
	return out
}

// FormatCallGraph renders the graph as a stable text dump. When filter is
// non-nil, only nodes whose package path satisfies it are printed (their
// edges may point anywhere).
func FormatCallGraph(g *CallGraph, filter func(pkgPath string) bool) string {
	var keys []string
	for k, n := range g.Nodes {
		if filter == nil || filter(n.Pkg.PkgPath) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	edges := 0
	for _, k := range keys {
		edges += len(g.out[k])
	}
	fmt.Fprintf(&b, "callgraph: %d functions, %d edges\n", len(keys), edges)
	for _, k := range keys {
		fmt.Fprintf(&b, "fn %s\n", k)
		for _, e := range g.Out(k) {
			flags := ""
			if e.Go {
				flags += " go"
			}
			if e.ViaLit {
				flags += " lit"
			}
			fmt.Fprintf(&b, "  -> %s [%s%s]\n", e.Callee, e.Kind, flags)
		}
	}
	return b.String()
}
