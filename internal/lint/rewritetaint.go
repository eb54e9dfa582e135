package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// RewritetaintAnalyzer checks the invariant at the heart of the agent
// datapath: a packet that arrives from the wire carries subsession
// coordinates — its five-tuple, sequence, and acknowledgment numbers are
// in the neighboring subsession's space — and must be translated before
// it is re-emitted. Forwarding an untranslated packet silently corrupts
// the byte stream (the §3.4/§3.5 delta machinery exists precisely so this
// never happens), so every path from a packet-ingress root to a send sink
// must pass the packet through a translation helper first.
//
// Roots: functions registered with Host.AddIngressHook (named functions,
// function literals, and literals bound to a local variable first), plus
// any module function named ingressHook. Their packet parameter starts
// tainted.
//
// Sinks: the Send/SendDirect/DeliverLocal methods of the
// module-local Host type. Passing a tainted packet to one is a finding.
//
// Sanitizers: Packet.RewriteTuple (the tuple translation primitive) and
// module functions named applyIngress/applyEgress (the delta appliers,
// which end in RewriteTuple) clear the taint of their packet
// argument/receiver.
//
// Taint propagates through assignments, range statements, and the static
// call graph (a tainted argument taints the callee's parameter, and the
// callee is re-analyzed). The per-function pass is a may-analysis on the
// CFG: union at joins, so a packet sanitized on only one branch is still
// tainted after the merge. Calls through interfaces and function values
// are not followed, and function literals other than hook roots run in
// contexts this analysis does not model (timers, defers) — both are
// deliberate soundness holes kept narrow by the datapath's shape.
var RewritetaintAnalyzer = &Analyzer{
	Name:      "rewritetaint",
	Doc:       "packets reaching a send sink from an ingress root must be translated (RewriteTuple/applyIngress/applyEgress) first",
	RunModule: runRewritetaint,
}

// taintSinkMethods are the Host methods that put a packet on the wire (or
// hand it to the local stack, which trusts session coordinates).
var taintSinkMethods = map[string]bool{
	"Send": true, "SendDirect": true, "DeliverLocal": true,
}

// isModuleLocalNamed reports whether n is defined inside the module.
func isModuleLocalNamed(n *types.Named, mod string) bool {
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	p := n.Obj().Pkg().Path()
	return p == mod || len(p) > len(mod) && p[:len(mod)] == mod && p[len(mod)] == '/'
}

// isTrackedPacketType reports whether t carries packet data the analysis
// must follow: the module-local Packet type, pointers to it, and slices
// or arrays of those (App.Process returns []*Packet).
func isTrackedPacketType(t types.Type, mod string) bool {
	switch t := t.(type) {
	case *types.Pointer:
		return isTrackedPacketType(t.Elem(), mod)
	case *types.Slice:
		return isTrackedPacketType(t.Elem(), mod)
	case *types.Array:
		return isTrackedPacketType(t.Elem(), mod)
	case *types.Named:
		return t.Obj().Name() == "Packet" && isModuleLocalNamed(t, mod)
	}
	return false
}

// taintFact is the set of tainted packet-carrying identifiers in scope.
type taintFact map[string]bool

type taintLattice struct {
	pkg   *Package
	mod   string
	entry taintFact
}

func (l *taintLattice) Entry() taintFact {
	e := make(taintFact, len(l.entry))
	for k := range l.entry {
		e[k] = true
	}
	return e
}

// exprTaints reports whether evaluating e can yield tainted packet data:
// some identifier of e is tainted.
func exprTaints(f taintFact, e ast.Expr) bool {
	if len(f) == 0 {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && f[id.Name] {
			found = true
		}
		return !found
	})
	return found
}

// sanitizeTargets returns the identifiers whose taint the call clears:
// the receiver of Packet.RewriteTuple, or the first packet argument of a
// module function named applyIngress/applyEgress.
func sanitizeTargets(pkg *Package, mod string, call *ast.CallExpr) []*ast.Ident {
	fn := calleeFunc(pkg, call)
	if fn == nil {
		return nil
	}
	switch fn.Name() {
	case "RewriteTuple":
		if r := recvNamed(fn); r != nil && r.Obj().Name() == "Packet" && isModuleLocalNamed(r, mod) {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
					return []*ast.Ident{id}
				}
			}
		}
	case "applyIngress", "applyEgress":
		if !inModulePath(funcPkgPath(fn), mod) {
			return nil
		}
		for _, arg := range call.Args {
			if tv, ok := pkg.Info.Types[arg]; ok && isTrackedPacketType(tv.Type, mod) {
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
					return []*ast.Ident{id}
				}
				return nil
			}
		}
	}
	return nil
}

// applyCallEffects threads sanitizer calls through a fact in source order.
func (l *taintLattice) applyCallEffects(n ast.Node, f taintFact) taintFact {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			for _, id := range sanitizeTargets(l.pkg, l.mod, m) {
				if f[id.Name] {
					g := make(taintFact, len(f))
					for k := range f {
						g[k] = true
					}
					delete(g, id.Name)
					f = g
				}
			}
		}
		return true
	})
	return f
}

func (l *taintLattice) Transfer(n ast.Node, f taintFact) taintFact {
	f = l.applyCallEffects(n, f)
	set := func(id *ast.Ident, tainted bool) {
		if f[id.Name] == tainted {
			return
		}
		g := make(taintFact, len(f)+1)
		for k := range f {
			g[k] = true
		}
		if tainted {
			g[id.Name] = true
		} else {
			delete(g, id.Name)
		}
		f = g
	}
	assign := func(lhs, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		// A plain assignment target is an expression (Info.Types); a :=
		// definition is only in Info.Defs — check both.
		var typ types.Type
		if tv, ok := l.pkg.Info.Types[id]; ok {
			typ = tv.Type
		} else if obj := l.pkg.Info.ObjectOf(id); obj != nil {
			typ = obj.Type()
		}
		if typ == nil || !isTrackedPacketType(typ, l.mod) {
			return
		}
		set(id, rhs != nil && exprTaints(f, rhs))
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) {
			for i := range n.Lhs {
				assign(n.Lhs[i], n.Rhs[i])
			}
		} else {
			// x, ok := call(...): every packet-typed lhs follows the rhs.
			for _, lhs := range n.Lhs {
				assign(lhs, n.Rhs[0])
			}
		}
	case *ast.RangeStmt:
		if n.Key != nil {
			assign(n.Key, n.X)
		}
		if n.Value != nil {
			assign(n.Value, n.X)
		}
	}
	return f
}

func (l *taintLattice) Refine(e Edge, f taintFact) (taintFact, bool) { return f, true }

func (l *taintLattice) Join(a, b taintFact) taintFact {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	j := make(taintFact, len(a)+len(b))
	for k := range a {
		j[k] = true
	}
	for k := range b {
		j[k] = true
	}
	return j
}

func (l *taintLattice) Equal(a, b taintFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// taintWork is one (function, tainted-parameter-mask) analysis obligation.
type taintWork struct {
	key  string
	mask uint64
}

func runRewritetaint(pkgs []*Package) []Finding {
	if len(pkgs) == 0 {
		return nil
	}
	mod := pkgs[0].ModulePath

	// Index of module function declarations by cross-package string key.
	type fnInfo struct {
		pkg  *Package
		decl *ast.FuncDecl
	}
	index := map[string]fnInfo{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						index[funcKey(fn)] = fnInfo{pkg: pkg, decl: fd}
					}
				}
			}
		}
	}

	// Roots. Literal roots are analyzed in place; named roots enter the
	// interprocedural worklist with their first packet parameter tainted.
	taintedMask := map[string]uint64{}
	var queue []taintWork
	enqueue := func(key string, mask uint64) {
		if mask == 0 || mask&^taintedMask[key] == 0 {
			return
		}
		taintedMask[key] |= mask
		queue = append(queue, taintWork{key: key, mask: taintedMask[key]})
	}
	firstPacketParamMask := func(pkg *Package, ft *ast.FuncType) uint64 {
		pos := 0
		for _, field := range ft.Params.List {
			n := len(field.Names)
			if n == 0 {
				n = 1
			}
			tv, ok := pkg.Info.Types[field.Type]
			if ok && isTrackedPacketType(tv.Type, mod) {
				return 1 << uint(pos)
			}
			pos += n
		}
		return 0
	}
	type litRoot struct {
		pkg *Package
		lit *ast.FuncLit
	}
	var litRoots []litRoot
	seenLit := map[*ast.FuncLit]bool{}
	addLit := func(pkg *Package, lit *ast.FuncLit) {
		if lit != nil && !seenLit[lit] {
			seenLit[lit] = true
			litRoots = append(litRoots, litRoot{pkg: pkg, lit: lit})
		}
	}
	// resolveHookArg maps an AddIngressHook argument to a root.
	resolveHookArg := func(pkg *Package, file *ast.File, arg ast.Expr) {
		switch a := ast.Unparen(arg).(type) {
		case *ast.FuncLit:
			addLit(pkg, a)
		case *ast.Ident:
			obj, ok := pkg.Info.Uses[a]
			if !ok {
				return
			}
			if fn, ok := obj.(*types.Func); ok {
				if info, ok := index[funcKey(fn)]; ok {
					enqueue(funcKey(fn), firstPacketParamMask(info.pkg, info.decl.Type))
				}
				return
			}
			// hook := func(...){...}; AddIngressHook(hook): find the
			// literal the local variable is bound to.
			ast.Inspect(file, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != len(as.Rhs) {
					return true
				}
				for i, lhs := range as.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					if def, ok := pkg.Info.Defs[id]; ok && def == obj {
						if lit, ok := ast.Unparen(as.Rhs[i]).(*ast.FuncLit); ok {
							addLit(pkg, lit)
						}
					}
				}
				return true
			})
		case *ast.SelectorExpr:
			if sel, ok := pkg.Info.Selections[a]; ok {
				if fn, ok := sel.Obj().(*types.Func); ok {
					if info, ok := index[funcKey(fn)]; ok {
						enqueue(funcKey(fn), firstPacketParamMask(info.pkg, info.decl.Type))
					}
				}
			}
		}
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				fn := calleeFunc(pkg, call)
				if fn == nil || fn.Name() != "AddIngressHook" {
					return true
				}
				if r := recvNamed(fn); r == nil || r.Obj().Name() != "Host" || !isModuleLocalNamed(r, mod) {
					return true
				}
				resolveHookArg(pkg, file, call.Args[0])
				return true
			})
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil && fd.Name.Name == "ingressHook" {
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						enqueue(funcKey(fn), firstPacketParamMask(pkg, fd.Type))
					}
				}
			}
		}
	}

	// Interprocedural worklist. A function is (re-)analyzed whenever the
	// union of tainted parameter masks seen at its call sites grows.
	dedup := map[string]bool{}
	var out []Finding
	record := func(f Finding) {
		k := fmt.Sprintf("%s:%d:%d:%s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Msg)
		if !dedup[k] {
			dedup[k] = true
			out = append(out, f)
		}
	}
	analyzed := map[string]uint64{}
	analyze := func(pkg *Package, name string, ft *ast.FuncType, body *ast.BlockStmt, mask uint64) {
		entry := taintFact{}
		pos := 0
		for _, field := range ft.Params.List {
			names := field.Names
			if len(names) == 0 {
				pos++
				continue
			}
			for _, id := range names {
				if mask&(1<<uint(pos)) != 0 && id.Name != "_" {
					entry[id.Name] = true
				}
				pos++
			}
		}
		lat := &taintLattice{pkg: pkg, mod: mod, entry: entry}
		g := BuildCFG(body)
		ForwardVisit[taintFact](g, lat, func(n ast.Node, before taintFact) {
			f := before
			ast.Inspect(n, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.FuncLit, *ast.DeferStmt:
					return false
				case *ast.CallExpr:
					fn := calleeFunc(pkg, m)
					if fn != nil && taintSinkMethods[fn.Name()] {
						if r := recvNamed(fn); r != nil && r.Obj().Name() == "Host" && isModuleLocalNamed(r, mod) {
							for _, arg := range m.Args {
								tv, ok := pkg.Info.Types[arg]
								if ok && isTrackedPacketType(tv.Type, mod) && exprTaints(f, arg) {
									record(Finding{
										Rule: "rewritetaint",
										Pos:  position(pkg, m),
										Msg: fmt.Sprintf("untranslated packet reaches Host.%s in %s: the five-tuple and seq/ack are still in the neighboring subsession's space; translate via RewriteTuple or applyIngress/applyEgress first",
											fn.Name(), name),
									})
								}
							}
						}
					}
					// Propagate taint into statically-resolved module callees.
					if fn != nil {
						if _, ok := index[funcKey(fn)]; ok {
							var cm uint64
							for i, arg := range m.Args {
								if i >= 64 {
									break
								}
								tv, ok := pkg.Info.Types[arg]
								if ok && isTrackedPacketType(tv.Type, mod) && exprTaints(f, arg) {
									cm |= 1 << uint(i)
								}
							}
							enqueue(funcKey(fn), cm)
						}
					}
					for _, id := range sanitizeTargets(pkg, mod, m) {
						if f[id.Name] {
							g := make(taintFact, len(f))
							for k := range f {
								g[k] = true
							}
							delete(g, id.Name)
							f = g
						}
					}
				}
				return true
			})
		})
	}
	for _, lr := range litRoots {
		analyze(lr.pkg, "ingress hook literal", lr.lit.Type, lr.lit.Body, firstPacketParamMask(lr.pkg, lr.lit.Type))
	}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		if analyzed[w.key] == taintedMask[w.key] {
			continue
		}
		analyzed[w.key] = taintedMask[w.key]
		info, ok := index[w.key]
		if !ok {
			continue
		}
		analyze(info.pkg, w.key, info.decl.Type, info.decl.Body, taintedMask[w.key])
	}
	sort.Slice(out, func(i, j int) bool { return posLess(out[i].Pos, out[j].Pos) })
	return out
}
