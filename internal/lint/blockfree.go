package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// BlockfreeAnalyzer proves the hot-path region (same region as
// allocfree) never blocks: no channel operations, no time.Sleep or
// timer waits, no lock acquisition, no sync waits, and no call that
// cannot be proven non-blocking. A data plane that parks a goroutine
// per packet is not a data plane.
var BlockfreeAnalyzer = &Analyzer{
	Name:      "blockfree",
	Doc:       "the hot-path root set must be transitively non-blocking",
	RunModule: runBlockfree,
}

func runBlockfree(pkgs []*Package) []Finding {
	if len(pkgs) == 0 {
		return nil
	}
	cg := BuildCallGraph(pkgs)
	region, findings := buildHotRegion(pkgs, cg)
	// buildHotRegion reports malformed coldpath annotations under the
	// allocfree rule; allocfree owns those, don't duplicate them here.
	findings = findings[:0]
	mod := pkgs[0].ModulePath

	for _, hf := range region.funcs {
		node := cg.Nodes[hf.key]
		report := func(n ast.Node, msg string) {
			findings = append(findings, hotFinding("blockfree", node.Pkg, n, hf.chain, msg))
		}
		scanBlockBody(node.Pkg, node.Decl, cg, mod, report)
	}
	return findings
}

// scanBlockBody walks one hot function body reporting blocking constructs.
func scanBlockBody(pkg *Package, fd *ast.FuncDecl, cg *CallGraph, mod string, report func(ast.Node, string)) {
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return // runs only if invoked; invocation sites are flagged
		case *ast.GoStmt:
			return // spawning never blocks the spawner
		case *ast.DeferStmt:
			walk(n.Call) // runs at return, still on the hot goroutine
			return
		case *ast.SendStmt:
			report(n, "channel send may block")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(n, "channel receive may block")
			}
		case *ast.RangeStmt:
			if tv, ok := pkg.Info.Types[n.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					report(n, "range over a channel blocks until close")
				}
			}
		case *ast.SelectStmt:
			// The select blocks (or not) as a unit; its comm sends/receives
			// never block individually, so only their operand expressions
			// are scanned.
			if !selectHasDefault(n) {
				report(n, "select without default may block")
			}
			for _, cl := range n.Body.List {
				cc := cl.(*ast.CommClause)
				walkCommOperands(cc.Comm, walk)
				for _, s := range cc.Body {
					walk(s)
				}
			}
			return
		case *ast.CallExpr:
			scanBlockCall(pkg, n, cg, mod, report, walk)
			return
		}
		for _, c := range astChildren(n) {
			walk(c)
		}
	}
	walk(fd.Body)
}

// scanBlockCall classifies one call expression on the hot path.
func scanBlockCall(pkg *Package, call *ast.CallExpr, cg *CallGraph, mod string, report func(ast.Node, string), walk func(ast.Node)) {
	walkRest := func() {
		walk(call.Fun)
		for _, a := range call.Args {
			walk(a)
		}
	}
	if isBuiltinPanic(pkg, call) {
		return
	}
	if isConversion(pkg, call) {
		for _, a := range call.Args {
			walk(a)
		}
		return
	}
	fun := unwrapIndex(ast.Unparen(call.Fun))
	if lit, ok := fun.(*ast.FuncLit); ok {
		walk(lit.Body)
		for _, a := range call.Args {
			walk(a)
		}
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if _, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			for _, a := range call.Args {
				walk(a)
			}
			return
		}
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s, ok := pkg.Info.Selections[sel]; ok && types.IsInterface(s.Recv()) {
			if len(cg.IfaceTargets(pkg, call)) == 0 {
				report(call, "interface method call resolves to no loaded implementation; cannot be proven non-blocking")
			}
			walkRest()
			return
		}
	}
	if fn := calleeFunc(pkg, call); fn != nil {
		if msg := blockingStdCall(fn); msg != "" {
			report(call, msg)
		} else if path := funcPkgPath(fn); path != "" && !inModulePath(path, mod) && !nonBlockingStdCall(fn) {
			report(call, fmt.Sprintf("call into %s cannot be proven non-blocking", funcKey(fn)))
		}
		walkRest()
		return
	}
	report(call, "call through a function value cannot be proven non-blocking")
	walkRest()
}

// nonBlockingStdCall whitelists the out-of-module calls that are
// non-blocking by specification. All of sync/atomic: its operations are
// hardware load/store/RMW instructions with no lock, no park, no syscall
// — the primitive the dataplane's lock-free snapshot readers rely on
// being exactly as cheap as advertised. And releasing a mutex: the
// matching acquire is the finding (blockingStdCall), the release never
// waits.
func nonBlockingStdCall(fn *types.Func) bool {
	if funcPkgPath(fn) == "sync/atomic" {
		return true
	}
	return isSyncMutex(recvNamed(fn)) && (fn.Name() == "Unlock" || fn.Name() == "RUnlock")
}

func isSyncMutex(n *types.Named) bool {
	return namedIs(n, "sync", "Mutex") || namedIs(n, "sync", "RWMutex")
}

// blockingStdCall names well-known blocking standard-library calls; ""
// for anything else.
func blockingStdCall(fn *types.Func) string {
	if funcPkgPath(fn) == "time" && fn.Name() == "Sleep" {
		return "time.Sleep parks the goroutine"
	}
	r := recvNamed(fn)
	switch {
	case isSyncMutex(r) && (fn.Name() == "Lock" || fn.Name() == "RLock"):
		return fmt.Sprintf("sync.%s.%s waits for the lock's holder", r.Obj().Name(), fn.Name())
	case namedIs(r, "sync", "WaitGroup") && fn.Name() == "Wait":
		return "sync.WaitGroup.Wait may block"
	case namedIs(r, "sync", "Cond") && fn.Name() == "Wait":
		return "sync.Cond.Wait blocks"
	case namedIs(r, "sync", "Once") && fn.Name() == "Do":
		return "sync.Once.Do may block behind the first caller"
	}
	return ""
}

// walkCommOperands visits the subexpressions of a select comm statement
// while skipping the top-level send/receive operation itself.
func walkCommOperands(comm ast.Stmt, walk func(ast.Node)) {
	skipArrow := func(e ast.Expr) {
		if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			walk(u.X)
			return
		}
		walk(e)
	}
	switch c := comm.(type) {
	case nil:
	case *ast.SendStmt:
		walk(c.Chan)
		walk(c.Value)
	case *ast.ExprStmt:
		skipArrow(c.X)
	case *ast.AssignStmt:
		for _, l := range c.Lhs {
			walk(l)
		}
		for _, r := range c.Rhs {
			skipArrow(r)
		}
	default:
		walk(comm)
	}
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
