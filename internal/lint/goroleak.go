package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// GoroleakAnalyzer finds `go` statements whose goroutine can block
// forever on a channel that has no reachable counterpart: a receive (or
// range) with no sender and no close anywhere outside the goroutine, or
// an unbuffered send with no receiver. Such a goroutine is pinned for
// the life of the process — in this codebase that is a retry loop or
// drain that outlives its session (the PR 4 oldPathFIN family), leaking
// its stack and everything it captured.
//
// Channels are classified like lockorder's lock classes: a struct field
// (pkg.Type.field), a package variable (pkg.var), or a function-local
// (pkg.func#name). A channel passed as an argument is tracked one
// constraint deep: every call site's argument class flows into the
// callee's parameter, to fixpoint, so `go consumer(ch)` pairs with
// `producer(ch)` through parameters. Operations whose channel cannot be
// classified are skipped — the rule under-approximates rather than
// guess. Ops in a select with a default never block; a select without
// default is flagged only when none of its cases has a counterpart.
var GoroleakAnalyzer = &Analyzer{
	Name:      "goroleak",
	Doc:       "a spawned goroutine must not be able to block forever on a channel nobody else touches",
	RunModule: runGoroleak,
}

type chanOpKind uint8

const (
	opSend chanOpKind = iota
	opRecv
	opClose
	opRange
)

func (k chanOpKind) String() string {
	switch k {
	case opSend:
		return "send"
	case opRecv:
		return "receive"
	case opClose:
		return "close"
	case opRange:
		return "range"
	}
	return "?"
}

// chanOp is one channel operation site.
type chanOp struct {
	class      string // possibly "param:<funcKey>@<i>" before expansion
	kind       chanOpKind
	pos        token.Position
	node       ast.Node
	sel        *ast.SelectStmt // enclosing select clause head, if any
	selDefault bool            // that select has a default (non-blocking)
}

// goFuncIndex locates every declared function for body lookup and
// parameter mapping.
type goFuncDecl struct {
	pkg    *Package
	fd     *ast.FuncDecl
	params map[types.Object]int // channel-typed params -> index
}

func runGoroleak(pkgs []*Package) []Finding {
	if len(pkgs) == 0 {
		return nil
	}

	// Pass 1: function index with channel-typed parameter maps.
	index := map[string]*goFuncDecl{}
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
				g := &goFuncDecl{pkg: pkg, fd: fd, params: map[types.Object]int{}}
				i := 0
				for _, field := range fd.Type.Params.List {
					for _, name := range field.Names {
						if obj := pkg.Info.Defs[name]; obj != nil {
							if _, isChan := obj.Type().Underlying().(*types.Chan); isChan {
								g.params[obj] = i
							}
						}
						i++
					}
					if len(field.Names) == 0 {
						i++
					}
				}
				index[lockFuncKey(fn)] = g
			}
		}
	}

	// Pass 2: module-wide op pool, buffered-make classes, parameter-flow
	// constraints, and go sites.
	var pool []chanOp
	buffered := map[string]bool{}
	flows := map[string]map[string]bool{} // param class -> incoming classes (possibly param:)
	type goSite struct {
		owner *goFuncDecl
		stmt  *ast.GoStmt
	}
	var goSites []goSite
	addFlow := func(dst, src string) {
		if src == "" {
			return
		}
		if flows[dst] == nil {
			flows[dst] = map[string]bool{}
		}
		flows[dst][src] = true
	}
	var fnKeys []string
	for k := range index {
		fnKeys = append(fnKeys, k)
	}
	sort.Strings(fnKeys)
	for _, key := range fnKeys {
		g := index[key]
		collectChanOps(g, func(op chanOp) { pool = append(pool, op) })
		ast.Inspect(g.fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				goSites = append(goSites, goSite{owner: g, stmt: n})
			case *ast.CallExpr:
				// Buffered make: class of the destination it is assigned to
				// is handled at the assignment below; here record flows.
				if fn := calleeFunc(g.pkg, n); fn != nil {
					if callee, ok := index[lockFuncKey(fn)]; ok && len(callee.params) > 0 {
						calleeKey := lockFuncKey(fn)
						sig := fn.Type().(*types.Signature)
						// Method calls: argument i maps to param i.
						for _, idx := range sortedParamIdx(callee.params) {
							if idx < len(n.Args) && idx < sig.Params().Len() {
								addFlow(fmt.Sprintf("param:%s@%d", calleeKey, idx),
									chanClassOf(g.pkg, g, n.Args[idx]))
							}
						}
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if i < len(n.Lhs) && isBufferedMake(g.pkg, rhs) {
						if cls := chanClassOf(g.pkg, g, n.Lhs[i]); cls != "" {
							buffered[cls] = true
						}
					}
				}
			case *ast.ValueSpec:
				for i, v := range n.Values {
					if i < len(n.Names) && isBufferedMake(g.pkg, v) {
						if cls := chanClassOf(g.pkg, g, n.Names[i]); cls != "" {
							buffered[cls] = true
						}
					}
				}
			}
			return true
		})
	}

	// Pass 3: parameter-flow fixpoint, then expand param classes.
	resolved := resolveParamClasses(flows)
	expand := func(cls string) []string {
		if !strings.HasPrefix(cls, "param:") {
			if cls == "" {
				return nil
			}
			return []string{cls}
		}
		return resolved[cls]
	}
	var expandedPool []chanOp
	for _, op := range pool {
		for _, cls := range expand(op.class) {
			e := op
			e.class = cls
			expandedPool = append(expandedPool, e)
		}
	}
	var bufClasses []string
	for cls := range buffered {
		bufClasses = append(bufClasses, cls)
	}
	for _, cls := range bufClasses {
		for _, c := range expand(cls) {
			buffered[c] = true
		}
	}

	// Pass 4: judge each go site.
	var out []Finding
	for _, site := range goSites {
		out = append(out, judgeGoSite(site.owner, site.stmt, index, expandedPool, buffered, expand)...)
	}
	return out
}

func sortedParamIdx(m map[types.Object]int) []int {
	var out []int
	for _, i := range m {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// resolveParamClasses runs the subset-constraint fixpoint and returns,
// per param class, its sorted concrete classes.
func resolveParamClasses(flows map[string]map[string]bool) map[string][]string {
	concrete := map[string]map[string]bool{}
	for p := range flows {
		concrete[p] = map[string]bool{}
	}
	for changed := true; changed; {
		changed = false
		for p, srcs := range flows {
			for s := range srcs {
				if strings.HasPrefix(s, "param:") {
					for c := range concrete[s] {
						if !concrete[p][c] {
							concrete[p][c] = true
							changed = true
						}
					}
				} else if !concrete[p][s] {
					concrete[p][s] = true
					changed = true
				}
			}
		}
	}
	out := map[string][]string{}
	for p, set := range concrete {
		for c := range set {
			out[p] = append(out[p], c)
		}
		sort.Strings(out[p])
	}
	return out
}

// chanClassOf classifies a channel expression; "" means unknown. Param
// channels get the pseudo-class "param:<funcKey>@<i>".
func chanClassOf(pkg *Package, g *goFuncDecl, e ast.Expr) string {
	e = ast.Unparen(e)
	var t types.Type
	if tv, ok := pkg.Info.Types[e]; ok && tv.Type != nil {
		t = tv.Type
	} else if id, ok := e.(*ast.Ident); ok {
		// Defining idents (the LHS of :=) are in Defs but not Types.
		if o := pkg.Info.ObjectOf(id); o != nil {
			t = o.Type()
		}
	}
	if t == nil {
		return ""
	}
	if _, isChan := t.Underlying().(*types.Chan); !isChan {
		return ""
	}
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if s, ok := pkg.Info.Selections[x]; ok {
			recv := s.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if n, ok := recv.(*types.Named); ok && n.Obj().Pkg() != nil {
				return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + x.Sel.Name
			}
			return ""
		}
		if o, ok := pkg.Info.Uses[x.Sel]; ok && o.Pkg() != nil {
			return o.Pkg().Path() + "." + o.Name()
		}
	case *ast.Ident:
		o := pkg.Info.ObjectOf(x)
		if o == nil || o.Pkg() == nil {
			return ""
		}
		if o.Parent() == o.Pkg().Scope() {
			return o.Pkg().Path() + "." + o.Name()
		}
		if idx, ok := g.params[o]; ok {
			fn, _ := pkg.Info.Defs[g.fd.Name].(*types.Func)
			if fn != nil {
				return fmt.Sprintf("param:%s@%d", lockFuncKey(fn), idx)
			}
		}
		fn, _ := pkg.Info.Defs[g.fd.Name].(*types.Func)
		if fn != nil {
			return lockFuncKey(fn) + "#" + o.Name()
		}
	}
	return ""
}

// isBufferedMake reports whether e is make(chan T, n) with n either a
// positive constant or non-constant (assumed buffered: lenient).
func isBufferedMake(pkg *Package, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := pkg.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
		return false
	}
	tv, ok := pkg.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
		return false
	}
	cv, ok := pkg.Info.Types[call.Args[1]]
	if ok && cv.Value != nil {
		if n, exact := constant.Int64Val(cv.Value); exact && n <= 0 {
			return false
		}
	}
	return true
}

// collectChanOps walks one function body (literals included — a callback
// may run on another goroutine, so its ops count as counterparts) and
// yields every channel op with its select context.
func collectChanOps(g *goFuncDecl, visit func(chanOp)) {
	walkChanOps(g, g.fd.Body, nil, false, visit)
}

// walkChanOps emits channel ops under n. sel/selDefault describe the
// nearest enclosing select clause.
func walkChanOps(g *goFuncDecl, n ast.Node, sel *ast.SelectStmt, selDefault bool, visit func(chanOp)) {
	pkg := g.pkg
	emit := func(node ast.Node, e ast.Expr, kind chanOpKind) {
		visit(chanOp{
			class: chanClassOf(pkg, g, e), kind: kind,
			pos: position(pkg, node), node: node, sel: sel, selDefault: selDefault,
		})
	}
	var walk func(m ast.Node)
	walk = func(m ast.Node) {
		if m == nil {
			return
		}
		switch m := m.(type) {
		case *ast.SelectStmt:
			hasDef := selectHasDefault(m)
			for _, c := range m.Body.List {
				cc, ok := c.(*ast.CommClause)
				if !ok {
					continue
				}
				if cc.Comm != nil {
					walkChanOps(g, cc.Comm, m, hasDef, visit)
				}
				for _, s := range cc.Body {
					walk(s)
				}
			}
			return
		case *ast.SendStmt:
			emit(m, m.Chan, opSend)
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				emit(m, m.X, opRecv)
			}
		case *ast.RangeStmt:
			if tv, ok := pkg.Info.Types[m.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					emit(m, m.X, opRange)
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(m.Fun).(*ast.Ident); ok {
				if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "close" && len(m.Args) == 1 {
					emit(m, m.Args[0], opClose)
				}
			}
		}
		for _, c := range astChildren(m) {
			walk(c)
		}
	}
	walk(n)
}

// lineSpan is a file region used to exclude a goroutine's own ops from
// its counterpart search (positions are package-local, so compare by
// file and line, which is stable across universes).
type lineSpan struct {
	file     string
	from, to int
}

func (s lineSpan) contains(p token.Position) bool {
	return p.Filename == s.file && p.Line >= s.from && p.Line <= s.to
}

func nodeSpan(pkg *Package, n ast.Node) lineSpan {
	from := pkg.Fset.Position(n.Pos())
	to := pkg.Fset.Position(n.End())
	return lineSpan{file: from.Filename, from: from.Line, to: to.Line}
}

// judgeGoSite analyzes one `go` statement.
func judgeGoSite(owner *goFuncDecl, stmt *ast.GoStmt, index map[string]*goFuncDecl, pool []chanOp, buffered map[string]bool, expand func(string) []string) []Finding {
	pkg := owner.pkg
	goPos := position(pkg, stmt)

	// Resolve the goroutine body and the op-collection context.
	var body ast.Node
	var bodyG *goFuncDecl
	var span lineSpan
	instance := map[string]string{} // callee param class -> instance class at this go site
	if lit, ok := ast.Unparen(stmt.Call.Fun).(*ast.FuncLit); ok {
		body, bodyG = lit.Body, owner
		span = nodeSpan(pkg, lit)
	} else if fn := calleeFunc(pkg, stmt.Call); fn != nil {
		callee, ok := index[lockFuncKey(fn)]
		if !ok {
			return nil // body not loaded: nothing to prove
		}
		body, bodyG = callee.fd.Body, callee
		span = nodeSpan(callee.pkg, callee.fd)
		for _, idx := range sortedParamIdx(callee.params) {
			if idx < len(stmt.Call.Args) {
				instance[fmt.Sprintf("param:%s@%d", lockFuncKey(fn), idx)] =
					chanClassOf(pkg, owner, stmt.Call.Args[idx])
			}
		}
	} else {
		return nil // dynamic spawn: cannot resolve the body
	}

	// Blocking ops directly on the goroutine: skip nested literals (they
	// may run elsewhere) and nested go statements (separate goroutines).
	var ops []chanOp
	collectDirect(bodyG, body, func(op chanOp) { ops = append(ops, op) })

	// classesOf resolves an op's channel to concrete candidate classes
	// (a param channel may be bound differently per call site).
	classesOf := func(op chanOp) []string {
		cls := op.class
		if c, ok := instance[cls]; ok {
			cls = c
		}
		if cls == "" {
			return nil
		}
		if strings.HasPrefix(cls, "param:") {
			return expand(cls)
		}
		return []string{cls}
	}
	hasCounterpart := func(cls string, kinds ...chanOpKind) bool {
		for _, p := range pool {
			if p.class != cls || span.contains(p.pos) {
				continue
			}
			for _, k := range kinds {
				if p.kind == k {
					return true
				}
			}
		}
		return false
	}
	// satisfied: unknown classes count as satisfied — under-approximate
	// rather than guess; any live candidate binding clears the op.
	satisfied := func(op chanOp) bool {
		classes := classesOf(op)
		if len(classes) == 0 {
			return true
		}
		for _, cls := range classes {
			switch op.kind {
			case opRecv, opRange:
				if hasCounterpart(cls, opSend, opClose) {
					return true
				}
			case opSend:
				if buffered[cls] || hasCounterpart(cls, opRecv, opRange) {
					return true
				}
			case opClose:
				return true // close never blocks
			default:
				panic(fmt.Sprintf("goroleak: unexpected channel op kind %d", op.kind))
			}
		}
		return false
	}

	var out []Finding
	judgedSel := map[*ast.SelectStmt]bool{}
	for _, op := range ops {
		if op.kind == opClose || op.selDefault {
			continue
		}
		if op.sel != nil {
			// A select blocks forever only if every case is dead.
			if judgedSel[op.sel] {
				continue
			}
			judgedSel[op.sel] = true
			dead := true
			for _, other := range ops {
				if other.sel == op.sel && satisfied(other) {
					dead = false
					break
				}
			}
			if dead {
				out = append(out, Finding{Rule: "goroleak", Pos: bodyG.pkg.Fset.Position(op.sel.Pos()),
					Msg: fmt.Sprintf("goroutine started at %s:%d blocks forever: no case of this select has a live counterpart outside the goroutine", goPos.Filename, goPos.Line)})
			}
			continue
		}
		if !satisfied(op) {
			cls := strings.Join(classesOf(op), ", ")
			want := "sender or close"
			if op.kind == opSend {
				want = "receiver"
			}
			out = append(out, Finding{Rule: "goroleak", Pos: op.pos,
				Msg: fmt.Sprintf("goroutine started at %s:%d blocks forever: %s on channel %s has no %s outside the goroutine", goPos.Filename, goPos.Line, op.kind, cls, want)})
		}
	}
	return out
}

// collectDirect yields the channel ops that execute on the goroutine
// itself: nested function literals and nested go statements are skipped.
func collectDirect(g *goFuncDecl, body ast.Node, visit func(chanOp)) {
	pkg := g.pkg
	var walk func(m ast.Node, sel *ast.SelectStmt, selDefault bool)
	emit := func(node ast.Node, e ast.Expr, kind chanOpKind, sel *ast.SelectStmt, selDefault bool) {
		visit(chanOp{class: chanClassOf(pkg, g, e), kind: kind,
			pos: position(pkg, node), node: node, sel: sel, selDefault: selDefault})
	}
	walk = func(m ast.Node, sel *ast.SelectStmt, selDefault bool) {
		if m == nil {
			return
		}
		switch m := m.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return
		case *ast.SelectStmt:
			hasDef := selectHasDefault(m)
			for _, c := range m.Body.List {
				cc, ok := c.(*ast.CommClause)
				if !ok {
					continue
				}
				if cc.Comm != nil {
					walk(cc.Comm, m, hasDef)
				}
				for _, s := range cc.Body {
					walk(s, nil, false)
				}
			}
			return
		case *ast.SendStmt:
			emit(m, m.Chan, opSend, sel, selDefault)
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				emit(m, m.X, opRecv, sel, selDefault)
			}
		case *ast.RangeStmt:
			if tv, ok := pkg.Info.Types[m.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					emit(m, m.X, opRange, sel, selDefault)
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(m.Fun).(*ast.Ident); ok {
				if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "close" && len(m.Args) == 1 {
					emit(m, m.Args[0], opClose, sel, selDefault)
				}
			}
		}
		for _, c := range astChildren(m) {
			walk(c, sel, selDefault)
		}
	}
	walk(body, nil, false)
}
