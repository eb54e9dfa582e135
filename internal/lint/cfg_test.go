package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"
)

// parseFunc parses a single function body for CFG tests (no type info
// needed at this layer).
func parseFunc(t *testing.T, body string) *ast.FuncDecl {
	t.Helper()
	src := "package p\nfunc f(n int) {\n" + body + "\n}\n"
	f, err := parser.ParseFile(token.NewFileSet(), "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f.Decls[0].(*ast.FuncDecl)
}

// intsFact tracks the possible constant values of the variable x as a
// small set; nil means "unknown" (⊤).
type intsFact map[int64]bool

type intsLattice struct{}

func (intsLattice) Entry() intsFact { return nil }

func evalInt(e ast.Expr) (int64, bool) {
	if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.INT {
		v, err := strconv.ParseInt(lit.Value, 0, 64)
		return v, err == nil
	}
	return 0, false
}

func isX(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "x"
}

func (intsLattice) Transfer(n ast.Node, f intsFact) intsFact {
	as, ok := n.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || !isX(as.Lhs[0]) {
		return f
	}
	if v, ok := evalInt(as.Rhs[0]); ok {
		return intsFact{v: true}
	}
	return nil
}

func (intsLattice) Refine(e Edge, f intsFact) (intsFact, bool) {
	refine := func(cond ast.Expr, truth bool) {
		be, ok := cond.(*ast.BinaryExpr)
		if !ok {
			return
		}
		var cmp ast.Expr
		if isX(be.X) {
			cmp = be.Y
		} else if isX(be.Y) {
			cmp = be.X
		} else {
			return
		}
		v, ok := evalInt(cmp)
		if !ok {
			return
		}
		eq := (be.Op == token.EQL) == truth
		if be.Op != token.EQL && be.Op != token.NEQ {
			return
		}
		if eq {
			if f == nil || f[v] {
				f = intsFact{v: true}
			} else {
				f = intsFact{}
			}
		} else if f != nil {
			g := intsFact{}
			for k := range f {
				if k != v {
					g[k] = true
				}
			}
			f = g
		}
	}
	switch e.Kind {
	case EdgeTrue:
		refine(e.Cond, true)
	case EdgeFalse:
		refine(e.Cond, false)
	case EdgeCase:
		if e.Tag != nil && isX(e.Tag) {
			g := intsFact{}
			for _, c := range e.Cases {
				if v, ok := evalInt(c); ok && (f == nil || f[v]) {
					g[v] = true
				}
			}
			f = g
		}
	case EdgeDefault:
		if e.Tag != nil && isX(e.Tag) && f != nil {
			g := intsFact{}
			for k := range f {
				g[k] = true
			}
			for _, c := range e.Cases {
				if v, ok := evalInt(c); ok {
					delete(g, v)
				}
			}
			f = g
		}
	}
	if f != nil && len(f) == 0 {
		return nil, false // contradiction: edge infeasible
	}
	return f, true
}

func (intsLattice) Join(a, b intsFact) intsFact {
	if a == nil || b == nil {
		return nil
	}
	j := intsFact{}
	for k := range a {
		j[k] = true
	}
	for k := range b {
		j[k] = true
	}
	return j
}

func (intsLattice) Equal(a, b intsFact) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// factsAtCalls runs the analysis and returns the fact before each call to
// the named function.
func factsAtCalls(t *testing.T, body, callee string) []intsFact {
	t.Helper()
	fn := parseFunc(t, body)
	g := BuildCFG(fn.Body)
	var out []intsFact
	ForwardVisit[intsFact](g, intsLattice{}, func(n ast.Node, before intsFact) {
		if c, ok := n.(*ast.CallExpr); ok {
			if id, ok := c.Fun.(*ast.Ident); ok && id.Name == callee {
				out = append(out, before)
			}
		}
	})
	return out
}

func wantVals(t *testing.T, f intsFact, vals ...int64) {
	t.Helper()
	if f == nil {
		t.Fatalf("fact is unknown, want %v", vals)
	}
	if len(f) != len(vals) {
		t.Fatalf("fact %v, want %v", f, vals)
	}
	for _, v := range vals {
		if !f[v] {
			t.Fatalf("fact %v missing %d", f, v)
		}
	}
}

func TestDataflowBranchRefinement(t *testing.T) {
	facts := factsAtCalls(t, `
	x := n
	if x != 1 {
		return
	}
	sink(x)
`, "sink")
	if len(facts) != 1 {
		t.Fatalf("got %d sink sites, want 1", len(facts))
	}
	wantVals(t, facts[0], 1)
}

func TestDataflowSwitchEdges(t *testing.T) {
	facts := factsAtCalls(t, `
	x := n
	switch x {
	case 1, 2:
		sink(x)
	case 3:
		sink(x)
	default:
		sink(x)
	}
`, "sink")
	if len(facts) != 3 {
		t.Fatalf("got %d sink sites, want 3", len(facts))
	}
	wantVals(t, facts[0], 1, 2)
	wantVals(t, facts[1], 3)
	if facts[2] != nil {
		t.Fatalf("default fact = %v, want unknown (negative sets untracked)", facts[2])
	}
}

func TestDataflowInfeasibleEdge(t *testing.T) {
	// x is 1; the x == 2 branch is infeasible, so sink is never reached
	// with a known fact — ForwardVisit must not visit it at all.
	facts := factsAtCalls(t, `
	x := 1
	if x == 2 {
		sink(x)
	}
`, "sink")
	if len(facts) != 0 {
		t.Fatalf("infeasible branch visited: %v", facts)
	}
}

func TestDataflowLoopJoin(t *testing.T) {
	facts := factsAtCalls(t, `
	x := 1
	for i := 0; i < n; i++ {
		sink(x)
		x = 2
	}
`, "sink")
	if len(facts) != 1 {
		t.Fatalf("got %d sink sites, want 1", len(facts))
	}
	wantVals(t, facts[0], 1, 2)
}

func TestDataflowUnreachableAfterReturnAndPanic(t *testing.T) {
	for _, body := range []string{
		"x := 1\nreturn\nsink(x)",
		"x := 1\npanic(\"no\")\nsink(x)",
	} {
		if facts := factsAtCalls(t, body, "sink"); len(facts) != 0 {
			t.Fatalf("unreachable sink visited in %q", body)
		}
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	// The labeled break must leave both loops; sink sees x from before the
	// assignment that follows the break.
	facts := factsAtCalls(t, `
	x := 1
outer:
	for {
		for {
			if n == 0 {
				break outer
			}
			x = 2
		}
	}
	sink(x)
`, "sink")
	if len(facts) != 1 {
		t.Fatalf("got %d sink sites, want 1", len(facts))
	}
	wantVals(t, facts[0], 1, 2)
}
