package core

import (
	"embed"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
)

// TestStepTablesMatchModel: lockStep and reconfigStep are pure functions
// over two small enums, so calling them on every (from, to) pair is the
// whole relation, and it must be exactly the edges of the model's tables
// (§3.7). It also pins the name join: the model lists one state per enum
// value, in value order (the value after the last renders as the String
// fallback), and model.EventName of state i is what value i renders as in
// the event log.
func TestStepTablesMatchModel(t *testing.T) {
	machines := []struct {
		table model.FSMTable
		name  func(i int) string
		step  func(i, j int) bool
	}{
		{model.LockTable(), func(i int) string { return LockState(i).String() },
			func(i, j int) bool { return lockStep(LockState(i), LockState(j)) }},
		{model.ReconfigTable(), func(i int) string { return ReconfigState(i).String() },
			func(i, j int) bool { return reconfigStep(ReconfigState(i), ReconfigState(j)) }},
	}
	for _, m := range machines {
		states := m.table.States
		if past := m.name(len(states)); !strings.HasSuffix(past, ")") {
			t.Errorf("%s: value %d is the named state %q, but the model lists %d states", m.table.Machine, len(states), past, len(states))
		}
		for i, s := range states {
			if got, want := m.name(i), model.EventName(s); got != want {
				t.Errorf("%s: value %d renders %q, the model's state %s is logged as %q", m.table.Machine, i, got, s, want)
			}
			for j, to := range states {
				if i != j && m.step(i, j) != m.table.HasEdge(s, to) {
					t.Errorf("%s: step %s -> %s allowed=%v, model edge=%v", m.table.Machine, s, to, m.step(i, j), m.table.HasEdge(s, to))
				}
			}
		}
	}
}

// source is the package's source as the test binary was built from it.
//
//go:embed *.go
var source embed.FS

// TestStateFieldsHaveOneWriter holds the funnel fsm.go relies on: in this
// package's non-test files only setLock writes lockState and only
// setState writes rcState (no other identifier in the package has either
// name, so matching the selector's name is complete), and a literal sets
// either field only to one of its machine's initial states.
func TestStateFieldsHaveOneWriter(t *testing.T) {
	setter := map[string]string{"lockState": "setLock", "rcState": "setState"}
	births := map[string][]string{"lockState": model.LockTable().Initials, "rcState": model.ReconfigTable().Initials}
	files, err := source.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		name := file.Name()
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := source.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			write := func(e ast.Expr) {
				if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok && setter[sel.Sel.Name] != "" &&
					(fn == nil || fn.Name.Name != setter[sel.Sel.Name]) {
					t.Errorf("%v: %s written outside %s", fset.Position(sel.Pos()), sel.Sel.Name, setter[sel.Sel.Name])
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						write(lhs)
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						write(n.X)
					}
				case *ast.KeyValueExpr:
					if k, ok := n.Key.(*ast.Ident); ok && births[k.Name] != nil {
						if v, ok := n.Value.(*ast.Ident); !ok || !slices.Contains(births[k.Name], v.Name) {
							t.Errorf("%v: literal births %s in %s, not in an initial state %v", fset.Position(n.Pos()), k.Name, types.ExprString(n.Value), births[k.Name])
						}
					}
				}
				return true
			})
		}
	}
}
