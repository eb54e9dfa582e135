package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The enum lattice: a branch-sensitive forward analysis tracking, for
// stable expressions of module-local enum type (x, s.mode, p.kind, …),
// the set of constants the expression may currently hold. It powers
// statexhaust (which states can actually reach a switch).
//
// The domain is finite per expression — the enum's declared constants —
// so ⊤ (absent key) can always be materialized into the full set when a
// != refinement needs a complement. Soundness over precision: any call,
// any address-of, and any assignment with an untracked right-hand side
// drops knowledge.

// constSet is a set of constant values (exact strings); the enum they
// belong to travels alongside in enumFact entries.
type constSet map[string]bool

func (s constSet) clone() constSet {
	c := make(constSet, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

type enumEntry struct {
	enum *types.Named
	vals constSet
}

// enumFact maps stable-expression keys to their possible values. A nil
// map and an absent key both mean ⊤ (no knowledge).
type enumFact map[string]enumEntry

// enumLattice implements Lattice[enumFact] for one package.
type enumLattice struct {
	pkg *Package
}

// isStableExpr reports whether e is an ident/selector chain — an
// expression whose value is unchanged unless explicitly assigned or
// potentially aliased by a call.
func isStableExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return true
	case *ast.SelectorExpr:
		return isStableExpr(e.X)
	case *ast.ParenExpr:
		return isStableExpr(e.X)
	}
	return false
}

// enumExprKey returns the tracking key for a stable expression of
// module-local enum type, with the enum's metadata; ok=false otherwise.
func (l *enumLattice) enumExprKey(e ast.Expr) (string, *types.Named, []enumConst, bool) {
	if !isStableExpr(e) {
		return "", nil, nil, false
	}
	tv, ok := l.pkg.Info.Types[e]
	if !ok {
		return "", nil, nil, false
	}
	enum, consts := moduleEnum(l.pkg, tv.Type)
	if enum == nil {
		return "", nil, nil, false
	}
	return types.ExprString(e), enum, consts, true
}

// allVals materializes the full constant set of an enum.
func allVals(consts []enumConst) constSet {
	s := make(constSet, len(consts))
	for _, c := range consts {
		s[c.val] = true
	}
	return s
}

// constValOf returns the exact constant value of e if it is a constant of
// the given enum type.
func (l *enumLattice) constValOf(e ast.Expr, enum *types.Named) (string, bool) {
	tv, ok := l.pkg.Info.Types[e]
	if !ok || tv.Value == nil || !types.Identical(tv.Type, enum) {
		return "", false
	}
	return tv.Value.ExactString(), true
}

func (l *enumLattice) Entry() enumFact { return nil }

// hasCallOrAddr reports whether n contains a function call (not a
// conversion) or an address-of — either can invalidate tracked state.
func (l *enumLattice) hasCallOrAddr(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			if !isConversion(l.pkg, m) {
				found = true
			}
		case *ast.UnaryExpr:
			if m.Op == token.AND {
				found = true
			}
		}
		return !found
	})
	return found
}

// kill removes knowledge about an assigned expression and everything
// reached through it (assigning rc kills rc.State).
func killKey(f enumFact, key string) enumFact {
	if f == nil {
		return nil
	}
	g := make(enumFact, len(f))
	for k, v := range f {
		if k == key || len(k) > len(key) && k[:len(key)] == key && k[len(key)] == '.' {
			continue
		}
		g[k] = v
	}
	return g
}

func (l *enumLattice) Transfer(n ast.Node, f enumFact) enumFact {
	// Calls and aliasing first: they wipe everything.
	if l.hasCallOrAddr(n) {
		return nil
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			lhs = ast.Unparen(lhs)
			if !isStableExpr(lhs) {
				continue
			}
			key := types.ExprString(lhs)
			f = killKey(f, key)
			// Learn x = Const when the shapes line up.
			if len(n.Lhs) == len(n.Rhs) {
				if _, enum, _, ok := l.enumExprKey(lhs); ok {
					if v, ok := l.constValOf(n.Rhs[i], enum); ok {
						g := make(enumFact, len(f)+1)
						for k, e := range f {
							g[k] = e
						}
						g[key] = enumEntry{enum: enum, vals: constSet{v: true}}
						f = g
					}
				}
			}
		}
		return f
	case *ast.IncDecStmt:
		if isStableExpr(n.X) {
			return killKey(f, types.ExprString(ast.Unparen(n.X)))
		}
	case *ast.RangeStmt:
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if e != nil && isStableExpr(e) {
				f = killKey(f, types.ExprString(ast.Unparen(e)))
			}
		}
		return f
	}
	return f
}

// triBool is three-valued truth for abstract condition evaluation.
type triBool int8

const (
	triUnknown triBool = iota
	triTrue
	triFalse
)

func triNot(t triBool) triBool {
	switch t {
	case triTrue:
		return triFalse
	case triFalse:
		return triTrue
	case triUnknown:
	}
	return triUnknown
}

func triAnd(a, b triBool) triBool {
	if a == triFalse || b == triFalse {
		return triFalse
	}
	if a == triTrue && b == triTrue {
		return triTrue
	}
	return triUnknown
}

func triOr(a, b triBool) triBool {
	if a == triTrue || b == triTrue {
		return triTrue
	}
	if a == triFalse && b == triFalse {
		return triFalse
	}
	return triUnknown
}

// evalCond evaluates cond assuming the tracked expression key holds val,
// with every other subexpression unknown. This is stronger than conjunct
// splitting: it decides `a || (x != A && x != B)` per candidate value of
// x, so the fall-through of a compound guard still narrows x to {A, B}.
func (l *enumLattice) evalCond(cond ast.Expr, key string, enum *types.Named, val string) triBool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			return triNot(l.evalCond(e.X, key, enum, val))
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			return triAnd(l.evalCond(e.X, key, enum, val), l.evalCond(e.Y, key, enum, val))
		case token.LOR:
			return triOr(l.evalCond(e.X, key, enum, val), l.evalCond(e.Y, key, enum, val))
		case token.EQL, token.NEQ:
			x, c := ast.Unparen(e.X), ast.Unparen(e.Y)
			k, kEnum, _, ok := l.enumExprKey(x)
			if !ok || k != key {
				x, c = c, x
				k, kEnum, _, ok = l.enumExprKey(x)
			}
			if !ok || k != key || kEnum != enum {
				return triUnknown
			}
			v, ok := l.constValOf(c, enum)
			if !ok {
				return triUnknown
			}
			if (val == v) == (e.Op == token.EQL) {
				return triTrue
			}
			return triFalse
		}
	}
	return triUnknown
}

// enumKeysIn collects the tracked enum expressions appearing in cond, in
// first-appearance order.
func (l *enumLattice) enumKeysIn(cond ast.Expr) []condKey {
	var out []condKey
	seen := map[string]bool{}
	ast.Inspect(cond, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if key, enum, consts, ok := l.enumExprKey(e); ok && !seen[key] {
			seen[key] = true
			out = append(out, condKey{key: key, enum: enum, consts: consts})
		}
		return true
	})
	return out
}

type condKey struct {
	key    string
	enum   *types.Named
	consts []enumConst
}

// refineCond narrows f along a True/False branch edge: for each tracked
// enum expression in the condition, values that force the condition to
// the wrong truth are excluded.
func (l *enumLattice) refineCond(f enumFact, cond ast.Expr, want bool) (enumFact, bool) {
	wrong := triFalse
	if !want {
		wrong = triTrue
	}
	for _, ck := range l.enumKeysIn(cond) {
		cur, known := lookup(f, ck.key)
		if !known {
			cur = enumEntry{enum: ck.enum, vals: allVals(ck.consts)}
		}
		next := constSet{}
		for val := range cur.vals {
			if l.evalCond(cond, ck.key, ck.enum, val) != wrong {
				next[val] = true
			}
		}
		if len(next) == len(cur.vals) {
			continue // nothing excluded
		}
		if len(next) == 0 {
			return nil, false // contradiction: edge infeasible
		}
		g := make(enumFact, len(f)+1)
		for k, e := range f {
			g[k] = e
		}
		g[ck.key] = enumEntry{enum: ck.enum, vals: next}
		f = g
	}
	return f, true
}

func lookup(f enumFact, key string) (enumEntry, bool) {
	if f == nil {
		return enumEntry{}, false
	}
	e, ok := f[key]
	return e, ok
}

func (l *enumLattice) Refine(e Edge, f enumFact) (enumFact, bool) {
	switch e.Kind {
	case EdgeTrue, EdgeFalse:
		return l.refineCond(f, e.Cond, e.Kind == EdgeTrue)
	case EdgePlain:
		// No condition to refine along an unconditional edge.
	case EdgeCase, EdgeDefault:
		if e.Tag == nil {
			return f, true
		}
		key, enum, consts, ok := l.enumExprKey(ast.Unparen(e.Tag))
		if !ok {
			return f, true
		}
		cur, known := lookup(f, key)
		if !known {
			cur = enumEntry{enum: enum, vals: allVals(consts)}
		}
		next := constSet{}
		if e.Kind == EdgeCase {
			for _, ce := range e.Cases {
				if v, ok := l.constValOf(ce, enum); ok && cur.vals[v] {
					next[v] = true
				} else if !ok {
					return f, true // non-constant case: no refinement
				}
			}
		} else {
			next = cur.vals.clone()
			for _, ce := range e.Cases {
				if v, ok := l.constValOf(ce, enum); ok {
					delete(next, v)
				}
			}
		}
		if len(next) == 0 {
			return nil, false
		}
		g := make(enumFact, len(f)+1)
		for k, en := range f {
			g[k] = en
		}
		g[key] = enumEntry{enum: enum, vals: next}
		return g, true
	}
	return f, true
}

func (l *enumLattice) Join(a, b enumFact) enumFact {
	if a == nil || b == nil {
		return nil
	}
	j := enumFact{}
	for k, ea := range a {
		eb, ok := b[k]
		if !ok {
			continue // ⊤ in b
		}
		u := ea.vals.clone()
		for v := range eb.vals {
			u[v] = true
		}
		j[k] = enumEntry{enum: ea.enum, vals: u}
	}
	if len(j) == 0 {
		return nil
	}
	return j
}

func (l *enumLattice) Equal(a, b enumFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k, ea := range a {
		eb, ok := b[k]
		if !ok || len(ea.vals) != len(eb.vals) {
			return false
		}
		for v := range ea.vals {
			if !eb.vals[v] {
				return false
			}
		}
	}
	return true
}

// funcBodies yields every function body in a file (declarations and
// literals) for per-function CFG analyses.
func funcBodies(f *ast.File, visit func(name string, body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				visit(n.Name.Name, n.Body)
			}
		case *ast.FuncLit:
			visit("func literal", n.Body)
		}
		return true
	})
}
