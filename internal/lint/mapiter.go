package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MapiterAnalyzer flags `range` over a map whose loop body has an
// externally visible, order-dependent effect: scheduling a simulator event,
// transmitting a packet, sending on a channel, writing output, or emitting
// an obs event (the event log feeds the run's hash). Go map
// iteration order is deliberately randomized, so such a loop makes event
// order differ between two runs with the same seed — breaking trace
// replay, the determinism the internal/model checker assumes, and any
// byte-identical-figure regression test.
//
// The fix is always the same: collect the keys into a slice, sort, and
// iterate the slice. Loops that only read or delete (order-independent
// outcomes) are not flagged.
//
// Effects propagate through same-package calls (a loop calling a local
// helper that transmits is flagged). Calls to function values (callbacks)
// are treated as effectful: the analyzer cannot see their bodies, and in
// this codebase callbacks overwhelmingly schedule or send.
var MapiterAnalyzer = &Analyzer{
	Name: "mapiter",
	Doc:  "no event scheduling, packet sends, or output from map iteration",
	Run:  runMapiter,
}

// effectfulHostMethods transmit or deliver packets on a netsim host.
var effectfulHostMethods = map[string]bool{
	"Send": true, "SendDirect": true,
	"InjectLocal": true, "DeliverLocal": true,
}

// effectfulEngineMethods put events on the simulator queue.
var effectfulEngineMethods = map[string]bool{
	"Schedule": true, "At": true, "Run": true, "RunUntilIdle": true,
}

// effectfulFmtFuncs write to output streams; emitting them in map order
// makes reports differ run to run.
var effectfulFmtFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

func runMapiter(pkg *Package) []Finding {
	if pathHasSuffix(pkg.PkgPath, "internal/lint") {
		return nil
	}
	eff := newEffects(pkg)
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pkg.Info.Types[rs.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if why := eff.bodyEffect(rs.Body); why != "" {
				out = append(out, Finding{
					Rule: "mapiter",
					Pos:  position(pkg, rs),
					Msg: "map iteration order is randomized but the loop body " + why +
						"; sort the keys into a slice first",
				})
			}
			return true
		})
	}
	return out
}

// effects computes which functions of the package have order-visible
// effects, transitively through same-package calls.
type effects struct {
	pkg      *Package
	decls    map[*types.Func]*ast.FuncDecl
	resolved map[*types.Func]string // "" = no effect, else reason
	visiting map[*types.Func]bool
}

func newEffects(pkg *Package) *effects {
	e := &effects{
		pkg:      pkg,
		decls:    make(map[*types.Func]*ast.FuncDecl),
		resolved: make(map[*types.Func]string),
		visiting: make(map[*types.Func]bool),
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				e.decls[fn] = fd
			}
		}
	}
	return e
}

// funcEffect returns why fn is effectful, or "".
func (e *effects) funcEffect(fn *types.Func) string {
	if why, ok := e.resolved[fn]; ok {
		return why
	}
	if e.visiting[fn] {
		return "" // recursion: effect (if any) found on another path
	}
	fd, ok := e.decls[fn]
	if !ok {
		return ""
	}
	e.visiting[fn] = true
	why := e.bodyEffect(fd.Body)
	delete(e.visiting, fn)
	e.resolved[fn] = why
	return why
}

// bodyEffect scans a statement tree (including nested function literals,
// which typically become event callbacks) for order-visible effects.
func (e *effects) bodyEffect(body ast.Node) string {
	var why string
	ast.Inspect(body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			why = "sends on a channel"
			return false
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				why = "receives from a channel"
				return false
			}
		case *ast.SelectStmt:
			why = "performs channel operations"
			return false
		case *ast.GoStmt:
			why = "spawns a goroutine"
			return false
		case *ast.CallExpr:
			if w := e.callEffect(n); w != "" {
				why = w
				return false
			}
		}
		return true
	})
	return why
}

func (e *effects) callEffect(call *ast.CallExpr) string {
	pkg := e.pkg
	if isConversion(pkg, call) {
		return ""
	}
	fn := calleeFunc(pkg, call)
	if fn == nil {
		if isBuiltinCall(pkg, call) {
			return ""
		}
		return "calls a function value whose effects are unknown"
	}
	path := funcPkgPath(fn)
	switch {
	case path == "fmt" && effectfulFmtFuncs[fn.Name()]:
		return "writes output (fmt." + fn.Name() + ")"
	}
	if recv := recvNamed(fn); recv != nil {
		switch {
		case pathIs(recv, "internal/sim", "Engine") && effectfulEngineMethods[fn.Name()]:
			return "schedules simulator events (Engine." + fn.Name() + ")"
		case pathIs(recv, "internal/sim", "Timer") && fn.Name() == "Reset":
			return "schedules simulator events (Timer.Reset)"
		case pathIs(recv, "internal/netsim", "Host") && effectfulHostMethods[fn.Name()]:
			return "transmits packets (Host." + fn.Name() + ")"
		case pathIs(recv, "internal/obs", "Recorder") && strings.HasPrefix(fn.Name(), "Emit"):
			return "emits obs events (Recorder." + fn.Name() + ")"
		}
	}
	if fn.Pkg() != nil && fn.Pkg() == pkg.Types {
		if w := e.funcEffect(fn); w != "" {
			return w + " (via " + fn.Name() + ")"
		}
	}
	return ""
}

// pathIs reports whether recv is the named type suffix.name.
func pathIs(recv *types.Named, suffix, name string) bool {
	if recv.Obj() == nil || recv.Obj().Pkg() == nil {
		return false
	}
	return pathHasSuffix(recv.Obj().Pkg().Path(), suffix) && recv.Obj().Name() == name
}

// isBuiltinCall reports whether the call invokes a builtin (append, delete,
// len, ...).
func isBuiltinCall(pkg *Package, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	obj, ok := pkg.Info.Uses[id]
	if !ok {
		return false
	}
	_, isBuiltin := obj.(*types.Builtin)
	return isBuiltin
}
