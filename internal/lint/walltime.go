package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// concurrentPkg is the one package under internal/ that runs more than one
// goroutine: the dataplane engine's workers and its lock-free table. Every
// other internal package runs on the single sim.Engine goroutine and is a
// simulator package to this rule — a new package is restricted without
// anyone listing it, and a second concurrent package is a reviewed edit
// here. Matched by path suffix so fixture packages under any module prefix
// participate.
const concurrentPkg = "internal/dataplane"

func isSimulatorPkg(pkgPath string) bool {
	return strings.Contains(pkgPath, "/internal/") && !pathHasSuffix(pkgPath, concurrentPkg)
}

// bannedTimeFuncs are the wall-clock entry points of package time. Duration
// constants and arithmetic (time.Second, time.Duration) remain legal: the
// sim clock is expressed in time.Duration units.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// allowedRandFuncs are the only package-level math/rand functions a
// simulator package may call: constructors for an explicitly seeded
// source. Everything else (rand.Intn, rand.Float64, rand.Seed, ...) uses
// the global, nondeterministically-seeded source.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

// WalltimeAnalyzer enforces that a run is a pure function of its seed:
// inside simulator packages all time comes from sim.Engine.Now, all
// randomness from the engine's seeded *rand.Rand, and nothing introduces a
// second goroutine or the means to talk to one — no go statement, channel
// type, send, receive or select, and no use of sync or sync/atomic.
var WalltimeAnalyzer = &Analyzer{
	Name: "walltime",
	Doc:  "no wall-clock time, unseeded randomness or concurrency in simulator packages (internal/ except internal/dataplane)",
	Run:  runWalltime,
}

func runWalltime(pkg *Package) []Finding {
	if !isSimulatorPkg(pkg.PkgPath) {
		return nil
	}
	var out []Finding
	report := func(n ast.Node, msg string) {
		out = append(out, Finding{Rule: "walltime", Pos: position(pkg, n), Msg: msg})
	}
	concurrency := func(n ast.Node, what string) {
		report(n, what+" in a simulator package: everything under internal/ except "+concurrentPkg+" runs on the one sim.Engine goroutine")
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				concurrency(n, "go statement")
			case *ast.ChanType:
				concurrency(n, "channel type")
			case *ast.SendStmt:
				concurrency(n, "channel send")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					concurrency(n, "channel receive")
				}
			case *ast.SelectStmt:
				concurrency(n, "select")
			case *ast.SelectorExpr:
				// Only package-qualified names: methods on an explicitly
				// seeded *rand.Rand (eng.Rand().Float64()) are fine, and a
				// sync type is one finding where it is named, not one per
				// method call on it.
				id, ok := n.X.(*ast.Ident)
				if !ok {
					return true
				}
				pn, ok := pkg.Info.Uses[id].(*types.PkgName)
				if !ok {
					return true
				}
				name := n.Sel.Name
				switch path := pn.Imported().Path(); path {
				case "time":
					if bannedTimeFuncs[name] {
						report(n, fmt.Sprintf("time.%s leaks wall-clock time into a simulator package; use the sim engine's clock", name))
					}
				case "math/rand":
					// rand.Rand and rand.Source (types) stay legal.
					if _, isFunc := pkg.Info.Uses[n.Sel].(*types.Func); isFunc && !allowedRandFuncs[name] {
						report(n, fmt.Sprintf("rand.%s uses the global unseeded source; draw from the engine's seeded *rand.Rand", name))
					}
				case "sync", "sync/atomic":
					concurrency(n, path+"."+name)
				}
			}
			return true
		})
	}
	return out
}
