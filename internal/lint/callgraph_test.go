package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildFixtureGraph type-checks src as one package and builds its call
// graph (no analyzers involved).
func buildFixtureGraph(t *testing.T, pkgPath, filename, src string) *CallGraph {
	t.Helper()
	pkg, err := getLoader(t).CheckSource(pkgPath, map[string]string{filename: src})
	if err != nil {
		t.Fatalf("fixture %s does not type-check: %v", filename, err)
	}
	return BuildCallGraph([]*Package{pkg})
}

// wantEdge asserts that exactly one caller→callee edge exists and has the
// given kind and flags.
func wantEdge(t *testing.T, g *CallGraph, caller, callee string, kind CGEdgeKind, goFlag, litFlag bool) {
	t.Helper()
	for _, e := range g.Out(caller) {
		if e.Callee != callee {
			continue
		}
		if e.Kind != kind || e.Go != goFlag || e.ViaLit != litFlag {
			t.Errorf("edge %s -> %s: got [%v go=%v lit=%v], want [%v go=%v lit=%v]",
				caller, callee, e.Kind, e.Go, e.ViaLit, kind, goFlag, litFlag)
		}
		return
	}
	t.Errorf("no edge %s -> %s; out-edges: %v", caller, callee, g.Out(caller))
}

// TestCallGraphHotpathGolden pins the call graph of internal/packet, the
// package the rewrite hot path lives on. A diff means a function or call
// was added to (or removed from) the per-packet path; regenerate with
// `go test ./internal/lint -run CallGraphHotpathGolden -update` only
// after checking the new shape against the allocfree/blockfree proofs.
func TestCallGraphHotpathGolden(t *testing.T) {
	l := getLoader(t)
	pkg, err := l.LoadDir(filepath.Join(l.ModuleRoot, "internal/packet"))
	if err != nil {
		t.Fatalf("LoadDir internal/packet: %v", err)
	}
	got := FormatCallGraph(BuildCallGraph([]*Package{pkg}), nil)
	golden := filepath.Join("testdata", "callgraph_hotpath.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("call graph diverges from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

const cgFixturePkg = "repro/fixture/internal/netsim"

func TestCallGraphEdgeKinds(t *testing.T) {
	g := buildFixtureGraph(t, cgFixturePkg, "cg.go", `
package netsim

type doer interface{ do() }

type impl struct{ n int }

func (i impl) do() { i.n++ }

func use(d doer) { d.do() }

func mk() { use(impl{}) }

func target() {}

func dyn(f func()) { f() }

func reg() { dyn(target) }

func worker() {}

func spawn() { go worker() }

func helper() {}

func holds() func() {
	return func() { helper() }
}

func orphan(f func(int)) { f(1) }
`)
	p := cgFixturePkg
	// Static call.
	wantEdge(t, g, p+".mk", p+".use", CGStatic, false, false)
	// Interface call resolved by RTA: impl is live (composite literal in
	// mk) and satisfies doer structurally.
	wantEdge(t, g, p+".use", p+".impl.do", CGIface, false, false)
	// Dynamic call through a function value: target is bound (passed as a
	// value in reg) with a matching signature.
	wantEdge(t, g, p+".reg", p+".dyn", CGStatic, false, false)
	wantEdge(t, g, p+".dyn", p+".target", CGDynamic, false, false)
	// go statement.
	wantEdge(t, g, p+".spawn", p+".worker", CGStatic, true, false)
	// Call inside a non-invoked function literal.
	wantEdge(t, g, p+".holds", p+".helper", CGStatic, false, true)
	// Dynamic call with no bound candidate of that signature.
	wantEdge(t, g, p+".orphan", CGIndirect, CGDynamic, false, false)
}

func TestCallGraphUnresolvedIfaceEdge(t *testing.T) {
	g := buildFixtureGraph(t, cgFixturePkg, "cg.go", `
package netsim

type sink interface{ drain(n int) }

func pour(s sink) { s.drain(1) }
`)
	// No live implementation: the edge targets the interface method key
	// itself, so the scanners can tell "unresolved" from "no call".
	wantEdge(t, g, cgFixturePkg+".pour", cgFixturePkg+".sink.drain", CGIface, false, false)
}

func TestFormatCallGraphFilter(t *testing.T) {
	g := buildFixtureGraph(t, cgFixturePkg, "cg.go", `
package netsim

func a() { b() }
func b() {}
`)
	out := FormatCallGraph(g, func(pkgPath string) bool { return pkgPath == cgFixturePkg })
	for _, want := range []string{"fn " + cgFixturePkg + ".a", "-> " + cgFixturePkg + ".b [static]"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted graph missing %q:\n%s", want, out)
		}
	}
	if out != "" && FormatCallGraph(g, func(string) bool { return false }) == out {
		t.Error("filter has no effect")
	}
}
