package lint

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// mutation is one seeded change to production code and the test that
// must fail on it.
type mutation struct {
	file     string // module-relative path of the mutated file
	old, new string // old must occur exactly once in file
	pkg      string // module-relative directory of the package under test
	test     string // the test that catches the change
}

// retiredWiresafeMutations is the evidence behind retiring the wiresafe
// analyzer (DESIGN.md §6, rule audit). The first six rows are the
// mutations only wiresafe caught before the codec tests re-framed their
// cuts (a truncated frame with a stale IP total length or checksum is
// rejected before any inner guard runs); the OffIPTTL row was caught only
// by a pin that ran on wiresafe's layout extractor. The last two rows
// revert the fix for a checksum bug TestViewMatchesParse found: the raw
// path folded TCP option words at odd offsets as if they were aligned.
// A later rule deletion must bring the same kind of table.
var retiredWiresafeMutations = []mutation{
	{"internal/packet/wire.go", "if len(t) < 20 {", "if len(t) < 12 {",
		"internal/packet", "TestParseTruncationEveryBoundary"},
	{"internal/packet/wire.go", "if len(t) < 8 {", "if len(t) < 4 {",
		"internal/packet", "TestParseTruncationEveryBoundaryUDP"},
	{"internal/packet/view.go", "if len(b) < IPHeaderLen {", "if len(b) < 4 {",
		"internal/packet", "TestParseTruncationEveryBoundary"},
	{"internal/packet/wire.go", "if len(body) != 8 {", "if len(body) < 4 {",
		"internal/packet", "TestParseOptionsTruncationNeverPanics"},
	{"internal/packet/view.go", "if length < 2 || length > len(b) {", "if length < 2 {",
		"internal/packet", "TestParseOptionsTruncationNeverPanics"},
	{"internal/core/ctrlinfo.go", "if len(rest) < 4 {", "if len(rest) < 2 {",
		"internal/core", "TestCtrlMsgTruncationEveryBoundary"},
	{"internal/packet/view.go", "OffIPTTL      = 8", "OffIPTTL      = 7",
		"internal/packet", "TestViewMatchesParse"},
	{"internal/packet/view.go", "return v.tsOff%2 != 0", "return false",
		"internal/packet", "TestViewMatchesParse"},
	{"internal/dataplane/raw.go", "if odd {", "if false {",
		"internal/dataplane", "TestRawDiffGrid"},
}

// TestRetiredWiresafeMutations runs each row's test with `go test
// -overlay`, once on the tree as it is (it must pass) and once with the
// row's change swapped in (it must fail, not just stop compiling).
func TestRetiredWiresafeMutations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go test once per mutation; not a short test")
	}
	root := getLoader(t).ModuleRoot
	byPkg := map[string][]string{}
	for _, m := range retiredWiresafeMutations {
		byPkg[m.pkg] = append(byPkg[m.pkg], m.test)
	}
	pkgs := make([]string, 0, len(byPkg))
	for pkg := range byPkg {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		if out, err := goTestRun(root, "", pkg, byPkg[pkg]...); err != nil {
			t.Fatalf("unmutated %s fails: %v\n%s", pkg, err, out)
		}
	}

	for _, m := range retiredWiresafeMutations {
		src, err := os.ReadFile(filepath.Join(root, m.file))
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(src), m.old); n != 1 {
			t.Errorf("stale row: %q occurs %d times in %s, want once", m.old, n, m.file)
			continue
		}
		dir := t.TempDir()
		mutated := filepath.Join(dir, filepath.Base(m.file))
		if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.old, m.new, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		overlay, err := json.Marshal(map[string]map[string]string{
			"Replace": {filepath.Join(root, m.file): mutated},
		})
		if err != nil {
			t.Fatal(err)
		}
		overlayFile := filepath.Join(dir, "overlay.json")
		if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := goTestRun(root, overlayFile, m.pkg, m.test)
		if err == nil || !strings.Contains(string(out), "--- FAIL: "+m.test) {
			t.Errorf("%s: %q -> %q is not caught by %s (err=%v)\n%s", m.file, m.old, m.new, m.test, err, out)
		}
	}
}

// goTestRun runs the named tests of the package in directory pkg, under
// the given overlay file when it is not empty.
func goTestRun(root, overlay, pkg string, tests ...string) ([]byte, error) {
	args := []string{"test"}
	if overlay != "" {
		args = append(args, "-overlay", overlay)
	}
	args = append(args, "-run", "^("+strings.Join(tests, "|")+")$", "./"+pkg)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	return cmd.CombinedOutput()
}
