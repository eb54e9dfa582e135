package lint

import (
	"encoding/json"
	"fmt"
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
	rule     string // the retired rule that claimed to catch the change
	file     string // module-relative path of the mutated file
	old, new string // old must occur exactly once in file
	pkg      string // module-relative directory of the package under test
	test     string // the test that catches the change
}

// seededAlloc is one heap allocation with no other effect: a 128 KB
// buffer is too large for the stack, used or not.
const seededAlloc = "_ = make([]byte, 1<<17)"

// alloc seeds seededAlloc at the "@" in anchor, a statement boundary
// inside the branch the row is about.
func alloc(file, anchor, pkg, test string) mutation {
	return mutation{"allocfree", file, strings.Replace(anchor, "@", "", 1),
		strings.Replace(anchor, "@", "\n"+seededAlloc+"\n", 1), pkg, test}
}

const (
	pkgCore      = "internal/core"
	pkgDataplane = "internal/dataplane"
	pkgFault     = "internal/fault"
	pkgPacket    = "internal/packet"
	pkgTCP       = "internal/tcp"

	rewriteTest = "TestRewritePathZeroAlloc"
	helperTest  = "TestHotpathHelpersZeroAlloc"
	rawTest     = "TestRawPathZeroAlloc"
	lookupTest  = "TestDataplaneLookupZeroAlloc"
	tcpTest     = "TestTCPFastPathZeroAlloc"
)

// retiredMutations is the evidence behind retiring a rule (DESIGN.md §6,
// rule audit): each row is a change the rule caught, and the test that
// now catches it instead. A later rule deletion adds its rows here.
var retiredMutations = []mutation{
	// wiresafe. The first six rows are the mutations only wiresafe caught
	// before the codec tests re-framed their cuts (a truncated frame with
	// a stale IP total length or checksum is rejected before any inner
	// guard runs); the OffIPTTL row was caught only by a pin that ran on
	// wiresafe's layout extractor. The last two rows revert the fix for a
	// checksum bug TestViewMatchesParse found: the raw path folded TCP
	// option words at odd offsets as if they were aligned.
	{"wiresafe", "internal/packet/wire.go", "if len(t) < 20 {", "if len(t) < 12 {",
		pkgPacket, "TestParseTruncationEveryBoundary"},
	{"wiresafe", "internal/packet/wire.go", "if len(t) < 8 {", "if len(t) < 4 {",
		pkgPacket, "TestParseTruncationEveryBoundaryUDP"},
	{"wiresafe", "internal/packet/view.go", "if len(b) < IPHeaderLen {", "if len(b) < 4 {",
		pkgPacket, "TestParseTruncationEveryBoundary"},
	{"wiresafe", "internal/packet/wire.go", "if len(body) != 8 {", "if len(body) < 4 {",
		pkgPacket, "TestParseOptionsTruncationNeverPanics"},
	{"wiresafe", "internal/packet/view.go", "if length < 2 || length > len(b) {", "if length < 2 {",
		pkgPacket, "TestParseOptionsTruncationNeverPanics"},
	{"wiresafe", "internal/core/ctrlinfo.go", "if len(rest) < 4 {", "if len(rest) < 2 {",
		pkgCore, "TestCtrlMsgTruncationEveryBoundary"},
	{"wiresafe", "internal/packet/view.go", "OffIPTTL      = 8", "OffIPTTL      = 7",
		pkgPacket, "TestViewMatchesParse"},
	{"wiresafe", "internal/packet/view.go", "return v.tsOff%2 != 0", "return false",
		pkgPacket, "TestViewMatchesParse"},
	{"wiresafe", "internal/dataplane/raw.go", "if odd {", "if false {",
		pkgDataplane, "TestRawDiffGrid"},

	// blockfree: the reader path waits on a writer's lock.
	{"blockfree", "internal/dataplane/table.go", "i := t.slotBits(h) >> a.shift",
		"s.mu.Lock(); s.mu.Unlock()\ni := t.slotBits(h) >> a.shift", pkgDataplane, "TestReaderPathTakesNoLock"},

	// allocfree: the rows M1–M9 of the audit, an allocation on the
	// per-packet path that the zero-alloc tests measured only on one input
	// per function (M4 is the lock above) ...
	alloc("internal/core/rule.go", "p.Opts.SACK[i].End = packet.SeqAdd(p.Opts.SACK[i].End, r.AckAdd)@", pkgCore, rewriteTest),
	alloc("internal/core/agent.go", "seqInit(&sess.rcvdAckedHi, &sess.rcvdAckedOK, packet.SeqAdd(p.Seq, 1))@", pkgCore, rewriteTest),
	alloc("internal/core/agent.go", "func (a *Agent) clampWindow(p *packet.Packet, shift int8) {@", pkgCore, rewriteTest),
	alloc("internal/core/agent.go", "e.Rule.ApplyEgress(p, true)@", pkgCore, rewriteTest),
	alloc("internal/tcp/send.go", "rtt = c.eng.Now() - c.rttAt@", pkgTCP, tcpTest),
	alloc("internal/tcp/send.go", "if packet.SeqLT(cur, nxt) {@", pkgTCP, tcpTest),
	alloc("internal/dataplane/engine.go", "func (w *worker) processRaw(frame []byte) {@", pkgDataplane, rawTest),
	alloc("internal/packet/view.go", "if b[0] != 0x45 {@", pkgDataplane, rawTest),
	// ... then one row per function the zero-alloc tests left below 100 %
	// of its statements, in the branch they missed ...
	alloc("internal/core/agent.go", "a.clampWindow(p, e.sess.drainWScale)@", pkgCore, rewriteTest),
	alloc("internal/core/agent.go", `a.obs.Emit(obs.Event{Kind: obs.KRewrite, Sess: e.sess.IDLeft, Dir: "ingress", Bytes: p.DataLen()})@`, pkgCore, rewriteTest),
	alloc("internal/core/agent.go", "clamp = 1@", pkgCore, rewriteTest),
	alloc("internal/core/agent.go", "a.daemon.checkOldPathDone(sess.Reconfig)@", pkgCore, rewriteTest),
	alloc("internal/core/rule.go", "scaled = 65535@", pkgCore, rewriteTest),
	alloc("internal/core/agent.go", "*val, *ok = v, true@", pkgCore, rewriteTest),
	alloc("internal/core/agent.go", "func dataSeqEnd(p *packet.Packet) uint32 {@", pkgCore, rewriteTest),
	alloc("internal/dataplane/engine.go", "ent.ApplyIngress(p, !e.cfg.DisableOptionTranslation)@", pkgDataplane, lookupTest),
	alloc("internal/dataplane/engine.go", "v, err := packet.ParseView(frame)\n\tif err != nil {@", pkgDataplane, rawTest),
	alloc("internal/dataplane/table.go", "e.seen.Store(now)@", pkgDataplane, lookupTest),
	alloc("internal/dataplane/raw.go", "if odd {@", pkgDataplane, rawTest),
	alloc("internal/dataplane/engine.go", "case Rejected:@", pkgDataplane, rawTest),
	alloc("internal/obs/obs.go", "r.truncated = true@", pkgCore, helperTest),
	alloc("internal/packet/wire.go", "func ChecksumUpdate32Odd(old uint16, oldVal, newVal uint32) uint16 {@", pkgDataplane, rawTest),
	alloc("internal/packet/packet.go", "if p.Flags.Has(FlagSYN) {@", pkgCore, helperTest),
	alloc("internal/packet/view.go", "if int(be16(t, OffUDPLen)) != len(t) {@", pkgDataplane, rawTest),
	alloc("internal/packet/seq.go", "if SeqGT(a, b) {@", pkgCore, helperTest),
	alloc("internal/packet/seq.go", "if SeqLT(a, b) {\n\t\treturn a\n\t}\n\t@return b", pkgCore, helperTest),
	alloc("internal/packet/view.go", "@putBE16(v.b, IPHeaderLen+OffUDPCsum, c)", pkgDataplane, rawTest),
	alloc("internal/packet/view.go", "@return be16(v.b, IPHeaderLen+OffUDPCsum)", pkgDataplane, rawTest),
	alloc("internal/packet/view.go", "case optEnd:@", pkgDataplane, rawTest),
	alloc("internal/packet/view.go", "case optWScale:@", pkgDataplane, rawTest),
	alloc("internal/packet/view.go", "func (v *View) IsTCP() bool {@", pkgDataplane, rawTest),
	alloc("internal/tcp/send.go", "if w > 65535 {@", pkgTCP, tcpTest),
	alloc("internal/tcp/recv.go", "if w < 0 {@", pkgTCP, tcpTest),
	alloc("internal/tcp/send.go", "c.rttvar = rtt / 2@", pkgTCP, tcpTest),
	alloc("internal/tcp/send.go", "w := min(c.cwnd, c.peerWnd) - c.flight()\n\tif w < 0 {@", pkgTCP, tcpTest),
	alloc("internal/tcp/send.go", "return cur, int(packet.SeqDiff(cur, nxt))\n\t}\n\t@return 0, 0", pkgTCP, tcpTest),
	alloc("internal/tcp/send.go", "@return false", pkgTCP, tcpTest),
	alloc("internal/tcp/send.go", "total += int(packet.SeqDiff(seq, r.End))@", pkgTCP, tcpTest),
	// ... and the cost model every default agent runs per rewrite, which
	// a coldpath boundary kept out of the region and the test's
	// RewriteCost = 0 kept out of the measurement.
	alloc("internal/core/agent.go", "done := a.Host.CPU.Acquire(a.Cfg.RewriteCost)@", pkgCore, rewriteTest),
}

// TestRetiredMutations runs each row's test with `go test -overlay`, once
// on the tree as it is (it must pass) and once with the row's change
// swapped in (it must fail, not just stop compiling).
func TestRetiredMutations(t *testing.T) {
	runMutations(t, retiredMutations)
}

// runMutations requires each row's test to pass on the tree as it is and
// then checks each row in a subtest named after its rule and index.
func runMutations(t *testing.T, rows []mutation) {
	if testing.Short() {
		t.Skip("runs go test once per mutation; not a short test")
	}
	root := getLoader(t).ModuleRoot
	byPkg := map[string][]string{}
	for _, m := range rows {
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

	// Rows build and run independently; two at a time keep a 2-core
	// host busy while one row links and another waits on its test.
	for i, m := range rows {
		t.Run(fmt.Sprintf("%s/%02d", m.rule, i), func(t *testing.T) {
			t.Parallel()
			checkMutation(t, root, m)
		})
	}
}

// checkMutation swaps m's change in with an overlay and requires m.test
// to fail on it.
func checkMutation(t *testing.T, root string, m mutation) {
	src, err := os.ReadFile(filepath.Join(root, m.file))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(src), m.old); n != 1 {
		t.Fatalf("stale row: %q occurs %d times in %s, want once", m.old, n, m.file)
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

// goTestRun runs the named tests of the package in directory pkg, under
// the given overlay file when it is not empty. Vet is off: a row needs
// the test's verdict, and a vet complaint would only stop the build.
func goTestRun(root, overlay, pkg string, tests ...string) ([]byte, error) {
	args := []string{"test", "-vet=off"}
	if overlay != "" {
		args = append(args, "-overlay", overlay)
	}
	args = append(args, "-run", "^("+strings.Join(tests, "|")+")$", "./"+pkg)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	return cmd.CombinedOutput()
}
