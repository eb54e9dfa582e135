package lint

import (
	"strings"
	"sync"
	"testing"
)

// testLoader is shared across tests: the stdlib dependency cache is the
// expensive part, and it is append-only.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func getLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			loaderErr = err
			return
		}
		loader, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return loader
}

// checkFixture type-checks src as a single-file package at pkgPath and
// runs exactly one analyzer (plus suppression handling).
func checkFixture(t *testing.T, a *Analyzer, pkgPath, filename, src string) []Finding {
	t.Helper()
	pkg, err := getLoader(t).CheckSource(pkgPath, map[string]string{filename: src})
	if err != nil {
		t.Fatalf("fixture %s does not type-check: %v", filename, err)
	}
	return Run([]*Package{pkg}, []*Analyzer{a})
}

func wantFindings(t *testing.T, got []Finding, rule string, substrs ...string) {
	t.Helper()
	if len(got) != len(substrs) {
		t.Fatalf("got %d findings, want %d:\n%v", len(got), len(substrs), got)
	}
	for i, f := range got {
		if f.Rule != rule {
			t.Errorf("finding %d: rule %q, want %q", i, f.Rule, rule)
		}
		if !strings.Contains(f.Msg, substrs[i]) {
			t.Errorf("finding %d: %q does not mention %q", i, f.Msg, substrs[i])
		}
	}
}

// ---------- walltime ----------

func TestWalltimeFlagsWallClockAndGlobalRand(t *testing.T) {
	got := checkFixture(t, WalltimeAnalyzer, "fixture/internal/netsim", "wt.go", `
package netsim

import (
	"math/rand"
	"time"
)

func bad() time.Duration {
	start := time.Now()        // finding: wall clock
	time.Sleep(time.Millisecond) // finding: wall clock
	_ = rand.Intn(10)          // finding: global source
	return time.Since(start)   // finding: wall clock
}
`)
	wantFindings(t, got, "walltime", "time.Now", "time.Sleep", "rand.Intn", "time.Since")
}

func TestWalltimePassesVirtualClockIdioms(t *testing.T) {
	got := checkFixture(t, WalltimeAnalyzer, "fixture/internal/sim", "wt.go", `
package sim

import (
	"math/rand"
	"time"
)

// Duration constants, the Duration type, and an explicitly seeded source
// are the sanctioned idioms.
func good(seed int64) time.Duration {
	rng := rand.New(rand.NewSource(seed))
	_ = rng.Float64()
	return 2 * time.Millisecond
}
`)
	wantFindings(t, got, "walltime")
}

func TestWalltimeIgnoresUnrestrictedPackages(t *testing.T) {
	got := checkFixture(t, WalltimeAnalyzer, "fixture/cmd/x", "wt.go", `
package main

import "time"

// Commands run in wall-clock land; only packages under internal/ are
// simulator packages.
func ok() time.Time { return time.Now() }
`)
	wantFindings(t, got, "walltime")
}

// walltimeConcurrencySrc uses every concurrency construct the widened rule
// names, one per line, next to the idioms that must stay legal.
const walltimeConcurrencySrc = `
package p

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

type T struct {
	mu sync.Mutex    // finding: sync
	n  atomic.Uint64 // finding: sync/atomic
	ch chan int      // finding: channel type
}

func (t *T) run(seed int64) time.Duration {
	go t.work() // finding: go statement
	t.ch <- 1   // finding: send
	_ = <-t.ch  // finding: receive
	select {    // finding: select
	default:
	}
	t.mu.Lock() // methods on the already-reported field: not again
	t.n.Add(1)
	t.mu.Unlock()
	_ = rand.New(rand.NewSource(seed)).Intn(4)
	return 2 * time.Millisecond
}

func (t *T) work() {}
`

func TestWalltimeFlagsConcurrencyInUnlistedPackage(t *testing.T) {
	// Nobody listed newpkg anywhere: being under internal/ is enough.
	got := checkFixture(t, WalltimeAnalyzer, "fixture/internal/newpkg", "wt.go", walltimeConcurrencySrc)
	wantFindings(t, got, "walltime",
		"sync.Mutex", "sync/atomic.Uint64", "channel type",
		"go statement", "channel send", "channel receive", "select")
}

func TestWalltimeExemptsDataplaneAndCommands(t *testing.T) {
	for _, pkgPath := range []string{"fixture/internal/dataplane", "fixture/cmd/x"} {
		got := checkFixture(t, WalltimeAnalyzer, pkgPath, "wt.go", walltimeConcurrencySrc)
		if len(got) != 0 {
			t.Errorf("%s: got %d findings, want none:\n%v", pkgPath, len(got), got)
		}
	}
}

func TestWalltimeConcurrencyFindingIsSuppressible(t *testing.T) {
	got := checkFixture(t, WalltimeAnalyzer, "fixture/internal/newpkg", "wt.go", `
package newpkg

func f() {
	//lint:ignore walltime fixture: a reviewed one-off exception
	go f()
}
`)
	wantFindings(t, got, "walltime")
}

// ---------- seqarith ----------

func TestSeqarithFlagsRawComparisonAndArithmetic(t *testing.T) {
	got := checkFixture(t, SeqarithAnalyzer, "fixture/internal/tcp", "sa.go", `
package tcp

type conn struct {
	sndNxt, sndUna uint32
	rcvNxt         uint32
}

func bad(c *conn, seq uint32) uint32 {
	if seq < c.rcvNxt { // finding: ordered comparison
		return 0
	}
	if c.sndUna > c.sndNxt { // finding: ordered comparison
		return 0
	}
	end := seq + 10 // finding: addition
	return end - c.sndUna // finding: subtraction
}
`)
	wantFindings(t, got, "seqarith", "comparison", "comparison", "arithmetic", "arithmetic")
}

func TestSeqarithPassesHelpersNamedTypesAndNonSeqNames(t *testing.T) {
	got := checkFixture(t, SeqarithAnalyzer, "fixture/internal/tcp", "sa.go", `
package tcp

import "repro/internal/packet"

func good(seq, ack uint32, a, b packet.Addr, x, y uint32) bool {
	if packet.SeqLT(seq, ack) { // helper: fine
		return true
	}
	_ = packet.SeqAdd(seq, 10) // helper: fine
	if a < b { // named type (addresses sort fine): not sequence space
		return true
	}
	return x < y // plain uint32 but nothing seq-named
}
`)
	wantFindings(t, got, "seqarith")
}

func TestSeqarithExemptsPacketSeqFile(t *testing.T) {
	got := checkFixture(t, SeqarithAnalyzer, "fixture/internal/packet", "seq.go", `
package packet

// The helper implementation is the one sanctioned home of raw arithmetic;
// the seq-named operands below would be findings in any other file.
func SeqDiff(seq, ack uint32) int32 { return int32(ack - seq) }

func SeqLT(seq, ack uint32) bool { return seq-ack > 1<<31 }
`)
	wantFindings(t, got, "seqarith")
}

// ---------- mapiter ----------

func TestMapiterFlagsEffectfulIteration(t *testing.T) {
	got := checkFixture(t, MapiterAnalyzer, "fixture/internal/x", "mi.go", `
package x

import "fmt"

func direct(m map[int]int, ch chan int) {
	for k := range m { // finding: channel send
		ch <- k
	}
	for k, v := range m { // finding: output
		fmt.Println(k, v)
	}
}

// send is a package-local helper; the effect propagates to its callers.
func send(ch chan int, v int) { ch <- v }

func transitive(m map[int]int, ch chan int) {
	for k := range m { // finding: via send
		send(ch, k)
	}
}

func callback(m map[int]int, fn func(int)) {
	for k := range m { // finding: unknown function value
		fn(k)
	}
}
`)
	wantFindings(t, got, "mapiter", "channel", "output", "channel", "function value")
}

func TestMapiterPassesReadOnlyAndSortedPatterns(t *testing.T) {
	got := checkFixture(t, MapiterAnalyzer, "fixture/internal/x", "mi.go", `
package x

import (
	"fmt"
	"sort"
)

func readOnly(m map[int]int) int {
	total := 0
	for _, v := range m { // order-independent: fine
		total += v
	}
	for k := range m { // deleting while ranging: fine
		if k < 0 {
			delete(m, k)
		}
	}
	return total
}

func sorted(m map[int]int, ch chan int) {
	keys := make([]int, 0, len(m))
	for k := range m { // append to local slice: fine
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys { // slice iteration: fine
		ch <- m[k]
		fmt.Println(k)
	}
}
`)
	wantFindings(t, got, "mapiter")
}

func TestMapiterFlagsSimulatorScheduling(t *testing.T) {
	got := checkFixture(t, MapiterAnalyzer, "fixture/internal/x", "mi.go", `
package x

import "repro/internal/sim"

func schedule(eng *sim.Engine, m map[int]int) {
	for k := range m { // finding: event scheduling
		k := k
		eng.Schedule(sim.Time(k), func() {})
	}
}
`)
	wantFindings(t, got, "mapiter", "Engine.Schedule")
}

func TestMapiterFlagsObsEmission(t *testing.T) {
	got := checkFixture(t, MapiterAnalyzer, "fixture/internal/x", "mi.go", `
package x

import (
	"repro/internal/obs"
	"repro/internal/packet"
)

type agent struct{ obs *obs.Recorder }

func (a *agent) emitAll(m map[packet.FiveTuple]string) {
	for id := range m { // finding: event-log order
		a.obs.Emit(obs.Event{Kind: obs.KSessionOpen, Sess: id})
	}
}

func (a *agent) countAll(m map[packet.FiveTuple]string) {
	for range m { // no finding: metrics are order-independent
		a.obs.Metrics().Add(obs.MCtrlRetransmits, 1)
	}
}
`)
	wantFindings(t, got, "mapiter", "Recorder.Emit")
}

// ---------- errdrop ----------

func TestErrdropFlagsDiscardedSendAndParse(t *testing.T) {
	got := checkFixture(t, ErrdropAnalyzer, "fixture/internal/x", "ed.go", `
package x

import (
	"repro/internal/packet"
	"repro/internal/tcp"
)

func bad(c *tcp.Conn, wire []byte) {
	c.Send([]byte("hi")) // finding: dropped send error
	packet.Parse(wire)   // finding: dropped parse error
}
`)
	wantFindings(t, got, "errdrop", "Conn.Send", "packet.Parse")
}

func TestErrdropPassesHandledAndExplicitDiscard(t *testing.T) {
	got := checkFixture(t, ErrdropAnalyzer, "fixture/internal/x", "ed.go", `
package x

import (
	"repro/internal/packet"
	"repro/internal/tcp"
)

func good(c *tcp.Conn, wire []byte) error {
	if err := c.Send([]byte("hi")); err != nil {
		return err
	}
	_, err := packet.Parse(wire)
	if err != nil {
		return err
	}
	_ = c.Send(nil) // explicit discard: deliberate
	return nil
}
`)
	wantFindings(t, got, "errdrop")
}

// ---------- suppression ----------

func TestIgnoreDirectiveSuppresses(t *testing.T) {
	got := checkFixture(t, ErrdropAnalyzer, "fixture/internal/x", "ig.go", `
package x

import "repro/internal/tcp"

func suppressed(c *tcp.Conn) {
	//lint:ignore errdrop receiver may be closing; bytes already counted
	c.Send(nil)
	c.Send(nil) //lint:ignore errdrop same-line trailing form
}
`)
	wantFindings(t, got, "errdrop")
}

func TestIgnoreDirectiveWrongRuleDoesNotSuppress(t *testing.T) {
	got := checkFixture(t, ErrdropAnalyzer, "fixture/internal/x", "ig.go", `
package x

import "repro/internal/tcp"

func notSuppressed(c *tcp.Conn) {
	//lint:ignore walltime wrong rule name
	c.Send(nil)
}
`)
	wantFindings(t, got, "errdrop", "Conn.Send")
}

func TestUnusedIgnoreIsAFinding(t *testing.T) {
	got := checkFixture(t, ErrdropAnalyzer, "fixture/internal/x", "ig.go", `
package x

import "repro/internal/tcp"

func handled(c *tcp.Conn) error {
	//lint:ignore errdrop stale: the error is propagated now
	return c.Send(nil)
}
`)
	wantFindings(t, got, "lint", "unused //lint:ignore")
}

func TestUnusedIgnoreOutsideRunSetIsNotReported(t *testing.T) {
	// The directive's rule is not part of this run, so whether it still
	// suppresses anything is unknowable here: stay silent.
	got := checkFixture(t, ErrdropAnalyzer, "fixture/internal/x", "ig.go", `
package x

import "time"

//lint:ignore walltime fixture exercising a rule outside the run set
func f() time.Time { return time.Now() }
`)
	wantFindings(t, got, "errdrop")
}

func TestIgnoreUnknownRuleIsAFinding(t *testing.T) {
	// A typo'd or retired rule name can never suppress or expire, so it is
	// reported whatever the run set — here a run that has only errdrop.
	got := checkFixture(t, ErrdropAnalyzer, "fixture/internal/x", "ig.go", `
package x

//lint:ignore nosuchrule some reason
func f() {}
`)
	wantFindings(t, got, "lint", `unknown rule "nosuchrule"`)
}

func TestMalformedIgnoreIsAFinding(t *testing.T) {
	got := checkFixture(t, WalltimeAnalyzer, "fixture/internal/x", "ig.go", `
package x

//lint:ignore errdrop
func missingReason() {}
`)
	wantFindings(t, got, "lint", "malformed")
}

// ---------- framework ----------

func TestAllAnalyzersPresent(t *testing.T) {
	want := []string{"walltime", "seqarith", "mapiter", "errdrop",
		"statexhaust", "rewritetaint", "fsmconform", "obsexhaust",
		"allocfree", "blockfree"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("All() = %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc", a.Name)
		}
	}
}

func TestByName(t *testing.T) {
	as, err := ByName("walltime,errdrop")
	if err != nil || len(as) != 2 {
		t.Fatalf("ByName: %v, %d analyzers", err, len(as))
	}
	if _, err := ByName("nosuchrule"); err == nil {
		t.Fatal("ByName accepted an unknown rule")
	}
}
