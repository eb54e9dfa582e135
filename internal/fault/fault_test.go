package fault

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files instead of comparing")

func TestBuiltinsValidate(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Builtins() {
		if err := p.Validate(); err != nil {
			t.Errorf("%v", err)
		}
		if seen[p.Name] {
			t.Errorf("duplicate plan name %q", p.Name)
		}
		seen[p.Name] = true
	}
	bad := Plan{Name: "bad", Ops: []Op{{Kind: OpLinkLoss, Host: "client", Prob: 1.5}}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range probability validated")
	}
	crash := Plan{Name: "bad", Ops: []Op{{Kind: OpHostCrash, Host: "client"}}}
	if err := crash.Validate(); err == nil {
		t.Error("crash without a restart time validated")
	}
}

// TestPlanRejectsUnknownCtrlMessage: a control op must name a message type
// the daemon sends, spelled as CtrlTypeName spells it; a typo would be an
// op that never fires.
func TestPlanRejectsUnknownCtrlMessage(t *testing.T) {
	for _, msg := range []string{"requestlock", "oldPathFin", "msg(3)", ""} {
		for _, kind := range []OpKind{OpCtrlDrop, OpCtrlDelay} {
			p := Plan{Name: "typo", Ops: []Op{{Kind: kind, Msg: msg, Delay: time.Millisecond}}}
			if err := p.Validate(); err == nil {
				t.Errorf("%v op on control message %q validated", kind, msg)
			}
		}
	}
	ok := Plan{Name: "ok", Ops: []Op{{Kind: OpCtrlDrop, Msg: "requestLock"}}}
	if err := ok.Validate(); err != nil {
		t.Error(err)
	}
}

// TestBaseline checks the no-fault plan satisfies every oracle on every
// scenario: transfer complete and intact, reconfiguration done, all
// sessions collected. Each scenario's Inspect run — what dyscotrace
// renders — must pass the same fault-free oracles, and its seed-7 event
// hash, DAG hash and delivered bytes are pinned against a golden.
func TestBaseline(t *testing.T) {
	base, _ := PlanByName("baseline")
	var inspected strings.Builder
	for _, sc := range Scenarios() {
		r, err := Run(sc.Name, base, 1)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if len(r.Violations) > 0 {
			t.Errorf("%s: %v", sc.Name, r.Violations)
		}
		if r.ReconfigsDone == 0 {
			t.Errorf("%s: no reconfiguration completed", sc.Name)
		}

		run := sc.Build(7, sc.Inspect)
		hub := run.Observe()
		run.Start()
		run.Run()
		if v := run.Violations(); len(v) > 0 {
			t.Errorf("%s inspect: %v", sc.Name, v)
		}
		fmt.Fprintf(&inspected, "%s event=%016x dag=%016x bytes=%d\n",
			sc.Name, hub.Hash(), obs.BuildDAG(hub.Events()).DagHash(), run.Received())
	}
	checkGolden(t, "inspect_seed7.golden", inspected.String())
}

// TestMultiPair builds every registry entry at its Sweep size with three
// client/server pairs, the shape the reconfiguration figures (12, 13, 15)
// measure: the nodes come in Figure 11 address order, every client chains
// through the first middlebox, and the fault-free run delivers each
// pair's exact pattern with one completed reconfiguration per pair.
func TestMultiPair(t *testing.T) {
	const pairs = 3
	for _, sc := range Scenarios() {
		p := sc.Sweep
		p.Pairs = pairs
		run := sc.Build(1, p)
		if len(run.Clients) != pairs || len(run.Servers) != pairs {
			t.Fatalf("%s: %d clients, %d servers, want %d each", sc.Name, len(run.Clients), len(run.Servers), pairs)
		}
		var order []string
		nodes := append(append(append([]*lab.Node(nil), run.Clients...), run.Mids...), run.Servers...)
		for i, n := range nodes {
			order = append(order, n.Host.Name)
			if i > 0 && n.Addr() != nodes[i-1].Addr()+1 {
				t.Errorf("%s: %s at %v does not follow %s at %v", sc.Name, n.Host.Name, n.Addr(), nodes[i-1].Host.Name, nodes[i-1].Addr())
			}
		}
		if got := strings.Join(order, " "); !strings.HasPrefix(got, "client0 client1 client2 ") ||
			!strings.HasSuffix(got, " server0 server1 server2") {
			t.Errorf("%s: node order %s", sc.Name, got)
		}
		for i, c := range run.Clients {
			syn := &packet.Packet{Tuple: packet.FiveTuple{Proto: packet.ProtoTCP, SrcIP: c.Addr(), DstIP: run.Servers[i].Addr(), DstPort: 80}}
			if chain := c.Agent.Policy(syn); len(chain) != 1 || chain[0] != run.Mids[0].Addr() {
				t.Errorf("%s: %s chains through %v, want [%v]", sc.Name, c.Host.Name, chain, run.Mids[0].Addr())
			}
		}

		hub := run.Observe()
		run.Start()
		run.Run()
		if v := run.Violations(); len(v) > 0 {
			t.Errorf("%s: %v", sc.Name, v)
		}
		if got, want := run.Received(), pairs*p.Bytes; got != want {
			t.Errorf("%s: servers received %d bytes, want %d", sc.Name, got, want)
		}
		if done, _, _ := reconfigOutcomes(hub.Events()); len(done) != pairs {
			t.Errorf("%s: %d reconfigurations done, want one per pair", sc.Name, len(done))
		}
	}
}

// TestSlowProxyDrainLosesNoBytes: eight proxied pairs on 100 Mb/s links
// with shallow queues, each proxy splicing out after 2 MB. The proxy
// holds each client's oldPathFIN until its backend connection drains,
// which takes seconds, while each server, its own FIN long sent, waits on
// the client's. A server must not finalize on a count of unanswered FINs
// while the old path still delivers to it: every byte reaches every
// server and every reconfiguration completes.
func TestSlowProxyDrainLosesNoBytes(t *testing.T) {
	sc, _ := ScenarioByName("proxyremoval")
	link := netsim.LinkConfig{Delay: 50 * time.Microsecond, Bandwidth: netsim.Mbps(100), QueueBytes: 256 << 10}
	p := sc.Sweep
	p.Pairs, p.Link, p.MBLink = 8, link, link
	p.Bytes, p.Horizon = 8<<20, 20*time.Second
	for seed := int64(1); seed <= 3; seed++ {
		run := sc.Build(seed, p)
		run.Proxy.AutoSpliceAfter = 2 << 20
		run.Observe()
		run.Start()
		run.Run()
		if v := run.Violations(); len(v) > 0 {
			t.Errorf("seed %d: %v", seed, v)
		}
	}
}

// TestAnchorsLeaveTheOldPathAfterTheirFIN: once an anchor has sent its
// oldPathFIN it has nothing more for the old path, so it must not put
// payload or a TCP FIN on its old-path tuple again; pure ACKs for old-path
// data it still receives are allowed. The old path of proxyremoval runs
// through the proxy at both anchors, so a hook on each anchor's access
// link (the agent's two-path packets bypass host egress hooks) sees every
// old-path packet the anchor transmits.
func TestAnchorsLeaveTheOldPathAfterTheirFIN(t *testing.T) {
	sc, _ := ScenarioByName("proxyremoval")
	for seed := int64(1); seed <= 3; seed++ {
		run := sc.Build(seed, sc.Inspect)
		proxy := run.Mids[0].Addr()
		anchors := []*lab.Node{run.Clients[0], run.Servers[0]}
		finSent := map[string]bool{}
		for _, anchor := range anchors {
			name := anchor.Host.Name
			out := anchor.Host.LinkTo(run.Env.Router.Addr)
			out.SetLoss(0.01)
			out.SetFault(func(p *packet.Packet) netsim.FaultDecision {
				switch {
				case p.Tuple.Proto == packet.ProtoUDP && core.CtrlTypeName(p.Payload) == "oldPathFIN":
					finSent[name] = true
				case finSent[name] && p.Tuple.Proto == packet.ProtoTCP && p.Tuple.DstIP == proxy &&
					(len(p.Payload) > 0 || p.Flags.Has(packet.FlagFIN)):
					t.Errorf("seed %d: %s sent %d bytes (flags %v) on the old path after its oldPathFIN", seed, name, len(p.Payload), p.Flags)
				}
				return netsim.FaultDecision{}
			})
		}
		run.Observe()
		run.Start()
		run.Run()
		if v := run.Violations(); len(v) > 0 {
			t.Errorf("seed %d: %v", seed, v)
		}
		for _, anchor := range anchors {
			if !finSent[anchor.Host.Name] {
				t.Errorf("seed %d: %s never sent its oldPathFIN", seed, anchor.Host.Name)
			}
		}
	}
}

// TestUnobservedInstance: Build leaves the instance unobserved, the run
// still delivers, and Violations says the outcome is unknown instead of
// reporting it.
func TestUnobservedInstance(t *testing.T) {
	sc, _ := ScenarioByName("chain")
	run := sc.Build(1, sc.Sweep)
	run.Start()
	run.Run()
	if run.Env.Hub() != nil {
		t.Fatal("Build observed the instance")
	}
	if got := run.Received(); got != sc.Sweep.Bytes {
		t.Errorf("received %d bytes, want %d", got, sc.Sweep.Bytes)
	}
	if v := run.Violations(); len(v) != 1 || !strings.Contains(v[0], "not observed") {
		t.Errorf("Violations on an unobserved run: %v", v)
	}
}

// TestSweep replays every scenario under every built-in plan. Benign
// plans must let the reconfiguration succeed (P3); crash and blackhole
// plans may abort it, but every run must keep the byte streams intact
// (P2/P4), drain all session, lock, and reconfiguration state (P5), and
// take only model edges; together the runs must take every edge of the
// model's lock and reconfiguration tables.
//
// The seed-1 runs are also pinned hash by hash against a checked-in
// golden, so a refactor of the simulated path that claims "same
// behaviour" is held to it by tier-1. A diff means some event, fault
// activation or causal edge moved: regenerate with
// `go test ./internal/fault -run TestSweep -update` only when that is the
// intent, and say so in CHANGES.md.
func TestSweep(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = []int64{1}
	}
	res, err := RunSweep(SweepOptions{Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	var hashes strings.Builder
	for _, r := range res.Runs {
		for _, v := range r.Violations {
			t.Errorf("%s/%s/seed=%d: %s", r.Scenario, r.Plan, r.Seed, v)
		}
		if r.Seed == 1 {
			fmt.Fprintf(&hashes, "%s %s event=%s schedule=%s dag=%s\n",
				r.Scenario, r.Plan, r.EventHash, r.ScheduleHash, r.DagHash)
		}
	}
	for _, e := range res.ModelEdges {
		if e.Count == 0 {
			t.Errorf("no run takes the %s edge %s -> %s", e.Machine, e.From, e.To)
		}
	}
	checkGolden(t, "sweep_seed1.golden", hashes.String())
}

// TestSweepCountsDistinctExecutions: a seed repeated replays one
// execution, while another plan is another execution whatever it does.
func TestSweepCountsDistinctExecutions(t *testing.T) {
	plans := Builtins()[:2]
	res, err := RunSweep(SweepOptions{Scenarios: []string{"chain"}, Plans: plans, Seeds: []int64{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 4 || res.Distinct != 2 {
		t.Errorf("%d runs, %d distinct; want 4 and 2", len(res.Runs), res.Distinct)
	}
}

// TestTransitionOracle feeds the model oracle one event list per fault it
// names and a clean one that takes two edges.
func TestTransitionOracle(t *testing.T) {
	lock := func(host, from, to string) obs.Event {
		return obs.Event{Kind: obs.KLock, Host: host, From: from, To: to}
	}
	rc := func(req uint64, from, to string) obs.Event {
		return obs.Event{Kind: obs.KReconfig, Host: "client", ReqID: req, From: from, To: to}
	}
	for _, tc := range []struct {
		events []obs.Event
		want   string // "" when the list is clean
	}{
		{[]obs.Event{lock("m", "unlocked", "lockPending"), rc(1, "", "locking"), rc(1, "locking", "settingUp")}, ""},
		{[]obs.Event{lock("m", "unlocked", "locked")}, "not an edge"},
		{[]obs.Event{rc(1, "", "twoPath")}, "born outside"},
		{[]obs.Event{rc(1, "locking", "settingUp")}, "no birth event"},
		{[]obs.Event{lock("m", "locked", "unlocked")}, "starts outside"},
		{[]obs.Event{lock("m", "unlocked", "lockPending"), lock("m", "locked", "unlocked")}, `is in "lockPending"`},
		{[]obs.Event{lock("m", "unlocked", "lockPending"), {Kind: obs.KSessionOpen, Host: "m"}, lock("m", "unlocked", "lockPending")}, ""},
	} {
		taken := map[Edge]int{}
		v := checkTransitions(machines(), tc.events, taken)
		n := 0
		for _, c := range taken {
			n += c
		}
		if tc.want == "" && (len(v) != 0 || n != 2) {
			t.Errorf("%v: violations %v, edges %v", tc.events, v, taken)
		}
		if tc.want != "" && (len(v) != 1 || !strings.Contains(v[0], tc.want)) {
			t.Errorf("%v: violations %v, want one naming %q", tc.events, v, tc.want)
		}
	}
}

// TestSplitOutcomeIsAViolation: an attempt one anchor finished done and
// the other failed is flagged whatever the plan, and it does not count
// as failed.
func TestSplitOutcomeIsAViolation(t *testing.T) {
	events := []obs.Event{
		{Kind: obs.KReconfig, Host: "client", ReqID: 7, From: "twoPath", To: "done"},
		{Kind: obs.KReconfig, Host: "server", ReqID: 7, From: "settingUp", To: "failed"},
	}
	done, failed, split := reconfigOutcomes(events)
	for _, mayFail := range []bool{false, true} {
		v := reconfigViolations(done, failed, split, mayFail)
		if len(v) != 1 || !strings.Contains(v[0], "attempt 7 is done at one anchor and failed at the other") {
			t.Errorf("mayFail=%v: violations %v", mayFail, v)
		}
	}
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
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
		t.Fatalf("%v (generate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("hashes differ from %s:\n%s", golden, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines of want and got that differ, by position.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "- %s\n+ %s\n", wl, gl)
		}
	}
	return b.String()
}

// TestDeterminism: the same (scenario, plan, seed) triple must reproduce
// the identical fault schedule, merged event stream, and JSON rendering.
func TestDeterminism(t *testing.T) {
	plan, _ := PlanByName("crash-mid1")
	for _, sc := range []string{"chain", "proxyremoval"} {
		a, err := Run(sc, plan, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(sc, plan, 7)
		if err != nil {
			t.Fatal(err)
		}
		if a.EventHash != b.EventHash {
			t.Errorf("%s: event hash diverged: %s vs %s", sc, a.EventHash, b.EventHash)
		}
		if a.ScheduleHash != b.ScheduleHash {
			t.Errorf("%s: schedule hash diverged: %s vs %s", sc, a.ScheduleHash, b.ScheduleHash)
		}
		if a.DagHash != b.DagHash {
			t.Errorf("%s: happens-before DAG diverged: %s vs %s", sc, a.DagHash, b.DagHash)
		}
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if string(ja) != string(jb) {
			t.Errorf("%s: JSON rendering diverged", sc)
		}
	}
	// Different seeds must explore different schedules for a
	// probabilistic plan (otherwise the sweep is one run in disguise).
	loss, _ := PlanByName("loss-burst")
	a, err := Run("chain", loss, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("chain", loss, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.EventHash == b.EventHash {
		t.Error("seeds 1 and 2 produced identical event streams under loss")
	}
}

// TestCtrlDropRecovery: dropping the first two requestLock datagrams and
// delaying an ackLock must be absorbed by control retransmission — the
// reconfiguration still completes and the drops are visible both in the
// fault schedule and in the drop attribution counters.
func TestCtrlDropRecovery(t *testing.T) {
	plan, _ := PlanByName("ctrl-drop-reqlock")
	r, err := Run("chain", plan, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Violations) > 0 {
		t.Fatalf("violations: %v", r.Violations)
	}
	if r.ReconfigsDone == 0 {
		t.Error("reconfiguration did not complete despite retransmission")
	}
	if r.Drops["fault"] < 2 {
		t.Errorf("fault drops = %d, want >= 2 (two requestLock drops)", r.Drops["fault"])
	}
	// The dropped transmissions carry Lamport clocks no receiver ever saw:
	// they must appear in the causal graph as dead-end sends, never as
	// phantom edges (which CheckOrder — run by the causal oracle — would
	// reject as clock regressions).
	if r.DeadEndSends < 2 {
		t.Errorf("deadEndSends = %d, want >= 2 (one per dropped transmission)", r.DeadEndSends)
	}
	hits := 0
	for _, line := range r.Schedule {
		if len(line) > 0 {
			hits++
		}
	}
	if hits < 2 {
		t.Errorf("schedule records %d actions, want >= 2", hits)
	}
}

// TestCrashRestartCleanup: a mid-reconfiguration daemon crash must not
// wedge any hop — locks orphaned by the crashed requestor are reclaimed
// and every session drains (the §4.1 restart path plus lock GC).
func TestCrashRestartCleanup(t *testing.T) {
	for _, planName := range []string{"crash-mid1", "crash-client"} {
		plan, _ := PlanByName(planName)
		for _, sc := range Scenarios() {
			r, err := Run(sc.Name, plan, 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Violations) > 0 {
				t.Errorf("%s/%s: %v", sc.Name, planName, r.Violations)
			}
			if r.Drops["hostDown"] == 0 {
				t.Errorf("%s/%s: crash window dropped nothing", sc.Name, planName)
			}
		}
	}
}

// TestModelConformance: every fault-plan primitive must either map to a
// fault class the exhaustive checker explores or be documented as
// implementation-only. A new OpKind fails this test until its
// relationship to internal/model is declared.
func TestModelConformance(t *testing.T) {
	modeled := map[string]bool{}
	for _, f := range model.ModeledFaults() {
		if f.Name == "" || f.Description == "" {
			t.Errorf("modeled fault with empty name or description: %+v", f)
		}
		if modeled[f.Name] {
			t.Errorf("duplicate modeled fault %q", f.Name)
		}
		modeled[f.Name] = true
	}
	covered := map[OpKind]bool{}
	for _, c := range ModelCoverage() {
		if covered[c.Op] {
			t.Errorf("OpKind %v covered twice", c.Op)
		}
		covered[c.Op] = true
		if c.Why == "" {
			t.Errorf("%v: empty rationale", c.Op)
		}
		switch {
		case c.ImplOnly && c.ModelFault != "":
			t.Errorf("%v: both ImplOnly and ModelFault set", c.Op)
		case !c.ImplOnly && c.ModelFault == "":
			t.Errorf("%v: neither ImplOnly nor ModelFault set", c.Op)
		case c.ModelFault != "" && !modeled[c.ModelFault]:
			t.Errorf("%v: maps to unknown model fault %q", c.Op, c.ModelFault)
		}
	}
	for _, k := range OpKinds() {
		if !covered[k] {
			t.Errorf("OpKind %v has no model-coverage entry", k)
		}
	}
}

// TestSkippedRoles: a plan naming a role the scenario does not populate
// must skip the op deterministically, not fail the run.
func TestSkippedRoles(t *testing.T) {
	plan := Plan{Name: "mid2-only", Ops: []Op{
		{Kind: OpLinkDown, Host: "mid2", At: 3 * ms, For: 2 * ms},
	}}
	// proxyremoval has no mid2 role.
	r, err := Run("proxyremoval", plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Violations) > 0 {
		t.Fatalf("violations: %v", r.Violations)
	}
	if len(r.Schedule) != 1 {
		t.Fatalf("schedule = %v, want exactly one skip line", r.Schedule)
	}
}
