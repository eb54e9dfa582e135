// Command dyscotrace is the reconfiguration timeline inspector: it
// replays a scenario of the internal/fault registry at its Inspect size
// (the fault sweep runs the same builders at its Sweep size) with the
// observability layer attached and renders what happened — per-session
// event timelines, per-reconfiguration span trees (lock →
// state-transfer → switchover → drain across every participating host),
// per-subsession traffic totals, and the metrics registry.
//
//	dyscotrace -scenario proxyremoval          # the headline use case
//	dyscotrace -scenario statemigration        # firewall replacement, Figure 15
//	dyscotrace -scenario chain -seed 9         # middlebox replacement in a chain
//	dyscotrace -scenario proxyremoval -json    # machine-readable JSON lines
//	dyscotrace -scenario chain -critical       # critical path of each reconfiguration
//	dyscotrace -scenario chain -critical -json # same, as JSON lines (CRITPATH.json in CI)
//	dyscotrace -list                           # scenario ids
//
// -critical switches the inspector to critical-path mode: for every
// reconfiguration span it extracts the longest causal chain through the
// happens-before DAG (Lamport-clock-matched send→recv edges plus program
// order) from lock initiation to drain completion, validates that the
// chain accounts the span's entire duration, and renders the per-phase /
// per-edge wait attribution. An invalid path exits nonzero — that means
// the clock piggybacking or edge matching is broken, not the run.
//
// A run whose transfer did not arrive intact, or in which no
// reconfiguration completed or one failed, exits nonzero before
// rendering anything.
//
// Everything is deterministic: the same scenario and seed produce
// byte-identical output; internal/fault's TestBaseline pins each seed-7
// run's event hash, DAG hash and delivered bytes.
// Per-packet rewrite events are disabled by default to keep the log
// readable; -rewrites stores them too (counters are exact either way).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/packet"
)

func main() {
	var (
		scenario = flag.String("scenario", "proxyremoval", "scenario id (see -list)")
		seed     = flag.Int64("seed", 7, "simulation seed")
		jsonOut  = flag.Bool("json", false, "emit JSON lines: events, then span summaries, then one metrics object")
		critical = flag.Bool("critical", false, "render the critical path of each reconfiguration span (with -json: one JSON object per span)")
		rewrites = flag.Bool("rewrites", false, "store per-packet rewrite/retransmit events in the log")
		list     = flag.Bool("list", false, "list scenario ids")
	)
	flag.Parse()

	if *list {
		for _, s := range fault.Scenarios() {
			fmt.Println(s.Name)
		}
		return
	}
	sc, ok := fault.ScenarioByName(*scenario)
	if !ok {
		fmt.Fprintf(os.Stderr, "dyscotrace: unknown scenario %q (see -list)\n", *scenario)
		os.Exit(1)
	}
	run := sc.Build(*seed, sc.Inspect)
	hub := run.Observe()
	if *rewrites {
		run.StorePerPacket()
	}
	run.Start()
	run.Run()
	// An inspector that silently renders a broken run would be worse
	// than none.
	if v := run.Violations(); len(v) > 0 {
		for _, msg := range v {
			fmt.Fprintln(os.Stderr, "dyscotrace: broken run:", msg)
		}
		os.Exit(1)
	}
	env := run.Env
	events := hub.Events()
	spans := obs.BuildSpans(events)

	if *critical {
		os.Exit(runCritical(*scenario, *seed, spans, *jsonOut))
	}

	if *jsonOut {
		if err := writeJSON(hub, spans); err != nil {
			fmt.Fprintln(os.Stderr, "dyscotrace:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("scenario %s seed %d\n", *scenario, *seed)
	fmt.Printf("hosts: %s\n", strings.Join(hub.Hosts(), " "))
	if hub.Truncated() {
		fmt.Println("warning: event storage truncated; counters remain exact")
	}

	fmt.Println("\n== session timelines ==")
	fmt.Print(obs.FormatTimeline(events))

	fmt.Println("\n== reconfiguration spans ==")
	if len(spans) == 0 {
		fmt.Println("(none)")
	}
	for _, sp := range spans {
		fmt.Print(sp.FormatTree())
	}

	fmt.Println("\n== per-subsession traffic ==")
	for _, host := range hub.Hosts() {
		node := env.Node(host)
		if node == nil || node.Agent == nil {
			continue
		}
		var lines []string
		node.Agent.EachSubsession(func(dir string, from, to packet.FiveTuple, pkts, bytes uint64) {
			lines = append(lines, fmt.Sprintf("  %-7s %v -> %v pkts=%d bytes=%d", dir, from, to, pkts, bytes))
		})
		if len(lines) == 0 {
			continue
		}
		fmt.Printf("host %s:\n%s\n", host, strings.Join(lines, "\n"))
	}

	fmt.Println("\n== metrics ==")
	fmt.Print(hub.Snapshot().Dump())
}

// runCritical extracts, validates, and renders the critical path of every
// reconfiguration span, returning the process exit code. Validation is
// not optional: a path that fails to account the span's whole duration
// witnesses broken clock stamping or edge matching.
func runCritical(scenario string, seed int64, spans []*obs.Span, jsonOut bool) int {
	cps := make([]*obs.CritPath, 0, len(spans))
	code := 0
	for _, sp := range spans {
		cp := obs.CriticalPath(sp)
		if err := cp.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "dyscotrace: invalid critical path:", err)
			code = 1
			continue
		}
		cps = append(cps, cp)
	}
	if jsonOut {
		if err := obs.WriteCritPathsJSON(os.Stdout, cps); err != nil {
			fmt.Fprintln(os.Stderr, "dyscotrace:", err)
			return 1
		}
		return code
	}
	fmt.Printf("scenario %s seed %d\n", scenario, seed)
	if len(cps) == 0 {
		fmt.Println("(no reconfiguration spans)")
	}
	for _, cp := range cps {
		fmt.Print(cp.FormatTree())
	}
	return code
}

// writeJSON emits the machine-readable form: the merged event log and the
// span summaries as JSON lines, then the metrics registry (with per-kind
// event counts folded in) as one indented object.
func writeJSON(hub *obs.Hub, spans []*obs.Span) error {
	out := os.Stdout
	if err := hub.WriteJSON(out); err != nil {
		return err
	}
	if err := obs.WriteSpansJSON(out, spans); err != nil {
		return err
	}
	return hub.Snapshot().WriteJSON(out)
}
