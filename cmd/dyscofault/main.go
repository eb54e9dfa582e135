// dyscofault sweeps the reconfiguration scenarios under the built-in
// fault plans and checks the safety oracles (internal/fault): byte
// streams intact (P2/P4), every lock released and every session drained
// after the quiet period (P5, §3.6 cleanup), reconfiguration success
// under every plan that cannot defeat the new path (P3), and every lock
// and reconfiguration transition an edge of the verified model (§3.7).
// After the runs it prints how many of them are distinct executions (runs
// of one scenario and plan with one event hash are one), how many of the
// model's edges they took, and names any edge none took; the JSON carries
// the distinct count and the per-edge counts.
//
// The sweep is deterministic end to end: for a fixed flag set the text
// and JSON outputs are byte-identical across invocations, so CI can diff
// artifacts between runs. The exit status is non-zero when any oracle
// fails.
//
//	dyscofault                       # full sweep: every scenario x plan, seeds 1..5 (what CI runs)
//	dyscofault -scenario chain       # one scenario
//	dyscofault -plan crash-mid1      # one plan
//	dyscofault -seeds 8              # more seeds
//	dyscofault -json FAULT_sweep.json
//	dyscofault -list                 # show scenarios, plans, and model coverage
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/fault"
)

func main() {
	var (
		scenario = flag.String("scenario", "all", "scenario to sweep (or \"all\")")
		planName = flag.String("plan", "all", "fault plan to apply (or \"all\")")
		seeds    = flag.Int("seeds", 5, "number of seeds (1..N)")
		jsonOut  = flag.String("json", "", "also write the full sweep result as JSON to this file")
		list     = flag.Bool("list", false, "list scenarios, plans, and model coverage, then exit")
	)
	flag.Parse()

	if *list {
		printList()
		return
	}

	opt := fault.SweepOptions{}
	if *scenario != "all" {
		if _, ok := fault.ScenarioByName(*scenario); !ok {
			fatalf("unknown scenario %q (see -list)", *scenario)
		}
		opt.Scenarios = []string{*scenario}
	}
	if *planName != "all" {
		p, ok := fault.PlanByName(*planName)
		if !ok {
			fatalf("unknown plan %q (see -list)", *planName)
		}
		opt.Plans = []fault.Plan{p}
	}
	n := *seeds
	if n < 1 {
		fatalf("-seeds must be >= 1")
	}
	for s := int64(1); s <= int64(n); s++ {
		opt.Seeds = append(opt.Seeds, s)
	}

	res, err := fault.RunSweep(opt)
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("%-14s %-18s %4s  %5s %6s  %9s  %7s %6s  %s\n",
		"SCENARIO", "PLAN", "SEED", "RCOK", "RCFAIL", "BYTES", "FDROPS", "EVENTS", "EVENTHASH")
	for _, r := range res.Runs {
		status := ""
		if len(r.Violations) > 0 {
			status = "  VIOLATION"
		}
		fmt.Printf("%-14s %-18s %4d  %5d %6d  %9d  %7d %6d  %s%s\n",
			r.Scenario, r.Plan, r.Seed, r.ReconfigsDone, r.ReconfigsFailed,
			r.BytesReceived, r.Drops["fault"]+r.Drops["linkDown"]+r.Drops["hostDown"]+r.Drops["corrupt"],
			r.Events, r.EventHash, status)
		for _, v := range r.Violations {
			fmt.Printf("    !! %s\n", v)
		}
	}
	fmt.Printf("\n%d runs (%d distinct), %d violation(s)\n", len(res.Runs), res.Distinct, res.Violations)
	taken := 0
	for _, e := range res.ModelEdges {
		if e.Count > 0 {
			taken++
		}
	}
	fmt.Printf("model edges taken: %d/%d\n", taken, len(res.ModelEdges))
	for _, e := range res.ModelEdges {
		if e.Count == 0 {
			fmt.Printf("    untaken: %s %s -> %s\n", e.Machine, e.From, e.To)
		}
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	if res.Violations > 0 {
		os.Exit(1)
	}
}

func printList() {
	fmt.Println("Scenarios:")
	for _, s := range fault.Scenarios() {
		fmt.Printf("  %-16s %s; roles %s\n", s.Name, s.Desc, strings.Join(s.Roles, ", "))
	}
	fmt.Println("\nPlans:")
	for _, p := range fault.Builtins() {
		tag := "must-succeed"
		if p.MayFailReconfig {
			tag = "may-abort"
		}
		fmt.Printf("  %-20s %-12s %s\n", p.Name, tag, p.Desc)
	}
	fmt.Println("\nModel coverage (fault primitive -> internal/model fault class):")
	for _, c := range fault.ModelCoverage() {
		target := c.ModelFault
		if c.ImplOnly {
			target = "(implementation-only)"
		}
		fmt.Printf("  %-12s -> %-22s %s\n", c.Op, target, c.Why)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dyscofault: "+format+"\n", args...)
	os.Exit(1)
}
