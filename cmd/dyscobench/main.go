// Command dyscobench regenerates the paper's tables and figures
// (see DESIGN.md for the per-experiment index):
//
//	dyscobench -exp fig8            # one experiment
//	dyscobench -exp all             # everything, paper order
//	dyscobench -exp fig12 -full     # paper-scale parameters
//	dyscobench -short               # CI observability micro-benchmark
//	dyscobench -list                # experiment ids
//
// Output is plain text: one table and/or series block per experiment,
// with PASS/FAIL checks of the paper's qualitative claims. Stdout is
// byte-stable per seed (experiments_output.txt is `-exp all` verbatim);
// the per-experiment wall time goes to stderr. -short runs
// only the fast instrumented benchmark and, with -obsout, writes its
// metrics summary (rewrite latency, reconfiguration durations, event
// counts) as JSON — CI archives that file as BENCH_obs.json.
//
// Wall-clock performance of the concurrent rewrite engine is not measured
// here: that is the perf ledger's job (go run -C bench ., see
// bench/README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
)

func main() {
	var (
		id     = flag.String("exp", "all", "experiment id (see -list)")
		full   = flag.Bool("full", false, "run paper-scale parameters (slow)")
		seed   = flag.Int64("seed", 42, "simulation seed")
		list   = flag.Bool("list", false, "list experiment ids")
		short  = flag.Bool("short", false, "run only the observability micro-benchmark (fast, CI-friendly)")
		obsout = flag.String("obsout", "", "with -short: write the metrics summary JSON to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Println(e)
		}
		return
	}
	if *short {
		os.Exit(runShort(*seed, *obsout))
	}
	sc := exp.QuickScale()
	if *full {
		sc = exp.FullScale()
	}
	ids := []string{*id}
	if *id == "all" {
		ids = exp.All()
	}
	failed := 0
	for _, e := range ids {
		start := time.Now()
		r, err := exp.Run(e, sc, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e, err)
			failed++
			continue
		}
		fmt.Print(r.String())
		fmt.Println()
		fmt.Fprintf(os.Stderr, "(%s in %.1fs wall)\n", e, time.Since(start).Seconds())
		if !r.Passed() {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) with failed checks\n", failed)
		os.Exit(1)
	}
}

// runShort executes the observability micro-benchmark and optionally
// persists its metrics snapshot, returning the process exit code.
func runShort(seed int64, obsout string) int {
	start := time.Now()
	r, hub := exp.ObsBench(seed)
	fmt.Print(r.String())
	fmt.Printf("(obsbench in %.1fs wall)\n", time.Since(start).Seconds())
	if obsout != "" && hub != nil {
		if err := writeObsReport(obsout, hub); err != nil {
			fmt.Fprintln(os.Stderr, "dyscobench:", err)
			return 1
		}
		fmt.Printf("metrics summary written to %s\n", obsout)
	}
	if !r.Passed() {
		fmt.Fprintln(os.Stderr, "obsbench checks failed")
		return 1
	}
	return 0
}

// obsReport is the BENCH_obs.json schema: the causal-graph summary of the
// benchmark run (DAG hash, edge counts), the critical path of each
// reconfiguration span, and the metrics registry (which includes the
// critpath_len / critpath_wait_ns_* histograms folded in by ObsBench).
type obsReport struct {
	DagHash      string          `json:"dag_hash"`
	Nodes        int             `json:"nodes"`
	Edges        int             `json:"edges"`
	MessageEdges int             `json:"message_edges"`
	DeadEndSends int             `json:"deadend_sends"`
	CritPaths    []*obs.CritPath `json:"critical_paths"`
	Metrics      *obs.Metrics    `json:"metrics"`
}

// writeObsReport persists the composite observability summary.
func writeObsReport(path string, hub *obs.Hub) error {
	events := hub.Events()
	dag := obs.BuildDAG(events)
	rep := obsReport{
		DagHash:      fmt.Sprintf("%016x", dag.DagHash()),
		Nodes:        len(dag.Events),
		Edges:        dag.Edges(),
		MessageEdges: dag.MessageEdges,
		DeadEndSends: dag.DeadEndSends,
		CritPaths:    []*obs.CritPath{},
		Metrics:      hub.Snapshot(),
	}
	for _, sp := range obs.BuildSpans(events) {
		rep.CritPaths = append(rep.CritPaths, obs.CriticalPath(sp))
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
