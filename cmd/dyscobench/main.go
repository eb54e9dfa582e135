// Command dyscobench regenerates the paper's tables and figures
// (see DESIGN.md for the per-experiment index):
//
//	dyscobench -exp fig8            # one experiment
//	dyscobench -exp all             # everything, paper order
//	dyscobench -exp fig12 -full     # paper-scale parameters
//	dyscobench -list                # experiment ids
//
// Output is plain text: one table and/or series block per experiment,
// with PASS/FAIL checks of the paper's qualitative claims. Stdout is
// byte-stable per seed (experiments_output.txt is `-exp all` verbatim);
// the per-experiment wall time goes to stderr. The observability
// checks of an instrumented reconfiguration run live in
// internal/lab's tests; `dyscotrace -rewrites -json` dumps a run's
// events, spans and metrics.
//
// Wall-clock performance of the concurrent rewrite engine is not measured
// here: that is the perf ledger's job (go run -C bench ., see
// bench/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/exp"
)

func main() {
	var (
		id   = flag.String("exp", "all", "experiment id (see -list)")
		full = flag.Bool("full", false, "run paper-scale parameters (slow)")
		seed = flag.Int64("seed", 42, "simulation seed")
		list = flag.Bool("list", false, "list experiment ids")
	)
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Println(e)
		}
		return
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
