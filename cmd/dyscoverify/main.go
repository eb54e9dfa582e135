// Command dyscoverify runs the Spin-equivalent exhaustive verification of
// the Dysco reconfiguration protocol (§3.7): the locking protocol under
// contention and cancellation, and the two-path data-transfer rules with
// sequence-number deltas. Custom configurations can be explored:
//
//	dyscoverify                          # the standard battery
//	dyscoverify -agents 6 -reqs 0-3,2-5  # a custom contention scenario
//	dyscoverify -tokens 5 -delta 42      # a custom two-path scenario
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/exp"
	"repro/internal/model"
)

func main() {
	var (
		agents = flag.Int("agents", 0, "custom lock scenario: chain length")
		reqs   = flag.String("reqs", "", "custom lock scenario: segments, e.g. 0-2,1-3")
		cancel = flag.Bool("cancel", false, "custom lock scenario: winners cancel (§3.6)")
		tokens = flag.Int("tokens", 0, "custom two-path scenario: data tokens")
		delta  = flag.Int64("delta", 0, "custom two-path scenario: middlebox delta")
		max    = flag.Int("max", 0, "state bound (0 = default)")
	)
	flag.Parse()

	if *agents > 0 {
		segs, err := parseSegments(*reqs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg := model.LockConfig{Agents: *agents, Requests: segs, WinnerCancels: *cancel}
		report("lock", model.NewLockState(&cfg), *max)
		return
	}
	if *tokens > 0 {
		cfg := model.TwoPathConfig{N: *tokens, Delta: *delta}
		report("two-path", model.NewTwoPathState(&cfg), *max)
		return
	}
	r := exp.Verify()
	fmt.Print(r.String())
	if !r.Passed() {
		os.Exit(1)
	}
}

func report(kind string, init model.State, max int) {
	st, v := model.Explore(init, max)
	fmt.Printf("%s: %d states, %d transitions, %d terminal states, depth %d\n",
		kind, st.States, st.Transitions, st.Terminals, st.Deepest)
	if v != nil {
		fmt.Println(v.Error())
		os.Exit(1)
	}
	fmt.Println("verified: no property violations, no deadlock")
}

func parseSegments(s string) ([]model.Segment, error) {
	if s == "" {
		return nil, fmt.Errorf("-reqs required with -agents (e.g. 0-2,1-3)")
	}
	var out []model.Segment
	for _, part := range strings.Split(s, ",") {
		var seg model.Segment
		if _, err := fmt.Sscanf(part, "%d-%d", &seg.Left, &seg.Right); err != nil {
			return nil, fmt.Errorf("bad segment %q: %v", part, err)
		}
		out = append(out, seg)
	}
	return out, nil
}
