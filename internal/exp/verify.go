package exp

import (
	"repro/internal/model"
)

// Verify runs the §3.7 verification suite: exhaustive model checking of
// the locking and two-path protocols over a battery of configurations
// ("it was necessary to verify each configuration separately"), checking
// the paper's five properties plus deadlock freedom.
func Verify() *Result {
	r := &Result{Name: "verify", Title: "Exhaustive protocol verification (§3.7, Spin-equivalent)"}

	// row and check prefix the report lines of each model's configurations.
	type config struct {
		row, check, name string
		init             model.State
	}
	lock := func(name string, cfg model.LockConfig) config {
		return config{"lock", "lock", name, model.NewLockState(&cfg)}
	}
	twoPath := func(name string, cfg model.TwoPathConfig) config {
		return config{"2-path", "two-path", name, model.NewTwoPathState(&cfg)}
	}
	chain := func(name string, cfg model.ChainConfig) config {
		return config{"chain", "chain", name, model.NewChainState(&cfg)}
	}
	configs := []config{
		lock("single request, 3-agent chain", model.LockConfig{Agents: 3, Requests: []model.Segment{{Left: 0, Right: 2}}}),
		lock("single request, 5-agent chain", model.LockConfig{Agents: 5, Requests: []model.Segment{{Left: 0, Right: 4}}}),
		lock("Figure 5 contention (W..Y vs X..Z)", model.LockConfig{Agents: 4, Requests: []model.Segment{{Left: 1, Right: 3}, {Left: 0, Right: 2}}}),
		lock("identical segments", model.LockConfig{Agents: 3, Requests: []model.Segment{{Left: 0, Right: 2}, {Left: 0, Right: 2}}}),
		lock("nested segments", model.LockConfig{Agents: 5, Requests: []model.Segment{{Left: 0, Right: 4}, {Left: 1, Right: 3}}}),
		lock("disjoint segments", model.LockConfig{Agents: 5, Requests: []model.Segment{{Left: 0, Right: 2}, {Left: 2, Right: 4}}}),
		lock("three-way contention", model.LockConfig{Agents: 5, Requests: []model.Segment{{Left: 0, Right: 3}, {Left: 1, Right: 4}, {Left: 2, Right: 4}}}),
		lock("cancel after lock (§3.6)", model.LockConfig{Agents: 4, Requests: []model.Segment{{Left: 0, Right: 3}}, WinnerCancels: true}),
		lock("cancel with contention", model.LockConfig{Agents: 4, Requests: []model.Segment{{Left: 0, Right: 2}, {Left: 1, Right: 3}}, WinnerCancels: true}),
		twoPath("3 tokens, no delta", model.TwoPathConfig{N: 3}),
		twoPath("3 tokens, delta=1000 (proxy deleted)", model.TwoPathConfig{N: 3, Delta: 1000, Terminating: true}),
		twoPath("4 tokens, switch after 2 (split stream)", model.TwoPathConfig{N: 4, Delta: 7, SwitchAfterMin: 2}),
		twoPath("5 tokens, delta, free switch point", model.TwoPathConfig{N: 5, Delta: 13}),
		twoPath("switch before any data", model.TwoPathConfig{N: 2}),
		chain("establishment, 2 hops", model.ChainConfig{Hops: 2, NATHop: -1}),
		chain("establishment, NAT at hop 1", model.ChainConfig{Hops: 3, NATHop: 1}),
		chain("establishment, dup SYN + NAT", model.ChainConfig{Hops: 2, NATHop: 0, DupSYN: true}),
		chain("establishment, 4 hops, dup SYN", model.ChainConfig{Hops: 4, NATHop: -1, DupSYN: true}),
	}
	totalStates, totalTrans := 0, 0
	for _, c := range configs {
		st, v := model.Explore(c.init, 0)
		totalStates += st.States
		totalTrans += st.Transitions
		got := "verified"
		if v != nil {
			got = v.Err.Error()
		}
		r.addRow("%-6s %-38s states=%-8d transitions=%-8d %s", c.row, c.name, st.States, st.Transitions, got)
		r.check(c.check+": "+c.name, v == nil, "%d states", st.States)
	}

	// Self-test: the checker must catch an injected delta bug (P4).
	bugCfg := model.TwoPathConfig{N: 3, Delta: 5, SwitchAfterMin: 1, BugDoubleDelta: true}
	_, v := model.Explore(model.NewTwoPathState(&bugCfg), 0)
	r.check("fault injection caught (properties not vacuous)", v != nil, "%v", violationSummary(v))

	r.addRow("total: %d states, %d transitions explored", totalStates, totalTrans)
	r.addNote("properties: P1 exclusive locking, P2 no data loss, P3/P5 clean completion & teardown, P4 correct seq/ack, deadlock freedom")
	return r
}

func violationSummary(v *model.Violation) string {
	if v == nil {
		return "no violation"
	}
	return v.Err.Error()
}
