package exp

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/app"
	"repro/internal/lab"
)

// fig10Line builds Figure 10's testbed: one client and one server with nm
// middleboxes between them. Each host role has one cost model in both
// variants, so the variants differ only by what Dysco's agents do.
func fig10Line(nm int, dysco bool, seed int64) (env *lab.Env, clients, mids, servers []*lab.Node) {
	env = lab.NewEnv(seed)
	clients, mids, servers = env.Line(lanLink(), dysco, 1, nm)
	for _, n := range slices.Concat(clients, servers) {
		fastCosts(n.Host) // multi-core testbed hosts (§5.2)
	}
	for _, n := range slices.Concat(clients, mids, servers) {
		if n.Agent != nil {
			// A hash lookup plus an incremental checksum, in the kernel
			// module (§4.1); the agent's default charges 300 ns.
			n.Agent.Cfg.RewriteCost = 100 * time.Nanosecond
		}
	}
	for _, m := range mids {
		driverPathCosts(m.Host) // kernel fast path at middleboxes
	}
	if dysco {
		env.ChainPolicy(clients[0], 80, mids...)
	}
	return env, clients, mids, servers
}

// Fig10 reproduces Figure 10: HTTP requests per second an NGINX-like
// server sustains under a wrk-like closed-loop load (16 threads × 400
// persistent connections in the paper), with 1 and 4 middleboxes between
// client and server, Dysco vs baseline.
func Fig10(sc Scale, seed int64) *Result {
	r := &Result{Name: "fig10", Title: "HTTP requests/s under load (§5.2, Figure 10)"}
	conns := 400 / sc.Sessions
	window := time.Duration(8/sc.Time+1) * time.Second
	respSize := uint32(600) // small static object

	type key struct {
		mboxes int
		dysco  bool
	}
	rps := map[key]float64{}
	for _, nm := range []int{1, 4} {
		for _, dysco := range []bool{true, false} {
			env, clients, _, servers := fig10Line(nm, dysco, seed)
			// A real web server does ~10µs of work per request; without it
			// the agent's sub-µs rewrite would dominate artificially.
			srv := &app.HTTPServer{RequestCost: 10 * time.Microsecond}
			srv.Serve(servers[0].Stack, 80)
			gen := app.NewLoadGen(clients[0].Stack, servers[0].Addr(), 80, conns, respSize)
			env.RunFor(time.Second) // ramp
			before := gen.Completed
			env.RunFor(window)
			got := float64(gen.Completed-before) / window.Seconds()
			rps[key{nm, dysco}] = got
			r.addRow("mbox=%d dysco=%-5v  %10.0f req/s (errors=%d)", nm, dysco, got, gen.Errors)
		}
	}
	for _, nm := range []int{1, 4} {
		d, b := rps[key{nm, true}], rps[key{nm, false}]
		gap := (b - d) / b * 100
		r.check(fmt.Sprintf("dysco no faster than baseline and within 5%% at %d mbox (paper: <1.8)", nm),
			0 <= gap && gap < 5, "gap=%.2f%%", gap)
	}
	r.check("4 middleboxes serve no more requests than 1 (paper: slightly fewer)",
		rps[key{4, true}] <= rps[key{1, true}],
		"1mbox=%.0f 4mbox=%.0f", rps[key{1, true}], rps[key{4, true}])
	r.addNote("scale=%s: %d persistent connections over %v (paper: 400 conns, ~300k req/s on the testbed)",
		sc.Label, conns, window)
	return r
}
