package exp

import (
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mbox"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcp"
)

// Fig15 reproduces Figure 15: three bundles of 100 sessions run through
// two stateful firewalls (bundles A and B through Middlebox1, bundle C
// through Middlebox2). At the 70 s mark bundle A is reconfigured onto
// Middlebox2 with conntrack-style state transfer, so its sessions are not
// blocked by the new firewall. The middlebox links are limited (2 Gbps in
// the paper) so the firewalls are the bottleneck and goodput shifts
// visibly when the bundle moves.
func Fig15(sc Scale, seed int64) *Result {
	r := &Result{Name: "fig15", Title: "Firewall replacement with state transfer (§5.3, Figure 15)"}
	per := 100 / sc.Sessions
	duration := time.Duration(120/sc.Time) * time.Second
	moveAt := time.Duration(70/sc.Time) * time.Second

	// Scaled links (paper: 10 Gbps hosts, 2 Gbps middlebox links): each
	// bundle's endpoints cap at 100 Mbps and each middlebox link at
	// 160 Mbps, so two bundles sharing a middlebox are squeezed, one
	// bundle alone is endpoint-limited. Moderate queues keep the control
	// messages' queueing delay bounded during the transfer.
	hostLink := netsim.LinkConfig{Delay: 50 * time.Microsecond, Bandwidth: netsim.Mbps(100), QueueBytes: 256 << 10}
	mbLink := netsim.LinkConfig{Delay: 50 * time.Microsecond, Bandwidth: netsim.Mbps(160), QueueBytes: 256 << 10}

	in := build("statemigration", seed, fault.Params{
		Pairs: 3, Link: hostLink, MBLink: mbLink,
		Agent: core.Config{StateOpCost: 10 * time.Millisecond},
	})
	env, clients, m1, m2 := in.Env, in.Clients, in.Mids[0], in.Mids[1]
	for _, h := range env.Net.Hosts() {
		fastCosts(h)
	}
	fw2 := m2.Agent.App.(*mbox.Firewall)

	// Bundles A and B go through fw1, as the registry chains them;
	// bundle C is steered through fw2.
	env.ChainPolicy(clients[2], 80, m2)

	series := make([]*stats.TimeSeries, 3)
	for i, s := range in.Servers {
		series[i] = stats.NewTimeSeries(time.Second)
		sink := &app.Sink{Eng: env.Eng, Series: series[i]}
		sink.Serve(s.Stack, 80)
	}
	for b, c := range clients {
		for s := 0; s < per; s++ {
			app.NewSource(c.Stack.Connect(in.Servers[b].Addr(), 80, tcp.Config{}), 0)
		}
	}

	// Measure per-migration time "from the moment a SYN message is sent
	// until the new path is used" — the paper reports < 100 ms dominated
	// by the state transfer.
	var migTimes []sim.Time
	clients[0].Agent.OnReconfigSwitch = func(sess packet.FiveTuple, since sim.Time) {
		migTimes = append(migTimes, since)
	}
	env.Eng.At(moveAt, func() {
		// Replace fw1 with fw2 for every bundle-A session, with state
		// transfer from Middlebox1 to Middlebox2.
		clients[0].Agent.EachSession(func(sess *core.Session) {
			if !sess.IsLeftEnd() {
				return
			}
			clients[0].Agent.StartReconfig(sess.IDLeft, core.ReconfigOptions{
				RightAnchor:    sess.IDLeft.DstIP,
				NewMiddleboxes: []packet.Addr{m2.Addr()},
				StateFrom:      m1.Addr(),
				StateTo:        m2.Addr(),
			})
		})
	})
	env.RunUntil(duration)

	for i, name := range []string{"bundleA_gbps", "bundleB_gbps", "bundleC_gbps"} {
		g := make([]float64, len(series[i].Bins()))
		for j, v := range series[i].Bins() {
			g[j] = stats.Gbps(v)
		}
		r.addSeries(name, g)
	}

	move := int(moveAt / time.Second)
	end := int(duration/time.Second) - 2
	aBefore := series[0].MeanOver(move-6, move-1)
	aAfter := series[0].MeanOver(end-5, end)
	bBefore := series[1].MeanOver(move-6, move-1)
	bAfter := series[1].MeanOver(end-5, end)
	m2After := series[0].MeanOver(end-5, end) + series[2].MeanOver(end-5, end)
	m1After := bAfter

	r.addRow("bundles: %d sessions each; A migrates M1→M2 at %v with state transfer", per, moveAt)
	r.addRow("bundle A goodput: before=%6.3f after=%6.3f Gbps", stats.Gbps(aBefore), stats.Gbps(aAfter))
	r.addRow("bundle B goodput: before=%6.3f after=%6.3f Gbps (M1 now alone)", stats.Gbps(bBefore), stats.Gbps(bAfter))
	r.addRow("aggregate via M2 after: %6.3f Gbps vs via M1 after: %6.3f Gbps", stats.Gbps(m2After), stats.Gbps(m1After))
	r.addRow("%s", summarizeDurations("migration time (incl. state transfer)", migTimes))

	r.check("all bundle-A sessions migrated", len(migTimes) == per, "migrated=%d want=%d", len(migTimes), per)
	r.check("no migrated session blocked by the new firewall (imports applied)",
		int(fw2.Imported) == per, "imported=%d", fw2.Imported)
	r.check("goodput of B (stayed on M1) increases after the move (paper shape)",
		bAfter > 1.15*bBefore, "before=%.3f after=%.3f Gbps", stats.Gbps(bBefore), stats.Gbps(bAfter))
	r.check("migrated sessions (A) keep their goodput (paper: no degradation)",
		aAfter > 0.8*aBefore, "before=%.3f after=%.3f Gbps", stats.Gbps(aBefore), stats.Gbps(aAfter))
	r.check("aggregate via M2 ≈ 2x via M1 after the move (paper: almost twice)",
		m2After > 1.4*m1After, "m2=%.3f m1=%.3f Gbps", stats.Gbps(m2After), stats.Gbps(m1After))
	if len(migTimes) > 0 {
		s := stats.Summarize(durationsToMS(migTimes))
		r.check("migration (incl. state transfer) < 100ms (paper: <100ms)",
			s.Mean < 100, "mean=%.1fms", s.Mean)
		r.check("state transfer dominates migration time (≫ the 2-4ms of fig13)",
			s.Mean > 10, "mean=%.1fms", s.Mean)
	}
	// Migrated sessions keep flowing: fw2 must not drop their packets.
	r.check("new firewall drops nothing after import", fw2.Dropped == 0, "dropped=%d", fw2.Dropped)
	r.addNote("scale=%s: %d sessions/bundle, %v timeline (paper: 100/bundle, 120s, 2 Gbps mbox links)",
		sc.Label, per, duration)
	return r
}

func durationsToMS(ds []sim.Time) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
