package exp

import (
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lab"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcp"
)

// Fig13 reproduces Figure 13: the CDF of reconfiguration time for proxy
// removal over 600 sessions — "the time from the moment a reconfiguration
// is triggered until the new path is in use". The paper reports ~80%
// under 2 ms and 98.7% under 4 ms, with a tail from lost-and-retransmitted
// control messages.
func Fig13(sc Scale, seed int64) *Result {
	r := &Result{Name: "fig13", Title: "CDF of reconfiguration time, proxy removal (§5.3, Figure 13)"}
	sessions := 600 / sc.Sessions
	link := netsim.LinkConfig{Delay: 50 * time.Microsecond, Bandwidth: netsim.Gbps(1)}
	in := build("proxyremoval", seed, fault.Params{Pairs: 4, Link: link})
	env, proxyHost, hub := in.Env, in.Mids[0], in.Observe()
	for _, h := range env.Net.Hosts() {
		fastCosts(h)
	}
	in.Proxy.AutoSpliceAfter = 0 // the figure splices every session below

	for _, s := range in.Servers {
		sink := app.NewSink(env.Eng, time.Second)
		sink.Serve(s.Stack, 80)
	}
	// Control packets occasionally get lost: ~1% loss on daemon UDP, as
	// the paper attributes the CDF's tail to control retransmissions.
	lossy := append(append([]*lab.Node(nil), in.Clients...), proxyHost)
	for _, n := range lossy {
		n.Host.AddEgressHook(dropControl(env.Eng, 0.01))
	}

	var cdf stats.CDF
	for _, c := range in.Clients {
		c.Agent.OnReconfigSwitch = func(sess packet.FiveTuple, since sim.Time) {
			cdf.AddDuration(since)
		}
	}
	ctrlRetransmits := func() uint64 {
		var n uint64
		for _, h := range lossy {
			n += h.Agent.Stats.CtrlRetransmits
		}
		return n
	}
	// Establish the sessions with a little data each.
	per := sessions / 4
	for p, c := range in.Clients {
		for s := 0; s < per; s++ {
			conn := c.Stack.Connect(in.Servers[p].Addr(), 80, tcp.Config{})
			cc := conn
			// Send cannot fail on a just-established connection, and the
			// figure asserts delivery totals downstream.
			conn.OnEstablished = func() { _ = cc.Send(make([]byte, 2000)) }
		}
	}
	env.RunFor(2 * time.Second)
	// Stagger the splices slightly so daemons are not synchronized; a
	// session whose backend handshake is still in flight splices once it
	// is up.
	for i, pr := range in.Proxy.Pairs() {
		env.Eng.Schedule(time.Duration(i)*100*time.Microsecond, func() { pr.Splice() })
	}
	env.RunFor(30 * time.Second)

	n := cdf.N()
	r.addRow("reconfigurations measured: %d of %d", n, 4*per)
	below2 := cdf.FractionBelow(0.002) * 100
	below4 := cdf.FractionBelow(0.004) * 100
	r.addRow("P(t < 2ms) = %5.1f%%   (paper: ~80%%)", below2)
	r.addRow("P(t < 4ms) = %5.1f%%   (paper: 98.7%%)", below4)
	r.addRow("p50=%6.2fms p99=%6.2fms max=%6.2fms",
		cdf.Quantile(0.5)*1000, cdf.Quantile(0.99)*1000, cdf.Quantile(1)*1000)
	pts := cdf.Points(20)
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i] = p[0] * 1000 // ms
		ys[i] = p[1]
	}
	r.addSeries("time_ms", xs)
	r.addSeries("fraction", ys)

	r.check("all sessions reconfigure", n == 4*per, "n=%d want=%d", n, 4*per)
	r.check("most reconfigurations under 2ms (paper: ~80%)", below2 > 60, "%.1f%%", below2)
	r.check("nearly all under 4ms (paper: 98.7%)", below4 > 90, "%.1f%%", below4)
	if retx := ctrlRetransmits(); retx > 0 {
		r.check("a loss-induced tail exists beyond the median",
			cdf.Quantile(1) > 2*cdf.Quantile(0.5), "max=%.2fms p50=%.2fms (ctrl retx=%d)",
			cdf.Quantile(1)*1000, cdf.Quantile(0.5)*1000, retx)
	} else {
		r.addNote("no control-message losses occurred at this scale/seed; tail check skipped")
	}
	r.addNote("scale=%s: %d sessions (paper: 600); 1%% control-message loss injected", sc.Label, 4*per)
	reportObs(r, hub)
	if retx := ctrlRetransmits(); retx > 0 {
		// The obs counter covers every host; retx sums only the hosts the
		// figure's loss hooks watch, so obs must be at least that.
		r.check("obs counter covers the agent control-retransmit stats",
			hub.Metrics.Counter(obs.MCtrlRetransmits) >= retx,
			"obs=%d agents=%d", hub.Metrics.Counter(obs.MCtrlRetransmits), retx)
	}
	return r
}

// dropControl drops daemon UDP packets with probability p, drawn from the
// engine's random stream.
func dropControl(eng *sim.Engine, p float64) netsim.Hook {
	return func(pkt *packet.Packet, dir netsim.Direction) netsim.Verdict {
		if pkt.IsUDP() && pkt.Tuple.DstPort == core.DaemonPort && eng.Rand().Float64() < p {
			return netsim.Drop
		}
		return netsim.Pass
	}
}
