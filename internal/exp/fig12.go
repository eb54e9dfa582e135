package exp

import (
	"time"

	"repro/internal/app"
	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcp"
)

// build constructs the named registry scenario's Figure 11 testbed with
// the figure's parameter set; the figure drives its own traffic on it.
func build(scenario string, seed int64, p fault.Params) *fault.Instance {
	s, ok := fault.ScenarioByName(scenario)
	if !ok {
		panic("exp: no registry scenario " + scenario)
	}
	return s.Build(seed, p)
}

// Fig12 reproduces Figure 12: goodput of 600 sessions (4 pairs × 150)
// through a TCP proxy, with reconfigurations at t=40/60/80/100 s removing
// the proxy from one pair at a time; plus proxy CPU utilization. The
// quick scale divides the session count and the timeline.
func Fig12(sc Scale, seed int64) *Result {
	r := &Result{Name: "fig12", Title: "Goodput and proxy CPU across staged proxy removals (§5.3, Figure 12)"}
	perPair := 150 / sc.Sessions
	duration := time.Duration(120/sc.Time) * time.Second
	reconfigAt := []time.Duration{
		time.Duration(40/sc.Time) * time.Second,
		time.Duration(60/sc.Time) * time.Second,
		time.Duration(80/sc.Time) * time.Second,
		time.Duration(100/sc.Time) * time.Second,
	}
	// Links scaled from the testbed's 10 Gbps to keep the sweep tractable:
	// the proxy host's access link (all four pairs share it) is the
	// bottleneck while the proxy is in the chains, exactly as the shared
	// proxy was in the paper; removal moves each pair onto its own path.
	link := netsim.LinkConfig{Delay: 50 * time.Microsecond, Bandwidth: netsim.Mbps(800), QueueBytes: 1 << 20}
	mbLink := netsim.LinkConfig{Delay: 50 * time.Microsecond, Bandwidth: netsim.Gbps(1.6), QueueBytes: 2 << 20}
	in := build("proxyremoval", seed, fault.Params{Pairs: 4, Link: link, MBLink: mbLink})
	env, proxyHost, hub := in.Env, in.Mids[0], in.Observe()
	for _, h := range env.Net.Hosts() {
		fastCosts(h)
	}
	proxyHost.Host.CPU.Series = stats.NewTimeSeries(time.Second)
	in.Proxy.RelayCostPerKB = 2 * time.Microsecond
	in.Proxy.AutoSpliceAfter = 0 // the figure splices on its own schedule
	goodput := stats.NewTimeSeries(time.Second)
	// The figure drives its own sources and sinks, so it counts their
	// resets itself: no removal may reset a session.
	resets := 0
	countReset := func() { resets++ }
	sink := &app.Sink{Eng: env.Eng, Series: goodput}
	for _, s := range in.Servers {
		s.Stack.Listen(80, func(c *tcp.Conn) {
			sink.Attach(c)
			c.OnReset = countReset
		})
	}
	var reconfigsDone int
	for _, c := range in.Clients {
		c.Agent.OnReconfigDone = func(sess packet.FiveTuple, ok bool, took sim.Time) {
			if ok {
				reconfigsDone++
			}
		}
	}
	// Start the bundles.
	for p, c := range in.Clients {
		for s := 0; s < perPair; s++ {
			conn := c.Stack.Connect(in.Servers[p].Addr(), 80, tcp.Config{})
			conn.OnReset = countReset
			app.NewSource(conn, 0)
		}
	}
	// Schedule the staged removals: at each mark, every session of one
	// client-server pair splices out of the proxy (a session whose backend
	// handshake is still in flight splices once it is up).
	for i, at := range reconfigAt {
		target := in.Servers[i].Addr()
		env.Eng.At(at, func() {
			for _, pr := range in.Proxy.Pairs() {
				if pr.Server.Tuple().DstIP == target {
					pr.Splice()
				}
			}
		})
	}
	env.RunUntil(duration)

	gbps := make([]float64, len(goodput.Bins()))
	for i, v := range goodput.Bins() {
		gbps[i] = stats.Gbps(v)
	}
	r.addSeries("goodput_gbps", gbps)
	cpu := proxyHost.Host.CPU.Series.Bins()
	r.addSeries("proxy_cpu_util", cpu)

	// Shape checks against §5.3.
	preIdx := int(reconfigAt[0]/time.Second) - 2
	postIdx := len(gbps) - 2
	pre := goodput.MeanOver(preIdx-3, preIdx+1)
	post := goodput.MeanOver(postIdx-3, postIdx+1)
	r.addRow("sessions=%d (4 pairs × %d), reconfigs at %v", 4*perPair, perPair, reconfigAt)
	r.addRow("goodput before removals: %6.3f Gbps; after all removals: %6.3f Gbps (ratio %.2fx)",
		stats.Gbps(pre), stats.Gbps(post), post/pre)
	r.check("goodput roughly doubles after all removals (paper: 2x)",
		post/pre > 1.5 && post/pre < 3.5, "ratio=%.2fx", post/pre)
	cpuPre := stats.MeanOver(cpu, preIdx-3, preIdx+1)
	cpuPost := stats.MeanOver(cpu, postIdx-3, postIdx+1)
	r.addRow("proxy CPU before: %5.1f%%; after: %5.1f%%", cpuPre*100, cpuPost*100)
	r.check("proxy CPU falls to ~0 after all removals",
		cpuPost < 0.05 && cpuPre > 0.3 && cpuPre < 0.98, "pre=%.2f post=%.2f", cpuPre, cpuPost)
	r.check("all reconfigurations completed",
		reconfigsDone == 4*perPair, "done=%d want=%d", reconfigsDone, 4*perPair)
	r.check("no session reset at either end", resets == 0, "resets=%d", resets)
	// Goodput increases stepwise at each removal mark.
	steps := 0
	for _, at := range reconfigAt {
		i := int(at / time.Second)
		before := stats.MeanOver(gbps, i-3, i)
		after := stats.MeanOver(gbps, i+2, i+5)
		if after > before*1.05 {
			steps++
		}
	}
	r.check("goodput steps up at the removal marks", steps >= 2, "steps=%d/4", steps)
	r.addNote("scale=%s: %d sessions, %v timeline, 800 Mbps host / 1.6 Gbps proxy links (paper: 600 sessions, 120s, 10 Gbps)",
		sc.Label, 4*perPair, duration)
	r.addNote("later removals show mainly in proxy CPU: once two pairs leave, the remaining pairs already reach their own line rate")
	reportObs(r, hub)
	if h := hub.Metrics.Hist(obs.MReconfigDuration); h != nil {
		r.check("obs reconfig durations cover every completed reconfiguration",
			h.N == uint64(reconfigsDone), "observed=%d done=%d", h.N, reconfigsDone)
	}
	return r
}
