package exp

import (
	"time"

	"repro/internal/app"
	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/tcp"
)

// Fig14 reproduces Figure 14: congestion window and goodput of a single
// session across a proxy removal where the new path is faster than the
// old one (so in-flight old-path packets arrive after new-path packets —
// reordering at the receiver). With SACK the session sees no disruption
// (a); with SACK disabled, losses/reordering temporarily degrade it (b).
// The topology mirrors the paper's Mininet setup: link delays in the
// milliseconds (old path ~70 ms RTT via the proxy, new path ~20 ms),
// moderate bandwidth, removal triggered at t=30 s.
func Fig14(seed int64) *Result {
	r := &Result{Name: "fig14", Title: "TCP behaviour across reconfiguration, SACK on/off (§5.3, Figure 14)"}
	type out struct {
		cwnd, goodput []float64
		dipRatio      float64
		timeouts      uint64
	}
	run := func(sack bool) out {
		// Client and server 5 ms from the router; the proxy hangs off a
		// 15 ms link, so the old path is ~40 ms RTT against ~20 ms direct.
		// Small router queues (Mininet-like): the overlap of old-path
		// drain and new-path data at the removal drops a burst of packets,
		// which SACK recovers from cleanly and plain Reno does not — the
		// §5.3 explanation of Figure 14(b).
		near := netsim.LinkConfig{Delay: 5 * time.Millisecond, Bandwidth: netsim.Mbps(50), QueueBytes: 256 << 10}
		far := netsim.LinkConfig{Delay: 30 * time.Millisecond, Bandwidth: netsim.Mbps(50), QueueBytes: 256 << 10}
		in := build("proxyremoval", seed, fault.Params{Link: near, MBLink: far})
		env, proxy := in.Env, in.Proxy
		proxy.AutoSpliceAfter = 0 // the figure splices at t=30 s
		client, server := in.Clients[0], in.Servers[0]

		goodput := stats.NewTimeSeries(time.Second)
		sink := &app.Sink{Eng: env.Eng, Series: goodput}
		sink.Serve(server.Stack, 80)
		conn := client.Stack.Connect(server.Addr(), 80, tcp.Config{DisableSACK: !sack})
		src := app.NewSource(conn, 0)
		src.HighWater = 1 << 20 // cwnd-limited, without a pathological first burst

		// Sample cwnd at 250 ms.
		var cwnd []float64
		var sampler func()
		sampler = func() {
			cwnd = append(cwnd, float64(conn.Cwnd())/1460)
			if env.Eng.Now() < 60*time.Second {
				env.Eng.Schedule(250*time.Millisecond, sampler)
			}
		}
		env.Eng.Schedule(0, sampler)

		var timeoutsAtSwitch uint64
		env.Eng.At(30*time.Second, func() {
			timeoutsAtSwitch = conn.Stats.Timeouts
			for _, pr := range proxy.Pairs() {
				pr.Splice()
			}
		})
		env.RunUntil(60 * time.Second)

		g := goodput.Rate()
		mbps := make([]float64, len(g))
		for i, v := range g {
			mbps[i] = stats.Mbps(v)
		}
		// Disruption: the transient right after the removal, measured
		// against the steady state the session eventually reaches on the
		// (faster) new path.
		after := stats.MeanOver(mbps, 45, 55)
		during := minOver(mbps, 30, 37)
		return out{cwnd: cwnd, goodput: mbps, dipRatio: during / after,
			timeouts: conn.Stats.Timeouts - timeoutsAtSwitch}
	}

	withSACK := run(true)
	withoutSACK := run(false)
	r.addSeries("cwnd_segs_sack", withSACK.cwnd)
	r.addSeries("goodput_mbps_sack", withSACK.goodput)
	r.addSeries("cwnd_segs_nosack", withoutSACK.cwnd)
	r.addSeries("goodput_mbps_nosack", withoutSACK.goodput)
	r.addRow("SACK on : goodput dip to %5.1f%% of steady state across removal (timeouts=%d)",
		withSACK.dipRatio*100, withSACK.timeouts)
	r.addRow("SACK off: goodput dip to %5.1f%% of steady state across removal (timeouts=%d)",
		withoutSACK.dipRatio*100, withoutSACK.timeouts)
	r.check("with SACK the switch losses recover with at most a brief dip (paper 14a)",
		withSACK.timeouts <= 1 && withSACK.dipRatio > 0.4,
		"timeouts=%d dip=%.1f%%", withSACK.timeouts, withSACK.dipRatio*100)
	r.check("without SACK performance temporarily degrades (paper 14b)",
		withoutSACK.dipRatio < 0.8*withSACK.dipRatio || withoutSACK.timeouts > withSACK.timeouts,
		"nosack=%.1f%% (to=%d) sack=%.1f%% (to=%d)",
		withoutSACK.dipRatio*100, withoutSACK.timeouts, withSACK.dipRatio*100, withSACK.timeouts)
	r.addNote("old path RTT ≈ 70ms via proxy, new path ≈ 20ms direct; removal at t=30s (Mininet-equivalent)")
	return r
}

func minOver(xs []float64, from, to int) float64 {
	if from < 0 {
		from = 0
	}
	if to > len(xs) {
		to = len(xs)
	}
	if to <= from {
		return 0
	}
	m := xs[from]
	for _, x := range xs[from:to] {
		if x < m {
			m = x
		}
	}
	return m
}
