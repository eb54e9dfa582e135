package exp

import (
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lab"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcp"
)

// AblationWindow compares receive-window strategies on the old path during
// reconfiguration (§5.3: the paper first tried advertising a zero window
// and found min(advertised, 64KB) much better).
func AblationWindow(sc Scale, seed int64) *Result {
	r := &Result{Name: "ablation-window", Title: "Old-path window strategy during reconfiguration (§5.3)"}
	type out struct {
		dip  float64
		took sim.Time
		ok   bool
	}
	run := func(cfg core.Config, label string) out {
		// WAN-ish path so a real backlog is in flight when the proxy is
		// removed — the regime where the old-path window strategy matters.
		link := netsim.LinkConfig{Delay: 10 * time.Millisecond, Bandwidth: netsim.Mbps(100), QueueBytes: 256 << 10}
		in := build("proxyremoval", seed, fault.Params{Link: link, Agent: cfg})
		env, client, server := in.Env, in.Clients[0], in.Servers[0]
		in.Proxy.AutoSpliceAfter = 0 // spliced below
		goodput := stats.NewTimeSeries(100 * time.Millisecond)
		sink := &app.Sink{Eng: env.Eng, Series: goodput}
		sink.Serve(server.Stack, 80)
		conn := client.Stack.Connect(server.Addr(), 80, tcp.Config{})
		src := app.NewSource(conn, 0)
		src.HighWater = 2 << 20
		res := out{}
		env.Eng.At(3*time.Second, func() {
			for _, pr := range in.Proxy.Pairs() {
				pr.Splice()
			}
		})
		client.Agent.OnReconfigDone = func(sess packet.FiveTuple, ok bool, took sim.Time) {
			res.ok, res.took = ok, took
		}
		env.RunUntil(10 * time.Second)
		g := goodput.Rate()
		after := stats.MeanOver(g, 70, 95)
		dip := minOver(g, 30, 45)
		res.dip = dip / after
		r.addRow("%-28s dip=%5.2f reconfig-done-in=%v ok=%v", label, res.dip, res.took, res.ok)
		return res
	}
	clamp := run(core.Config{WindowClamp: 64 << 10}, "clamp 64KB (paper's choice)")
	zero := run(core.Config{ZeroWindow: true}, "zero window")
	none := run(core.Config{WindowClamp: -1}, "no clamping")
	r.check("all strategies complete the reconfiguration",
		clamp.ok && zero.ok && none.ok, "clamp=%v zero=%v none=%v", clamp.ok, zero.ok, none.ok)
	r.check("zero window degrades the transition (paper: 'performance degraded significantly')",
		zero.took > 2*clamp.took || zero.dip < clamp.dip,
		"zero: dip=%.2f took=%v; clamp: dip=%.2f took=%v", zero.dip, zero.took, clamp.dip, clamp.took)
	r.addNote("the paper settled on min(advertised, 64KB) after zero-window advertising performed badly")
	r.addNote("with a single session no receiver surge exists, so no-clamp ≈ clamp here; the clamp's value shows at fig12 scale")
	return r
}

// AblationRTO sweeps the control-message retransmission timeout against a
// lossy control channel and reports the reconfiguration-time tail.
func AblationRTO(sc Scale, seed int64) *Result {
	r := &Result{Name: "ablation-rto", Title: "Control retransmission timeout vs reconfiguration tail"}
	sessions := 120 / sc.Sessions
	var p99s []float64
	rtos := []sim.Time{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond}
	for _, rto := range rtos {
		cfg := core.Config{ControlRTO: rto}
		link := netsim.LinkConfig{Delay: 50 * time.Microsecond, Bandwidth: netsim.Gbps(1)}
		in := build("proxyremoval", seed, fault.Params{Link: link, Agent: cfg})
		env, client, server := in.Env, in.Clients[0], in.Servers[0]
		in.Proxy.AutoSpliceAfter = 0 // spliced below
		sink := app.NewSink(env.Eng, time.Second)
		sink.Serve(server.Stack, 80)
		// 5% control loss.
		for _, h := range []*lab.Node{client, in.Mids[0], server} {
			h.Host.AddEgressHook(dropControl(env.Eng, 0.05))
		}
		var cdf stats.CDF
		client.Agent.OnReconfigSwitch = func(sess packet.FiveTuple, since sim.Time) {
			cdf.AddDuration(since)
		}
		for i := 0; i < sessions; i++ {
			conn := client.Stack.Connect(server.Addr(), 80, tcp.Config{})
			cc := conn
			// Send cannot fail on a just-established connection, and the
			// figure asserts delivery totals downstream.
			conn.OnEstablished = func() { _ = cc.Send(make([]byte, 1000)) }
		}
		env.RunFor(time.Second)
		for _, pr := range in.Proxy.Pairs() {
			pr.Splice()
		}
		env.RunFor(30 * time.Second)
		p99 := cdf.Quantile(0.99) * 1000
		p99s = append(p99s, p99)
		r.addRow("controlRTO=%-6v n=%-4d p50=%6.2fms p99=%6.2fms", rto, cdf.N(), cdf.Quantile(0.5)*1000, p99)
	}
	r.addSeries("rto_ms", []float64{1, 2, 4, 8})
	r.addSeries("p99_ms", p99s)
	r.check("larger control RTO lengthens the tail under loss",
		p99s[len(p99s)-1] > p99s[0], "p99@8ms=%.2f p99@1ms=%.2f", p99s[len(p99s)-1], p99s[0])
	return r
}

// AblationEncap compares Dysco's header rewriting against encapsulation
// (the DOA/NSH approach of §7): bytes on the wire per delivered byte.
// Dysco rewrites in place — zero growth; an encapsulating design adds an
// outer header to every packet.
func AblationEncap(seed int64) *Result {
	r := &Result{Name: "ablation-encap", Title: "Header rewriting vs encapsulation overhead (§7 DOA/NSH)"}
	env := lab.NewEnv(seed)
	clients, mids, servers := env.Line(lanLink(), true, 1, 1)
	client, server := clients[0], servers[0]
	env.ChainPolicy(client, 80, mids...)
	sink := app.NewSink(env.Eng, time.Second)
	sink.Serve(server.Stack, 80)
	conn := client.Stack.Connect(server.Addr(), 80, tcp.Config{})
	app.NewSource(conn, 64<<20)
	env.RunFor(10 * time.Second)

	// Per-hop accounting at the sender: wire bytes out of the client for
	// the bytes the sink delivered (headers and control are the overhead;
	// reverse-direction ACKs are counted at the server symmetrically and
	// excluded here).
	wireBytes := client.Host.Stats.BytesOut
	wirePkts := client.Host.Stats.PacketsOut
	delivered := sink.Total
	rewriteOverhead := float64(wireBytes)/float64(delivered) - 1
	// Encapsulation adds an outer IP (20B) + shim (8B) per packet.
	const encapPerPacket = 28
	encapBytes := wireBytes + wirePkts*encapPerPacket
	encapOverhead := float64(encapBytes)/float64(delivered) - 1
	r.addRow("delivered=%d wire=%d packets=%d (client hop)", delivered, wireBytes, wirePkts)
	r.addRow("dysco rewriting overhead: %6.2f%% of goodput", rewriteOverhead*100)
	r.addRow("encapsulation overhead:   %6.2f%% of goodput (+%dB/packet)", encapOverhead*100, encapPerPacket)
	r.check("rewriting strictly cheaper than encapsulation",
		rewriteOverhead < encapOverhead, "%.2f%% vs %.2f%%", rewriteOverhead*100, encapOverhead*100)
	r.check("dysco adds no per-packet growth in steady state (headers only)",
		rewriteOverhead < 0.10, "overhead=%.2f%%", rewriteOverhead*100)
	r.addNote("MTU pressure is the paper's §7 argument against DOA-style encapsulation")
	return r
}

// AblationState compares state footprints: forwarding rules a fine-grained
// controller installs vs Dysco per-host session records, as sessions and
// chain length grow (§1's scaling argument).
func AblationState() *Result {
	r := &Result{Name: "ablation-state", Title: "Network state: forwarding rules vs Dysco host state (§1)"}
	for _, chainLen := range []int{1, 2, 4} {
		for _, sessions := range []int{100, 1000} {
			// Rule-based: per session, each of the chainLen+1 path switches
			// holds 2 exact-match rules (one per direction).
			rules := 2 * sessions * (chainLen + 1)
			// Dysco: each of the chainLen+2 hosts keeps one session record;
			// zero state in network elements.
			dyscoState := sessions * (chainLen + 2)
			r.addRow("chain=%d sessions=%-5d rules-in-network=%-7d dysco-network-state=0 dysco-host-records=%d",
				chainLen, sessions, rules, dyscoState)
			if chainLen == 4 && sessions == 1000 {
				r.check("rule state grows with sessions × switches; Dysco network state is zero",
					rules >= 2*sessions, "rules=%d", rules)
			}
		}
	}
	r.addNote("controller events equal sessions for rules; the Dysco policy server is consulted only for policy changes")
	return r
}
