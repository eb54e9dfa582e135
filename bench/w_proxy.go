package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/mbox"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// proxyRemoval is the Fig 12/13 kernel and the paper's headline:
// reconfiguration under load with data in flight. Four client/server
// pairs run 50 bulk sessions each through a TCP-terminating proxy; a
// quarter into the window every session is spliced out of the proxy
// while 1% of daemon datagrams are lost. Before the splice tcp does most
// of the work (four endpoints per byte); during it the daemon, the lock
// machine and the two-path delta translation run beside the data plane.
type proxyRemoval struct{}

const (
	proxyPairs      = 4
	proxyPerPair    = 50
	proxyPort       = 80
	proxyWarmup     = 300 * time.Millisecond
	proxyWindow     = 1000 * time.Millisecond
	proxyMinWindow  = 200 * time.Millisecond
	proxyDrain      = 2 * time.Second
	proxyStagger    = 100 * time.Microsecond
	proxyRetry      = 50 * time.Millisecond
	proxyCtrlLoss   = 0.01
	proxyRelayPerKB = 2 * time.Microsecond
)

type proxyRun struct {
	*simWorld
	winLen  time.Duration
	perPair int
	proxy   *mbox.Proxy
	sink    *bulkSink
	sources []*bulkSource

	tailFrom     uint64 // verified bytes when the last quarter began
	done, failed int
	spliceErrs   int
	switchMs     []float64
}

func (proxyRemoval) prepare(cfg runCfg, tr *tracer) timed {
	w := newSimWorld(cfg, tr)
	// Smoke runs shrink the session count too; the window's floor leaves
	// the few reconfigurations time to finish.
	r := &proxyRun{simWorld: w, winLen: scaled(proxyWindow, cfg.scale), perPair: int(proxyPerPair * cfg.scale)}
	if r.perPair < 2 {
		r.perPair = 2
	}
	if r.winLen < proxyMinWindow {
		r.winLen = proxyMinWindow
	}

	sp := tr.begin("lab.build", "lab")
	host := netsim.LinkConfig{Delay: 50 * time.Microsecond, Bandwidth: netsim.Mbps(400), QueueBytes: 1 << 20}
	// The proxy's access link carries all four pairs and is the
	// bottleneck while the proxy is in the chains, as in the paper.
	shared := netsim.LinkConfig{Delay: 50 * time.Microsecond, Bandwidth: netsim.Mbps(800), QueueBytes: 2 << 20}
	end := lab.HostOptions{Link: host, Stack: true, Agent: true}
	var clients, servers []*lab.Node
	for i := 0; i < proxyPairs; i++ {
		clients = append(clients, w.addNode(fmt.Sprintf("client%d", i), end))
	}
	m1 := w.addNode("m1", lab.HostOptions{Link: shared, Stack: true, Agent: true})
	for i := 0; i < proxyPairs; i++ {
		servers = append(servers, w.addNode(fmt.Sprintf("server%d", i), end))
	}
	w.wire(fastCosts())
	tr.end(sp)

	// The agent hands the proxy the client's session with its original
	// header, so the accepted connection's local address is the server's.
	r.proxy = mbox.NewProxy(m1.Stack, m1.Agent, proxyPort, func(c *tcp.Conn) (packet.Addr, packet.Port) {
		return c.Tuple().SrcIP, proxyPort
	})
	r.proxy.RelayCostPerKB = proxyRelayPerKB
	w.moreConns = func(visit func(*tcp.Conn)) {
		for _, pr := range r.proxy.Pairs() {
			visit(pr.Client)
			visit(pr.Server)
		}
	}
	// One percent of daemon datagrams leaving the clients and the proxy
	// are lost: the paper attributes Fig 13's tail to such losses.
	rng := w.env.Eng.Rand()
	dropCtrl := func(p *packet.Packet, _ netsim.Direction) netsim.Verdict {
		if p.IsUDP() && p.Tuple.DstPort == core.DaemonPort && rng.Float64() < proxyCtrlLoss {
			return netsim.Drop
		}
		return netsim.Pass
	}
	m1.Host.AddEgressHook(dropCtrl)

	pat := newPattern(cfg.seed)
	r.sink = &bulkSink{pat: pat, tr: tr}
	warmup := scaled(proxyWarmup, cfg.scale)
	stagger := rand.New(rand.NewSource(cfg.seed))
	for i, c := range clients {
		c.Host.AddEgressHook(dropCtrl)
		w.env.ChainPolicy(c, proxyPort, m1)
		c.Agent.OnReconfigDone = func(_ packet.FiveTuple, ok bool, _ sim.Time) {
			if ok {
				r.done++
			} else {
				r.failed++
			}
		}
		c.Agent.OnReconfigSwitch = func(_ packet.FiveTuple, since sim.Time) {
			sp := r.tr.begin("OnReconfigSwitch", "bench")
			r.switchMs = append(r.switchMs, float64(since)/float64(time.Millisecond))
			r.tr.end(sp)
		}
		servers[i].Stack.Listen(proxyPort, r.sink.accept)
		for s := 0; s < r.perPair; s++ {
			client, server := c, servers[i]
			at := time.Duration(stagger.Int63n(int64(warmup / 12)))
			w.env.Eng.Schedule(at, func() {
				conn := client.Stack.Connect(server.Addr(), proxyPort, tcp.Config{})
				w.conns = append(w.conns, conn)
				r.sources = append(r.sources, newBulkSource(conn, pat))
			})
		}
	}

	// Data starts only once every client and backend handshake has had
	// idle links to complete on: a SYN lost in another session's
	// slow-start burst would keep its session unspliceable for seconds.
	w.env.Eng.Schedule(warmup/6, func() {
		for _, s := range r.sources {
			s.begin()
		}
	})

	sp = tr.begin("warmup", "bench")
	w.run(warmup)
	tr.end(sp)
	w.conns = append(w.conns, r.sink.accepted...)
	w.markWindow()

	// A quarter into the window, splice every session out of the proxy:
	// slightly staggered so the daemons are not synchronized, retrying
	// while a session's backend handshake is still in flight.
	at := r.winLen / 4
	for i, pr := range r.proxy.Pairs() {
		pair := pr
		var try func()
		try = func() {
			sp := r.tr.begin("ProxyPair.Splice", "mbox")
			if err := pair.Splice(); err != nil {
				r.spliceErrs++
			}
			r.tr.end(sp)
			if !pair.Spliced() {
				w.env.Eng.Schedule(proxyRetry, try)
			}
		}
		w.env.Eng.Schedule(at+time.Duration(i)*proxyStagger, try)
	}
	return r
}

func (r *proxyRun) threads() int { return 1 }

func (r *proxyRun) window(_ *tracer, begin func()) {
	begin()
	tail := r.winLen / 4
	r.run(r.winLen - tail)
	r.tailFrom = r.sink.total
	r.run(tail)
}

func (r *proxyRun) finish(o *outcome) {
	r.fillCounts(o)
	tail := (r.winLen / 4).Seconds()
	o.goodputGbps = float64(r.sink.total-r.tailFrom) * 8 / tail / 1e9
	o.exact["sim_goodput_gbps"] = o.goodputGbps
	o.exact["sim_reconfig_p50_ms"] = quantile(r.switchMs, 0.50)
	o.exact["sim_reconfig_p95_ms"] = quantile(r.switchMs, 0.95)

	// A reconfiguration is done when its old path is torn down, which under
	// loss can trail the path switch by a few retransmission timeouts. Turn
	// the sources off and give stragglers until the drain deadline.
	sessions := len(r.proxy.Pairs())
	for _, s := range r.sources {
		s.open = false
	}
	for deadline := r.env.Eng.Now() + proxyDrain; r.done+r.failed < sessions && r.env.Eng.Now() < deadline; {
		r.run(5 * slice)
	}

	// An operation is a reconfiguration: it fails if the anchor reports
	// failure, if Splice returned an error, or if it never finished.
	o.attempted = int64(sessions)
	o.failed = int64(sessions - r.done)
	if want := proxyPairs * r.perPair; sessions != want {
		o.errorf("proxy_removal: %d sessions reached the proxy, want %d", sessions, want)
	}
	if r.failed > 0 || r.spliceErrs > 0 {
		o.errorf("proxy_removal: %d reconfigurations failed, %d splice errors", r.failed, r.spliceErrs)
	}
	if len(r.switchMs) != r.done {
		o.errorf("proxy_removal: %d path switches for %d completed reconfigurations", len(r.switchMs), r.done)
	}
	if r.sink.bad > 0 {
		o.errorf("proxy_removal: %d deliveries did not match the byte pattern", r.sink.bad)
	}
	for _, s := range r.sources {
		if s.dead {
			o.errorf("proxy_removal: a session was reset")
			break
		}
	}
}
