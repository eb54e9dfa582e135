package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/mbox"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// connChurn is the Fig 8/10 kernel and the write side of the agent
// tables: closed-loop clients that connect, send a 100-byte request,
// read a 1000-byte response, close, and go again. SYN-payload codec,
// session install, FIN tracking, idle GC and removal, timers cancelled
// en masse; packets are small and per-packet rewrite is a minor share.
type connChurn struct{}

const (
	churnLoops    = 4
	churnPort     = 8080
	churnReqLen   = 100
	churnRespLen  = 1000
	churnWarmup   = 1250 * time.Millisecond // past TIME-WAIT and the closed-session GC age, so GC runs in steady state
	churnWindow   = 1000 * time.Millisecond
	churnDrain    = 2 * time.Second
	churnDeadline = time.Second // a connection not finished by then has stalled
)

type churnRun struct {
	*simWorld
	winLen   time.Duration
	client   *lab.Node
	server   *lab.Node
	pat      pattern
	stopped  bool
	counting bool

	completed, failed int64
	badBytes          int64
	setupUs           []float64
}

func (connChurn) prepare(cfg runCfg, tr *tracer) timed {
	w := newSimWorld(cfg, tr)
	r := &churnRun{simWorld: w, winLen: scaled(churnWindow, cfg.scale), pat: newPattern(cfg.seed)}

	sp := tr.begin("lab.build", "lab")
	link := netsim.LinkConfig{Delay: 200 * time.Microsecond, Bandwidth: netsim.Gbps(10)}
	// Without periodic GC, closed sessions pile up until the agents'
	// sub-session ports wrap onto them and new SYNs stall.
	agent := core.Config{GCInterval: 100 * time.Millisecond}
	end := lab.HostOptions{Stack: true, Agent: true, AgentCfg: agent, NoRouterLink: true}
	r.client = w.addNode("client", end)
	box := w.addNode("m1", lab.HostOptions{App: &mbox.Forwarder{}, AgentCfg: agent, NoRouterLink: true})
	r.server = w.addNode("server", end)
	w.env.Net.Connect(r.client.Host, box.Host, link)
	w.env.Net.Connect(box.Host, r.server.Host, link)
	w.wire(fastCosts())
	w.env.ChainPolicy(r.client, churnPort, box)
	tr.end(sp)

	r.server.Stack.Listen(churnPort, r.serve)
	// Loop starts are spread over one round trip by the seed.
	for i := 0; i < churnLoops; i++ {
		at := time.Duration(w.env.Eng.Rand().Int63n(int64(time.Millisecond)))
		w.env.Eng.Schedule(at, r.next)
	}

	sp = tr.begin("warmup", "bench")
	w.run(scaled(churnWarmup, cfg.scale))
	tr.end(sp)
	w.markWindow()
	r.counting = true
	return r
}

// serve answers one request with one response and closes after the client.
func (r *churnRun) serve(c *tcp.Conn) {
	r.conns = append(r.conns, c)
	got := 0
	c.OnData = func(b []byte) {
		if !r.pat.check(uint64(got), b) {
			r.badBytes++
		}
		got += len(b)
		if got == churnReqLen {
			if err := c.Send(r.pat.at(churnReqLen, churnRespLen)); err != nil {
				r.badBytes++
			}
		}
	}
	c.OnPeerFIN = c.Close
}

// next runs one connection of one closed loop, then calls itself.
func (r *churnRun) next() {
	if r.stopped {
		return
	}
	eng := r.env.Eng
	began := eng.Now()
	c := r.client.Stack.Connect(r.server.Addr(), churnPort, tcp.Config{})
	r.conns = append(r.conns, c)
	done := false
	var deadline *sim.Event
	finish := func(ok bool) {
		if done {
			return
		}
		done = true
		deadline.Cancel()
		if r.counting {
			if ok {
				r.completed++
			} else {
				r.failed++
			}
		}
		r.next()
	}
	deadline = eng.Schedule(churnDeadline, func() {
		c.Abort()
		finish(false)
	})
	got := 0
	c.OnEstablished = func() {
		sp := r.tr.begin("OnEstablished", "bench")
		if r.counting {
			r.setupUs = append(r.setupUs, float64(eng.Now()-began)/float64(time.Microsecond))
		}
		if err := c.Send(r.pat.at(0, churnReqLen)); err != nil {
			finish(false)
		}
		r.tr.end(sp)
	}
	c.OnData = func(b []byte) {
		sp := r.tr.begin("OnData", "bench")
		if !r.pat.check(uint64(churnReqLen+got), b) {
			r.badBytes++
		}
		got += len(b)
		if got >= churnRespLen {
			c.Close()
			finish(got == churnRespLen)
		}
		r.tr.end(sp)
	}
	c.OnReset = func() { finish(false) }
}

func (r *churnRun) threads() int { return 1 }

func (r *churnRun) window(_ *tracer, begin func()) {
	begin()
	r.run(r.winLen)
}

func (r *churnRun) finish(o *outcome) {
	r.counting = false
	r.fillCounts(o)
	secs := r.winLen.Seconds()
	o.attempted = r.completed + r.failed
	o.failed = r.failed
	o.goodputGbps = float64(r.completed) * (churnReqLen + churnRespLen) * 8 / secs / 1e9
	o.exact["sim_goodput_gbps"] = o.goodputGbps
	o.exact["sim_conns_per_s"] = float64(r.completed) / secs
	o.exact["sim_setup_p50_us"] = quantile(r.setupUs, 0.50)
	o.exact["sim_setup_p99_us"] = quantile(r.setupUs, 0.99)
	if r.badBytes > 0 {
		o.errorf("conn_churn: %d requests or responses did not match the byte pattern", r.badBytes)
	}
	if r.completed == 0 {
		o.errorf("conn_churn: no connection completed in the window")
	}

	// Stop the loops and let TIME-WAIT and the agents' GC run out: every
	// session the workload opened must be collected.
	r.stopped = true
	r.run(churnDrain)
	leaked := 0
	for _, n := range r.nodes {
		leaked += n.Agent.Sessions()
	}
	o.exact["core.sessions_leaked"] = float64(leaked)
	if leaked > 0 {
		o.errorf("conn_churn: %d sessions still tracked after the drain", leaked)
	}
}
