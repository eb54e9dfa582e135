package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/lab"
	"repro/internal/mbox"
	"repro/internal/netsim"
	"repro/internal/tcp"
)

// bulkChain4 is the Fig 9 kernel: 16 bulk sessions over the line
// client - 4 forwarders - server. Only the per-packet path works: the
// event heap, link queues, TCP segment kernels at the two ends, and the
// agents' lookup and rewrite at all six hosts. Session set-up, the daemon
// and table writes do next to nothing.
type bulkChain4 struct{}

const (
	bulkSessions = 16
	bulkHops     = 4
	bulkPort     = 5001
	bulkWarmup   = 300 * time.Millisecond
	bulkWindow   = 700 * time.Millisecond
)

type bulkRun struct {
	*simWorld
	winLen  time.Duration
	sink    *bulkSink
	sources []*bulkSource
	before  uint64
}

func (bulkChain4) prepare(cfg runCfg, tr *tracer) timed {
	w := newSimWorld(cfg, tr)
	r := &bulkRun{simWorld: w, winLen: scaled(bulkWindow, cfg.scale)}
	dysco := cfg.variant != baseline

	sp := tr.begin("lab.build", "lab")
	link := netsim.LinkConfig{Delay: 20 * time.Microsecond, Bandwidth: netsim.Gbps(1), QueueBytes: 4 << 20}
	end := lab.HostOptions{Stack: true, Agent: dysco, NoRouterLink: true}
	client := w.addNode("client", end)
	line := []*lab.Node{client}
	var boxes []*lab.Node
	for i := 0; i < bulkHops; i++ {
		opt := lab.HostOptions{NoRouterLink: true}
		if dysco {
			opt.App = &mbox.Forwarder{}
		}
		m := w.addNode(fmt.Sprintf("m%d", i+1), opt)
		// The baseline's middle hosts are plain routers on the same line.
		m.Host.Forwarding = !dysco
		boxes = append(boxes, m)
		line = append(line, m)
	}
	server := w.addNode("server", end)
	line = append(line, server)
	for i := 0; i+1 < len(line); i++ {
		w.env.Net.Connect(line[i].Host, line[i+1].Host, link)
	}
	w.wire(fastCosts())
	if dysco {
		w.env.ChainPolicy(client, bulkPort, boxes...)
	}
	tr.end(sp)

	warmup := scaled(bulkWarmup, cfg.scale)
	pat := newPattern(cfg.seed)
	r.sink = &bulkSink{pat: pat, tr: tr}
	server.Stack.Listen(bulkPort, r.sink.accept)
	// Staggered starts, as any real workload has, avoid synchronized
	// slow-start bursts. The stagger is the seed's part of the input.
	rng := rand.New(rand.NewSource(cfg.seed))
	for i := 0; i < bulkSessions; i++ {
		at := time.Duration(rng.Int63n(int64(warmup / 6)))
		w.env.Eng.Schedule(at, func() {
			conn := client.Stack.Connect(server.Addr(), bulkPort, tcp.Config{})
			w.conns = append(w.conns, conn)
			src := newBulkSource(conn, pat)
			src.begin()
			r.sources = append(r.sources, src)
		})
	}

	sp = tr.begin("warmup", "bench")
	w.run(warmup)
	tr.end(sp)
	w.conns = append(w.conns, r.sink.accepted...)
	w.markWindow()
	r.before = r.sink.total
	return r
}

func (r *bulkRun) threads() int { return 1 }

func (r *bulkRun) window(_ *tracer, begin func()) {
	begin()
	r.run(r.winLen)
}

func (r *bulkRun) finish(o *outcome) {
	r.fillCounts(o)
	delivered := r.sink.total - r.before
	o.goodputGbps = float64(delivered) * 8 / r.winLen.Seconds() / 1e9
	o.exact["sim_goodput_gbps"] = o.goodputGbps

	// An operation is a session: it must be up, still streaming, and
	// every byte it delivered must have matched the pattern.
	o.attempted = bulkSessions
	live := 0
	for _, s := range r.sources {
		if !s.dead && s.conn.State() == tcp.StateEstablished {
			live++
		}
	}
	if len(r.sink.accepted) < live {
		live = len(r.sink.accepted)
	}
	o.failed = int64(bulkSessions - live)
	if r.sink.bad > 0 {
		o.errorf("bulk_chain4: %d deliveries did not match the byte pattern", r.sink.bad)
	}
	if delivered == 0 {
		o.errorf("bulk_chain4: no bytes delivered in the window")
	}
}
