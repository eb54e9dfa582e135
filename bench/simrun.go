package main

import (
	"bytes"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// slice is how far one Engine.Run call advances virtual time. Slicing
// does not change event order; it gives the harness boundaries at which
// to sample queue depths and to record one span per call.
const slice = 10 * time.Millisecond

// simWorld is a built testbed plus what the harness reads from its public
// counters. The three sim workloads embed it.
type simWorld struct {
	env   *lab.Env
	nodes []*lab.Node
	links []*netsim.LinkEndInfo
	// conns is every TCP endpoint the benchmark created or accepted.
	conns []*tcp.Conn
	// moreConns, when set, yields endpoints owned by the program under
	// test (the proxy's connection pairs).
	moreConns func(visit func(*tcp.Conn))
	tr        *tracer

	pendingMax, queueBytesMax, sessionsMax int
	start                                  simCounts
	startAt                                sim.Time
}

func newSimWorld(cfg runCfg, tr *tracer) *simWorld {
	sp := tr.begin("lab.NewEnv", "lab")
	env := lab.NewEnv(cfg.seed)
	if cfg.variant == observed {
		env.Observe()
	}
	tr.end(sp)
	return &simWorld{env: env, tr: tr}
}

func (w *simWorld) addNode(name string, opt lab.HostOptions) *lab.Node {
	n := w.env.AddNode(name, opt)
	w.nodes = append(w.nodes, n)
	return n
}

// wire finishes the topology: routes, per-host costs, and the list of
// link ends whose queues and drop counters the harness samples.
func (w *simWorld) wire(cost netsim.CostModel) {
	w.env.Net.ComputeRoutes()
	for _, h := range w.env.Net.Hosts() {
		h.Cost = cost
		w.links = append(w.links, h.Links()...)
	}
}

// fastCosts makes links, not simulated host CPUs, the bottleneck: the
// regime of the paper's section 5.2 (multi-core hosts with RSS).
func fastCosts() netsim.CostModel {
	return netsim.CostModel{
		RecvPacket:    300 * time.Nanosecond,
		SendPacket:    300 * time.Nanosecond,
		ChecksumPerKB: 100 * time.Nanosecond,
		ForwardPacket: 200 * time.Nanosecond,
	}
}

// run advances virtual time by d in slices, sampling at each boundary.
func (w *simWorld) run(d sim.Time) {
	eng := w.env.Eng
	end := eng.Now() + d
	for eng.Now() < end {
		next := eng.Now() + slice
		if next > end {
			next = end
		}
		sp := w.tr.begin("Engine.Run", "sim")
		eng.Run(next)
		w.tr.end(sp)
		w.sample()
	}
}

func (w *simWorld) sample() {
	if p := w.env.Eng.Pending(); p > w.pendingMax {
		w.pendingMax = p
	}
	for _, l := range w.links {
		if q := l.QueuedBytes(); q > w.queueBytesMax {
			w.queueBytesMax = q
		}
	}
	for _, n := range w.nodes {
		if n.Agent != nil && n.Agent.Sessions() > w.sessionsMax {
			w.sessionsMax = n.Agent.Sessions()
		}
	}
}

// simCounts is one reading of every public counter the harness uses.
type simCounts struct {
	events, pktsIn, queueDrops uint64
	agents                     core.Stats
	segs, retx, timeouts       uint64
	busy                       []sim.Time
}

func (w *simWorld) counts() simCounts {
	c := simCounts{events: w.env.Eng.Processed}
	for _, h := range w.env.Net.Hosts() {
		c.pktsIn += h.Stats.PacketsIn
		c.busy = append(c.busy, h.CPU.Busy)
	}
	for _, l := range w.links {
		c.queueDrops += l.DropsByReason().Queue
	}
	for _, n := range w.nodes {
		if n.Agent == nil {
			continue
		}
		s := n.Agent.Stats
		c.agents.PacketsRewritten += s.PacketsRewritten
		c.agents.SessionsCollected += s.SessionsCollected
		c.agents.CtrlRetransmits += s.CtrlRetransmits
		c.agents.ReconfigsDone += s.ReconfigsDone
		c.agents.ReconfigsFailed += s.ReconfigsFailed
		c.agents.OldPathPackets += s.OldPathPackets
		c.agents.NewPathPackets += s.NewPathPackets
	}
	visit := func(conn *tcp.Conn) {
		c.segs += conn.Stats.SegsSent
		c.retx += conn.Stats.Retransmits
		c.timeouts += conn.Stats.Timeouts
	}
	for _, conn := range w.conns {
		visit(conn)
	}
	if w.moreConns != nil {
		w.moreConns(visit)
	}
	return c
}

// markWindow starts the counted interval: the timed window begins here.
func (w *simWorld) markWindow() {
	w.pendingMax, w.queueBytesMax, w.sessionsMax = 0, 0, 0
	w.sample()
	w.start = w.counts()
	w.startAt = w.env.Eng.Now()
}

// fillCounts writes the window's counter deltas into the outcome.
func (w *simWorld) fillCounts(o *outcome) {
	end := w.counts()
	span := w.env.Eng.Now() - w.startAt
	o.pkts = float64(end.pktsIn - w.start.pktsIn)
	x := o.exact
	x["sim.events"] = float64(end.events - w.start.events)
	x["sim.events_per_pkt"] = x["sim.events"] / o.pkts
	x["sim.pending_max"] = float64(w.pendingMax)
	x["netsim.pkts_in"] = o.pkts
	x["netsim.queue_drops"] = float64(end.queueDrops - w.start.queueDrops)
	x["netsim.queue_bytes_max"] = float64(w.queueBytesMax)
	var util float64
	for i := range end.busy {
		if u := float64(end.busy[i]-w.start.busy[i]) / float64(span); u > util {
			util = u
		}
	}
	x["netsim.cpu_util_max"] = util
	x["tcp.segs_sent"] = float64(end.segs - w.start.segs)
	x["tcp.retransmits"] = float64(end.retx - w.start.retx)
	x["tcp.timeouts"] = float64(end.timeouts - w.start.timeouts)
	a, b := end.agents, w.start.agents
	x["core.pkts_rewritten"] = float64(a.PacketsRewritten - b.PacketsRewritten)
	x["core.sessions_max"] = float64(w.sessionsMax)
	x["core.sessions_collected"] = float64(a.SessionsCollected - b.SessionsCollected)
	x["core.ctrl_retransmits"] = float64(a.CtrlRetransmits - b.CtrlRetransmits)
	x["core.reconfigs_done"] = float64(a.ReconfigsDone - b.ReconfigsDone)
	x["core.reconfigs_failed"] = float64(a.ReconfigsFailed - b.ReconfigsFailed)
	x["core.oldpath_pkts"] = float64(a.OldPathPackets - b.OldPathPackets)
	x["core.newpath_pkts"] = float64(a.NewPathPackets - b.NewPathPackets)
	if hub := w.env.Hub(); hub != nil {
		var total uint64
		for _, k := range obs.Kinds() {
			total += hub.Count(k)
		}
		x["obs.events"] = float64(total)
		// 48 bits survive the trip through a float64 metric value.
		x["obs.hash"] = float64(hub.Hash() & (1<<48 - 1))
	}
}

// scaled shortens a simulated span for smoke runs, keeping it a whole
// number of slices and at least one.
func scaled(d sim.Time, scale float64) sim.Time {
	n := sim.Time(float64(d)*scale) / slice
	if n < 1 {
		n = 1
	}
	return n * slice
}

// ---------- position-dependent byte pattern ----------

// patternLen is prime and not a multiple of any segment size, so a lost,
// duplicated or reordered segment cannot land on matching bytes.
const patternLen = 65521

// patternChunk is the most bytes one fill or check call handles.
const patternChunk = 64 << 10

// pattern is a seeded byte table extended past its period so any chunk of
// the infinite periodic stream is one contiguous sub-slice.
type pattern []byte

func newPattern(seed int64) pattern {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	p := make(pattern, patternLen+patternChunk)
	for i := 0; i < patternLen; i++ {
		p[i] = byte(rng.Intn(256))
	}
	copy(p[patternLen:], p[:patternChunk])
	return p
}

// at returns n (at most patternChunk) stream bytes starting at offset off.
func (p pattern) at(off uint64, n int) []byte {
	o := int(off % patternLen)
	return p[o : o+n]
}

// check reports whether b is the stream's bytes at offset off.
func (p pattern) check(off uint64, b []byte) bool {
	for len(b) > 0 {
		n := len(b)
		if n > patternChunk {
			n = patternChunk
		}
		if !bytes.Equal(b[:n], p.at(off, n)) {
			return false
		}
		b = b[n:]
		off += uint64(n)
	}
	return true
}

// bulkSource streams the pattern on a connection, keeping the stack's
// send buffer between 128 KB (where the stack asks for more) and 256 KB.
// It sends nothing until begin is called, so a workload can bring all its
// handshakes up on idle links first.
type bulkSource struct {
	conn *tcp.Conn
	pat  pattern
	sent uint64
	open bool
	dead bool
}

func newBulkSource(conn *tcp.Conn, pat pattern) *bulkSource {
	s := &bulkSource{conn: conn, pat: pat}
	conn.OnEstablished = s.refill
	conn.OnSendBufferLow = s.refill
	conn.OnReset = func() { s.dead = true }
	return s
}

// begin opens the tap.
func (s *bulkSource) begin() {
	s.open = true
	if s.conn.State() == tcp.StateEstablished {
		s.refill()
	}
}

func (s *bulkSource) refill() {
	for s.open && !s.dead && s.conn.BufferedOut() < 256<<10 {
		if err := s.conn.Send(s.pat.at(s.sent, patternChunk)); err != nil {
			s.dead = true
			return
		}
		s.sent += patternChunk
	}
}

// bulkSink verifies every delivered byte of every accepted connection
// against the pattern at that connection's own stream offset.
type bulkSink struct {
	pat      pattern
	tr       *tracer
	total    uint64 // verified bytes
	bad      uint64 // deliveries that did not match
	accepted []*tcp.Conn
	calls    uint64
}

func (k *bulkSink) accept(c *tcp.Conn) {
	k.accepted = append(k.accepted, c)
	var off uint64
	c.OnData = func(b []byte) {
		// One span per 64 deliveries keeps the traced window's own cost
		// within a few percent on bulk transfers; a nil tracer records
		// nothing.
		k.calls++
		tr := k.tr
		if k.calls%64 != 0 {
			tr = nil
		}
		sp := tr.begin("OnData", "bench")
		if k.pat.check(off, b) {
			k.total += uint64(len(b))
		} else {
			k.bad++
		}
		off += uint64(len(b))
		tr.end(sp)
	}
	c.OnPeerFIN = c.Close
}
