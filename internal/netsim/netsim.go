// Package netsim is the network substrate: hosts connected by duplex links
// with propagation delay, finite bandwidth, drop-tail queues and optional
// random loss, plus static shortest-path IP routing.
//
// A Host exposes ingress/egress hook chains at the host/NIC boundary —
// the exact interception point of the Dysco kernel module (§4.1 of the
// paper) — and a per-host CPU cost model so experiments can report CPU
// utilization (Figure 12) and model checksum offload (Figure 8).
package netsim

import (
	"fmt"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Direction tells a hook whether the packet is entering or leaving a host.
type Direction int

// Hook directions.
const (
	Ingress Direction = iota
	Egress
)

func (d Direction) String() string {
	if d == Ingress {
		return "ingress"
	}
	return "egress"
}

// Verdict is a hook's decision about a packet.
type Verdict int

const (
	// Pass continues processing (possibly with the packet rewritten in
	// place).
	Pass Verdict = iota
	// Drop discards the packet silently.
	Drop
	// Consume means the hook took ownership (e.g. delivered it itself);
	// processing stops without counting a drop.
	Consume
)

// Hook inspects and may rewrite a packet at the host boundary.
type Hook func(p *packet.Packet, dir Direction) Verdict

// LinkConfig describes one direction of a link.
type LinkConfig struct {
	// Delay is the propagation delay.
	Delay sim.Time
	// Bandwidth is in bytes per second; 0 means infinite.
	Bandwidth float64
	// QueueBytes bounds the transmit queue (drop-tail); 0 means 512 KB.
	QueueBytes int
	// LossProb drops each packet independently with this probability.
	LossProb float64
}

// Gbps expresses a link rate given in gigabits per second as bytes/second.
func Gbps(g float64) float64 { return g * 1e9 / 8 }

// Mbps expresses a link rate given in megabits per second as bytes/second.
func Mbps(m float64) float64 { return m * 1e6 / 8 }

const defaultQueueBytes = 512 << 10

// DropStats attributes one link direction's losses by cause, so failure
// experiments can tell congestion (queue overflow) from configured random
// loss, administrative link-down periods, and injected faults.
type DropStats struct {
	// Queue counts drop-tail queue overflows (congestion).
	Queue uint64
	// Loss counts the configured per-packet random loss (LossProb).
	Loss uint64
	// LinkDown counts packets offered to a link that was down.
	LinkDown uint64
	// Fault counts drops demanded by an injected fault hook.
	Fault uint64
}

// Total sums all drop causes.
func (d DropStats) Total() uint64 { return d.Queue + d.Loss + d.LinkDown + d.Fault }

// FaultDecision tells a link what an injected fault does to one packet.
// The zero value passes the packet through untouched.
type FaultDecision struct {
	// Drop discards the packet (counted as a fault drop).
	Drop bool
	// Duplicate delivers an extra deep copy of the packet.
	Duplicate bool
	// Corrupt marks the packet damaged in flight (Packet.Corrupted): the
	// header stays routable, and the receiving host's checksum
	// verification discards it.
	Corrupt bool
	// ExtraDelay adds one-way latency to this packet (reordering: delayed
	// packets land behind later undelayed ones).
	ExtraDelay sim.Time
}

// FaultHook inspects a packet entering one link direction and returns the
// injected fault to apply. Hooks must be deterministic functions of the
// packet and their own seeded randomness.
type FaultHook func(p *packet.Packet) FaultDecision

// linkEnd is one direction of a link: the transmit side at a host.
type linkEnd struct {
	cfg       LinkConfig
	from, to  *Host
	busyUntil sim.Time
	queued    int // bytes accepted but not yet fully transmitted
	// down marks an administratively failed link direction: every packet
	// offered while down is dropped (counted in drops.LinkDown).
	down bool
	// fault, when set, is consulted for every packet before queueing.
	fault FaultHook
	// drops attributes losses in this direction by cause.
	drops DropStats
	// tx holds the packets counted in queued, oldest first, each with the
	// silent key of its end of transmission; retire drops the ones the
	// engine has passed.
	tx txFIFO
	// deliver is this direction's per-packet lane, at busyUntil+Delay:
	// busyUntil never decreases and Delay is fixed, so its times never
	// decrease.
	deliver *sim.Lane
}

func newLinkEnd(cfg LinkConfig, from, to *Host) *linkEnd {
	le := &linkEnd{cfg: cfg, from: from, to: to}
	le.deliver = from.Net.Eng.NewLane(le.arrive)
	return le
}

// retire takes out of queued every packet whose end of transmission the
// engine has passed, so queued reads exactly as if an event at each end
// had subtracted it. Ends never decrease and their seqs increase, so the
// passed ones are a prefix of tx. Every reader of queued calls it first.
func (le *linkEnd) retire() {
	eng := le.from.Net.Eng
	for le.tx.n > 0 {
		head := &le.tx.buf[le.tx.head]
		if !eng.Passed(head.end, head.seq) {
			return
		}
		le.queued -= head.size
		le.tx.head = (le.tx.head + 1) & (len(le.tx.buf) - 1)
		le.tx.n--
	}
}

// arrive hands a packet that crossed the wire to the receiving host.
func (le *linkEnd) arrive(arg any) {
	le.to.receive(arg.(*packet.Packet))
}

// txEntry is one packet in a link's transmit queue: its size, and the key
// (end, seq) at which its transmission ends.
type txEntry struct {
	end  sim.Time
	seq  uint64
	size int
}

// txFIFO is a ring of transmit-queue entries that grows to the most it ever
// held at once.
type txFIFO struct {
	buf     []txEntry // len is zero or a power of two
	head, n int
}

func (f *txFIFO) push(v txEntry) {
	if f.n == len(f.buf) {
		grown := make([]txEntry, max(2*len(f.buf), 16))
		for i := 0; i < f.n; i++ {
			grown[i] = f.buf[(f.head+i)&(len(f.buf)-1)]
		}
		f.buf, f.head = grown, 0
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = v
	f.n++
}

// CostModel is the per-packet CPU cost charged at a host. Costs are paid
// on the host's single modeled CPU, so a busy host queues packets — this
// is what makes a userspace proxy a bottleneck (Figure 12) and checksum
// software-vs-offload visible (Figure 8).
type CostModel struct {
	// RecvPacket/SendPacket are fixed per-packet costs.
	RecvPacket sim.Time
	SendPacket sim.Time
	// ChecksumPerKB is charged per kilobyte of packet on send and on
	// receive when the host does NOT offload checksums to the NIC.
	ChecksumPerKB sim.Time
	// ForwardPacket is charged when the host forwards (routes) a packet.
	ForwardPacket sim.Time
}

// DefaultCosts approximates a Linux host on the paper's testbed: a few µs
// per packet of kernel path, ~0.5 ns/byte of software checksumming.
func DefaultCosts() CostModel {
	return CostModel{
		RecvPacket:    2 * time.Microsecond,
		SendPacket:    2 * time.Microsecond,
		ChecksumPerKB: 500 * time.Nanosecond,
		ForwardPacket: 1 * time.Microsecond,
	}
}

// CPU is a single serial processor with utilization accounting.
type CPU struct {
	eng       *sim.Engine
	busyUntil sim.Time
	// Busy is total busy time since start.
	Busy sim.Time
	// Series accumulates busy time per interval when non-nil.
	Series *stats.TimeSeries
}

// Acquire charges cost of CPU time and returns the absolute virtual time at
// which the work completes (FIFO, single core).
func (c *CPU) Acquire(cost sim.Time) sim.Time {
	now := c.eng.Now()
	start := now
	if c.busyUntil > start {
		start = c.busyUntil
	}
	c.busyUntil = start + cost
	c.Busy += cost
	if c.Series != nil && cost > 0 {
		// Attribute the busy time to the bin where the work starts; bins
		// are long (1s) relative to per-packet costs, so this is accurate.
		c.Series.Add(start, cost.Seconds())
	}
	return c.busyUntil
}

// Counters aggregates per-host packet statistics.
type Counters struct {
	PacketsIn   uint64
	PacketsOut  uint64
	BytesOut    uint64
	Forwarded   uint64
	DeliveredUp uint64
	DropsNoRoute,
	DropsHook,
	DropsNoHandler uint64
	// DropsHostDown counts packets that arrived at (or were sent by) a host
	// while it was down (frozen or crashed by fault injection).
	DropsHostDown uint64
	// DropsCorrupt counts packets discarded by receive-side checksum
	// verification after in-flight corruption.
	DropsCorrupt uint64
}

// Host is a machine in the simulated network: an end-host, a middlebox
// host, or a router (Forwarding=true).
type Host struct {
	Name string
	Addr packet.Addr
	Net  *Network
	CPU  *CPU
	Cost CostModel
	// ChecksumOffload models NIC checksum offload: when true, software
	// checksum cost is not charged (Figure 8a vs 8b).
	ChecksumOffload bool
	// Forwarding lets the host route packets not addressed to it.
	Forwarding bool
	Stats      Counters

	// down marks the host frozen or crashed (fault injection): every packet
	// it would send or receive is dropped until SetDown(false).
	down bool

	links   []*linkEnd
	routes  map[packet.Addr]*linkEnd
	ingress []Hook
	egress  []Hook
	// cpuDone is the lane of received packets waiting for the CPU, at
	// CPU.Acquire's return value, which never decreases.
	cpuDone  *sim.Lane
	tcpDemux func(*packet.Packet)
	udpBinds map[packet.Port]func(*packet.Packet)
}

// Network owns the hosts and topology.
type Network struct {
	Eng   *sim.Engine
	hosts map[packet.Addr]*Host
	order []*Host // deterministic iteration
}

// New creates an empty network on the engine.
func New(eng *sim.Engine) *Network {
	return &Network{Eng: eng, hosts: make(map[packet.Addr]*Host)}
}

// AddHost creates a host with the given name and address.
func (n *Network) AddHost(name string, addr packet.Addr) *Host {
	if _, dup := n.hosts[addr]; dup {
		panic(fmt.Sprintf("netsim: duplicate host address %v", addr))
	}
	h := &Host{
		Name:            name,
		Addr:            addr,
		Net:             n,
		CPU:             &CPU{eng: n.Eng},
		Cost:            DefaultCosts(),
		ChecksumOffload: true,
		routes:          make(map[packet.Addr]*linkEnd),
		udpBinds:        make(map[packet.Port]func(*packet.Packet)),
	}
	h.cpuDone = n.Eng.NewLane(func(arg any) { h.process(arg.(*packet.Packet)) })
	n.hosts[addr] = h
	n.order = append(n.order, h)
	return h
}

// Host returns the host with the given address, or nil.
func (n *Network) Host(addr packet.Addr) *Host { return n.hosts[addr] }

// Hosts returns all hosts in creation order.
func (n *Network) Hosts() []*Host { return n.order }

// Connect joins a and b with a symmetric duplex link.
func (n *Network) Connect(a, b *Host, cfg LinkConfig) {
	n.ConnectAsym(a, b, cfg, cfg)
}

// ConnectAsym joins a and b with per-direction configurations.
func (n *Network) ConnectAsym(a, b *Host, ab, ba LinkConfig) {
	if ab.QueueBytes == 0 {
		ab.QueueBytes = defaultQueueBytes
	}
	if ba.QueueBytes == 0 {
		ba.QueueBytes = defaultQueueBytes
	}
	a.links = append(a.links, newLinkEnd(ab, a, b))
	b.links = append(b.links, newLinkEnd(ba, b, a))
}

// ComputeRoutes (re)builds every host's next-hop table with BFS shortest
// paths (hop count). Call after topology changes.
func (n *Network) ComputeRoutes() {
	for _, src := range n.order {
		src.routes = make(map[packet.Addr]*linkEnd)
		// BFS from src.
		type qe struct {
			h     *Host
			first *linkEnd // first hop taken from src
		}
		visited := map[*Host]bool{src: true}
		queue := []qe{}
		for _, l := range src.links {
			if !visited[l.to] {
				visited[l.to] = true
				src.routes[l.to.Addr] = l
				queue = append(queue, qe{l.to, l})
			}
		}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			if !cur.h.Forwarding {
				// Non-forwarding hosts are valid destinations but never
				// transit points.
				continue
			}
			for _, l := range cur.h.links {
				if !visited[l.to] {
					visited[l.to] = true
					src.routes[l.to.Addr] = cur.first
					queue = append(queue, qe{l.to, cur.first})
				}
			}
		}
	}
}

// AddIngressHook appends a hook run on every packet arriving from the wire,
// before local delivery or forwarding. Hooks run in registration order.
func (h *Host) AddIngressHook(fn Hook) { h.ingress = append(h.ingress, fn) }

// AddEgressHook appends a hook run on every packet leaving the host.
func (h *Host) AddEgressHook(fn Hook) { h.egress = append(h.egress, fn) }

// SetTCPDeliver installs the host's TCP stack entry point for packets
// addressed to this host.
func (h *Host) SetTCPDeliver(fn func(*packet.Packet)) { h.tcpDemux = fn }

// BindUDP registers a handler for UDP datagrams to the given local port.
func (h *Host) BindUDP(port packet.Port, fn func(*packet.Packet)) {
	h.udpBinds[port] = fn
}

func runHooks(hooks []Hook, p *packet.Packet, dir Direction) Verdict {
	for _, fn := range hooks {
		switch fn(p, dir) {
		case Drop:
			return Drop
		case Consume:
			return Consume
		case Pass:
			// Next hook decides.
		}
	}
	return Pass
}

// Send transmits a locally-originated packet: egress hooks, checksum
// (software or offloaded), then routing and link transmission.
func (h *Host) Send(p *packet.Packet) {
	switch runHooks(h.egress, p, Egress) {
	case Drop:
		h.Stats.DropsHook++
		return
	case Consume:
		return
	case Pass:
	}
	h.transmit(p, h.Cost.SendPacket)
}

// SendDirect transmits a packet without running egress hooks. Hook code
// (e.g. a Dysco agent splitting a packet across two paths) uses it to emit
// packets it has already processed, avoiding re-entering itself.
func (h *Host) SendDirect(p *packet.Packet) {
	h.transmit(p, h.Cost.SendPacket)
}

// transmit charges CPU and puts the packet on the wire toward its
// destination.
func (h *Host) transmit(p *packet.Packet, baseCost sim.Time) {
	if h.down {
		h.Stats.DropsHostDown++
		return
	}
	cost := baseCost
	if !h.ChecksumOffload {
		cost += sim.Time(int64(h.Cost.ChecksumPerKB) * int64(p.Size()) / 1024)
	}
	done := h.CPU.Acquire(cost)
	le := h.routes[p.Tuple.DstIP]
	if le == nil {
		h.Stats.DropsNoRoute++
		return
	}
	h.Stats.PacketsOut++
	h.Stats.BytesOut += uint64(p.Size())
	le.send(p, done)
}

// send models the transmit queue and the wire for one link direction.
func (le *linkEnd) send(p *packet.Packet, ready sim.Time) {
	eng := le.from.Net.Eng
	if le.down {
		le.drops.LinkDown++
		return
	}
	var extraDelay sim.Time
	if le.fault != nil {
		fd := le.fault(p)
		if fd.Drop {
			le.drops.Fault++
			return
		}
		if fd.Duplicate {
			// The copy takes an independent trip through the queue; a
			// duplicate of a duplicate is not possible (the hook runs once).
			dup := p.Clone()
			saved := le.fault
			le.fault = nil
			le.send(dup, ready)
			le.fault = saved
		}
		if fd.Corrupt {
			// The next host's receive drops the packet before any hook,
			// stack or capture sees it, so no byte needs to change.
			p.Corrupted = true
		}
		extraDelay = fd.ExtraDelay
	}
	size := p.Size()
	if le.cfg.LossProb > 0 && eng.Rand().Float64() < le.cfg.LossProb {
		le.drops.Loss++
		return
	}
	le.retire()
	if le.queued+size > le.cfg.QueueBytes {
		le.drops.Queue++
		return
	}
	start := ready
	if le.busyUntil > start {
		start = le.busyUntil
	}
	var tx sim.Time
	if le.cfg.Bandwidth > 0 {
		tx = sim.Time(float64(size) / le.cfg.Bandwidth * float64(time.Second))
	}
	le.busyUntil = start + tx
	le.queued += size
	le.tx.push(txEntry{end: le.busyUntil, seq: eng.SilentKey(le.busyUntil), size: size})
	if extraDelay != 0 {
		// Later packets may overtake this one, so it cannot join the lane.
		eng.At(le.busyUntil+le.cfg.Delay+extraDelay, func() { le.arrive(p) })
		return
	}
	le.deliver.Post(le.busyUntil+le.cfg.Delay, p)
}

// receive handles a packet arriving from the wire.
func (h *Host) receive(p *packet.Packet) {
	if h.down {
		h.Stats.DropsHostDown++
		return
	}
	if p.Corrupted {
		// Checksum verification (hardware offload or software) detects the
		// in-flight damage and discards the segment; the sender's
		// retransmission machinery recovers, so applications never see the
		// corrupt bytes.
		h.Stats.DropsCorrupt++
		return
	}
	h.Stats.PacketsIn++
	cost := h.Cost.RecvPacket
	if !h.ChecksumOffload {
		cost += sim.Time(int64(h.Cost.ChecksumPerKB) * int64(p.Size()) / 1024)
	}
	h.cpuDone.Post(h.CPU.Acquire(cost), p)
}

func (h *Host) process(p *packet.Packet) {
	switch runHooks(h.ingress, p, Ingress) {
	case Drop:
		h.Stats.DropsHook++
		return
	case Consume:
		return
	case Pass:
	}
	if p.Tuple.DstIP == h.Addr {
		h.deliverUp(p)
		return
	}
	if !h.Forwarding {
		h.Stats.DropsNoRoute++
		return
	}
	if p.TTL <= 1 {
		h.Stats.DropsNoRoute++
		return
	}
	p.TTL--
	h.Stats.Forwarded++
	// Forwarded packets traverse egress hooks too: an agent on an edge
	// router can initiate service chains for transit traffic (§2.4
	// partial deployment).
	switch runHooks(h.egress, p, Egress) {
	case Drop:
		h.Stats.DropsHook++
		return
	case Consume:
		return
	case Pass:
	}
	h.transmit(p, h.Cost.ForwardPacket)
}

func (h *Host) deliverUp(p *packet.Packet) {
	switch p.Tuple.Proto {
	case packet.ProtoTCP:
		if h.tcpDemux != nil {
			h.Stats.DeliveredUp++
			h.tcpDemux(p)
			return
		}
	case packet.ProtoUDP:
		if fn, ok := h.udpBinds[p.Tuple.DstPort]; ok {
			h.Stats.DeliveredUp++
			fn(p)
			return
		}
	}
	h.Stats.DropsNoHandler++
}

// InjectLocal delivers a packet to this host as if it had arrived from the
// wire, bypassing links. Used by loopback-style tests and state injection.
func (h *Host) InjectLocal(p *packet.Packet) { h.receive(p) }

// DeliverLocal hands a packet directly to the host's transport demux,
// bypassing ingress hooks. A Dysco agent uses it to deliver a rewritten
// packet (whose destination address is the original session's, not this
// host's) to the local stack or application.
func (h *Host) DeliverLocal(p *packet.Packet) { h.deliverUp(p) }

// LinkTo returns the transmit link end from h toward the neighbor with
// address a (nil if not directly connected). Exposed for tests and for
// experiments that read drop counters.
func (h *Host) LinkTo(a packet.Addr) *LinkEndInfo {
	for _, l := range h.links {
		if l.to.Addr == a {
			return &LinkEndInfo{le: l}
		}
	}
	return nil
}

// Links returns this host's transmit link ends in connection order.
// Exposed for fault injectors that install hooks on every direction.
func (h *Host) Links() []*LinkEndInfo {
	out := make([]*LinkEndInfo, len(h.links))
	for i, l := range h.links {
		out[i] = &LinkEndInfo{le: l}
	}
	return out
}

// SetDown freezes or unfreezes the host. While down, every packet the host
// would send or receive is dropped (counted in DropsHostDown). Timers and
// application state are untouched — a frozen host resumes where it left
// off, a crash is modeled by the caller additionally resetting state.
func (h *Host) SetDown(down bool) { h.down = down }

// LinkEndInfo is a read-mostly view over one link direction.
type LinkEndInfo struct{ le *linkEnd }

// Drops returns the total packets dropped at this link end, all reasons
// combined (see DropsByReason for attribution).
func (i *LinkEndInfo) Drops() uint64 { return i.le.drops.Total() }

// DropsByReason returns the per-reason drop counters for this link end.
func (i *LinkEndInfo) DropsByReason() DropStats { return i.le.drops }

// QueuedBytes returns bytes currently in the transmit queue.
func (i *LinkEndInfo) QueuedBytes() int {
	i.le.retire()
	return i.le.queued
}

// From returns the transmitting host's address.
func (i *LinkEndInfo) From() packet.Addr { return i.le.from.Addr }

// To returns the receiving host's address.
func (i *LinkEndInfo) To() packet.Addr { return i.le.to.Addr }

// SetLoss changes the random loss probability at runtime (used by failure
// injection tests).
func (i *LinkEndInfo) SetLoss(p float64) { i.le.cfg.LossProb = p }

// SetDown changes the link direction's up/down state. While down every
// packet offered to this direction is dropped (counted in LinkDown).
func (i *LinkEndInfo) SetDown(down bool) { i.le.down = down }

// SetFault installs (or clears, with nil) the per-packet fault hook for
// this link direction. The hook runs before loss and queue admission on
// every packet offered to the link.
func (i *LinkEndInfo) SetFault(fn FaultHook) { i.le.fault = fn }
