// Package mbox implements the middlebox applications used in the paper's
// evaluation and use cases: passive monitors (PRADS/Bro style), NATs,
// rate limiters (tc style), packet scrubbers, size-changing stream
// rewriters, stateful firewalls with exportable state (Netfilter/conntrack
// style, Figure 15), and TCP-terminating proxies (HAProxy style,
// Figures 12–14).
//
// Packet-level middleboxes implement core.App: they receive packets
// carrying the original session header from the local Dysco agent and
// return the packets to re-emit. The proxy instead terminates TCP on the
// host stack and relays between two connections.
package mbox

import (
	"bytes"
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Forwarder is the null middlebox: it re-emits every packet untouched.
// The paper's latency/throughput baselines run it ("the middleboxes simply
// forward packets in both directions", §5.1).
type Forwarder struct {
	Packets uint64
	out     [1]*packet.Packet // Process's result, reused on every call
}

// Process implements core.App. The returned slice is the forwarder's own
// scratch, valid until the next call.
func (f *Forwarder) Process(p *packet.Packet, dir netsim.Direction) []*packet.Packet {
	f.Packets++
	f.out[0] = p
	return f.out[:]
}

// Monitor passively counts per-session packets and bytes, like a passive
// DPI (PRADS, Bro) that only reads packets.
type Monitor struct {
	Sessions map[packet.FiveTuple]*MonitorEntry
}

// MonitorEntry is the per-session view of a Monitor.
type MonitorEntry struct {
	Packets uint64
	Bytes   uint64
	SYNs    uint64
	FINs    uint64
}

// NewMonitor returns an empty monitor.
func NewMonitor() *Monitor {
	return &Monitor{Sessions: make(map[packet.FiveTuple]*MonitorEntry)}
}

// Process implements core.App.
func (m *Monitor) Process(p *packet.Packet, dir netsim.Direction) []*packet.Packet {
	key := canonical(p.Tuple)
	e := m.Sessions[key]
	if e == nil {
		e = &MonitorEntry{}
		m.Sessions[key] = e
	}
	e.Packets++
	e.Bytes += uint64(p.DataLen())
	if p.Flags.Has(packet.FlagSYN) && !p.Flags.Has(packet.FlagACK) {
		e.SYNs++
	}
	if p.Flags.Has(packet.FlagFIN) {
		e.FINs++
	}
	return []*packet.Packet{p}
}

// canonical orients a five-tuple so both directions share a key.
func canonical(t packet.FiveTuple) packet.FiveTuple {
	r := t.Reverse()
	if t.SrcIP < r.SrcIP || (t.SrcIP == r.SrcIP && t.SrcPort <= r.SrcPort) {
		return t
	}
	return r
}

// Scrubber drops packets whose payload contains any blocked signature and
// passes everything else — the "packet scrubber for suspicious traffic"
// use case (§1).
type Scrubber struct {
	Signatures [][]byte
	Inspected  uint64
	Dropped    uint64
}

// Process implements core.App.
func (s *Scrubber) Process(p *packet.Packet, dir netsim.Direction) []*packet.Packet {
	s.Inspected++
	for _, sig := range s.Signatures {
		if len(sig) > 0 && bytes.Contains(p.Payload, sig) {
			s.Dropped++
			return nil
		}
	}
	return []*packet.Packet{p}
}

// RateLimiter is a token-bucket shaper (Linux tc tbf style): packets
// beyond the rate are queued and released when tokens accrue; packets
// beyond the queue limit are dropped.
type RateLimiter struct {
	// Rate is in bytes per second; Burst in bytes.
	Rate  float64
	Burst float64
	// QueueBytes bounds the backlog (default 256 KB).
	QueueBytes int
	// Emit re-injects a delayed packet (wired by the harness to
	// Host.Send so it traverses the Dysco agent's egress path). When nil
	// the limiter degrades to a pure policer.
	Emit func(*packet.Packet)

	eng     *sim.Engine
	tokens  float64
	last    sim.Time
	backlog int
	relAt   sim.Time // release horizon for queued bytes
	Dropped uint64
	Passed  uint64
	Queued  uint64
}

// NewRateLimiter builds a shaper on the engine's clock.
func NewRateLimiter(eng *sim.Engine, rate, burst float64) *RateLimiter {
	return &RateLimiter{Rate: rate, Burst: burst, QueueBytes: 256 << 10, eng: eng, tokens: burst}
}

// Process implements core.App.
func (r *RateLimiter) Process(p *packet.Packet, dir netsim.Direction) []*packet.Packet {
	now := r.eng.Now()
	r.tokens += r.Rate * (now - r.last).Seconds()
	if r.tokens > r.Burst {
		r.tokens = r.Burst
	}
	r.last = now
	need := float64(p.Size())
	if r.tokens >= need && r.backlog == 0 {
		r.tokens -= need
		r.Passed++
		return []*packet.Packet{p}
	}
	if r.Emit == nil {
		r.Dropped++
		return nil
	}
	if r.backlog+p.Size() > r.QueueBytes {
		r.Dropped++
		return nil
	}
	// Shape: release when tokens for the backlog ahead plus this packet
	// have accrued.
	r.backlog += p.Size()
	r.Queued++
	deficit := float64(r.backlog) - r.tokens
	wait := sim.Time(deficit / r.Rate * float64(time.Second))
	at := now + wait
	if at < r.relAt {
		at = r.relAt
	}
	r.relAt = at
	size := p.Size()
	r.eng.At(at, func() {
		r.backlog -= size
		r.tokens -= float64(size) // consumed by this packet upon release
		if r.tokens < -r.Burst {
			r.tokens = -r.Burst
		}
		r.Passed++
		r.Emit(p)
	})
	return nil
}

// NAT rewrites the source of rightward packets to a public address,
// modifying the five-tuple unpredictably — the case that breaks
// rule-based steering (§1) and that Dysco handles with SYN tags (§2.1).
type NAT struct {
	Public   packet.Addr
	nextPort packet.Port
	fwd      map[packet.FiveTuple]packet.FiveTuple
	rev      map[packet.FiveTuple]packet.FiveTuple
	// Translations counts active mappings.
	Translations int
}

// NewNAT builds a NAT translating to the given public address.
func NewNAT(public packet.Addr) *NAT {
	return &NAT{
		Public:   public,
		nextPort: 30000,
		fwd:      make(map[packet.FiveTuple]packet.FiveTuple),
		rev:      make(map[packet.FiveTuple]packet.FiveTuple),
	}
}

// Process implements core.App.
func (n *NAT) Process(p *packet.Packet, dir netsim.Direction) []*packet.Packet {
	if t, ok := n.fwd[p.Tuple]; ok {
		p.RewriteTuple(t)
		return []*packet.Packet{p}
	}
	if t, ok := n.rev[p.Tuple]; ok {
		p.RewriteTuple(t)
		return []*packet.Packet{p}
	}
	if p.Flags.Has(packet.FlagSYN) && !p.Flags.Has(packet.FlagACK) {
		nat := p.Tuple
		nat.SrcIP = n.Public
		nat.SrcPort = n.nextPort
		n.nextPort++
		n.fwd[p.Tuple] = nat
		n.rev[nat.Reverse()] = p.Tuple.Reverse()
		n.Translations++
		p.RewriteTuple(nat)
		return []*packet.Packet{p}
	}
	// Unknown non-SYN: a real NAT drops it.
	return nil
}
