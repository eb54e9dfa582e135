package netsim

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

func twoHosts(t *testing.T, cfg LinkConfig) (*sim.Engine, *Network, *Host, *Host) {
	t.Helper()
	eng := sim.NewEngine(1)
	n := New(eng)
	a := n.AddHost("a", packet.MakeAddr(10, 0, 0, 1))
	b := n.AddHost("b", packet.MakeAddr(10, 0, 0, 2))
	n.Connect(a, b, cfg)
	n.ComputeRoutes()
	return eng, n, a, b
}

func udpTo(dst *Host, src *Host, port packet.Port, payload []byte) *packet.Packet {
	return packet.NewUDP(packet.FiveTuple{
		SrcIP: src.Addr, DstIP: dst.Addr, SrcPort: 5555, DstPort: port,
	}, payload)
}

func TestDeliverySingleHop(t *testing.T) {
	eng, _, a, b := twoHosts(t, LinkConfig{Delay: time.Millisecond})
	var got *packet.Packet
	b.BindUDP(9000, func(p *packet.Packet) { got = p })
	a.Send(udpTo(b, a, 9000, []byte("hi")))
	eng.RunUntilIdle()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if string(got.Payload) != "hi" {
		t.Errorf("payload = %q", got.Payload)
	}
	// Propagation delay plus small CPU costs.
	if eng.Now() < time.Millisecond || eng.Now() > time.Millisecond+time.Millisecond {
		t.Errorf("delivery time = %v", eng.Now())
	}
	if a.Stats.PacketsOut != 1 || b.Stats.PacketsIn != 1 || b.Stats.DeliveredUp != 1 {
		t.Errorf("counters: %+v %+v", a.Stats, b.Stats)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// 1000 bytes/sec link: a 78-byte UDP packet takes 78 ms on the wire.
	eng, _, a, b := twoHosts(t, LinkConfig{Bandwidth: 1000})
	var at sim.Time
	b.BindUDP(9000, func(p *packet.Packet) { at = eng.Now() })
	a.Send(udpTo(b, a, 9000, make([]byte, 50))) // Size = 78
	eng.RunUntilIdle()
	if at < 78*time.Millisecond || at > 79*time.Millisecond {
		t.Errorf("delivery at %v, want ≈78ms", at)
	}
}

func TestQueueDropTail(t *testing.T) {
	eng, _, a, b := twoHosts(t, LinkConfig{Bandwidth: 1000, QueueBytes: 200})
	delivered := 0
	b.BindUDP(9000, func(p *packet.Packet) { delivered++ })
	for i := 0; i < 10; i++ {
		a.Send(udpTo(b, a, 9000, make([]byte, 50))) // 78 bytes each
	}
	eng.RunUntilIdle()
	if delivered >= 10 {
		t.Errorf("no drops despite tiny queue: delivered=%d", delivered)
	}
	if a.LinkTo(b.Addr).Drops() == 0 {
		t.Error("link drop counter is zero")
	}
	if delivered+int(a.LinkTo(b.Addr).Drops()) != 10 {
		t.Errorf("delivered %d + drops %d != 10", delivered, a.LinkTo(b.Addr).Drops())
	}
}

// TestSendAtTheInstantATransmissionEnds: a packet's end of transmission is
// a key drawn when it is queued, at (end, seq), with no event behind it. An
// event at that exact instant keyed before it still finds the packet
// queued, and one keyed after it finds it gone, as when an event at
// (end, seq) took it out. With room for one packet, a send from the first
// is dropped and one from the second admitted; QueuedBytes read from them
// says the packet's size and zero.
func TestSendAtTheInstantATransmissionEnds(t *testing.T) {
	for _, tc := range []struct {
		keyedAfter, read bool
	}{{false, false}, {true, false}, {false, true}, {true, true}} {
		eng, _, a, b := twoHosts(t, LinkConfig{Delay: time.Millisecond, Bandwidth: 1e9})
		a.Cost = CostModel{}
		p := udpTo(b, a, 9000, make([]byte, 1000))
		size := p.Size()
		le := a.LinkTo(b.Addr)
		le.le.cfg.QueueBytes = size + size/2
		delivered := 0
		b.BindUDP(9000, func(*packet.Packet) { delivered++ })
		queued := -1
		tie := func() {
			// At 1e9 bytes/s the first packet's transmission ends at size ns.
			eng.At(sim.Time(size), func() {
				if tc.read {
					queued = le.QueuedBytes()
					return
				}
				a.Send(udpTo(b, a, 9000, make([]byte, 1000)))
			})
		}
		if !tc.keyedAfter {
			tie()
		}
		a.Send(p)
		if tc.keyedAfter {
			tie()
		}
		eng.RunUntilIdle()
		want := 1 // the tie's event finds the first packet queued
		if tc.keyedAfter {
			want = 0
		}
		switch {
		case tc.read && queued != want*size:
			t.Errorf("keyed after the end: %v: QueuedBytes() = %d at the tie, want %d", tc.keyedAfter, queued, want*size)
		case !tc.read && (int(le.DropsByReason().Queue) != want || delivered != 2-want):
			t.Errorf("keyed after the end: %v: %d queue drops, %d delivered; want %d, %d",
				tc.keyedAfter, le.DropsByReason().Queue, delivered, want, 2-want)
		case le.QueuedBytes() != 0:
			t.Errorf("keyed after the end: %v: %d bytes left queued", tc.keyedAfter, le.QueuedBytes())
		}
	}
}

func TestRandomLoss(t *testing.T) {
	eng, _, a, b := twoHosts(t, LinkConfig{LossProb: 0.5})
	delivered := 0
	b.BindUDP(9000, func(p *packet.Packet) { delivered++ })
	for i := 0; i < 1000; i++ {
		a.Send(udpTo(b, a, 9000, nil))
	}
	eng.RunUntilIdle()
	if delivered < 400 || delivered > 600 {
		t.Errorf("delivered %d of 1000 at p=0.5", delivered)
	}
}

func TestForwardingAndTTL(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng)
	a := n.AddHost("a", packet.MakeAddr(10, 0, 0, 1))
	r := n.AddHost("r", packet.MakeAddr(10, 0, 0, 2))
	b := n.AddHost("b", packet.MakeAddr(10, 0, 0, 3))
	r.Forwarding = true
	n.Connect(a, r, LinkConfig{})
	n.Connect(r, b, LinkConfig{})
	n.ComputeRoutes()

	got := false
	b.BindUDP(9000, func(p *packet.Packet) { got = true })
	a.Send(udpTo(b, a, 9000, nil))
	eng.RunUntilIdle()
	if !got {
		t.Fatal("multi-hop packet not delivered")
	}
	if r.Stats.Forwarded != 1 {
		t.Errorf("router forwarded = %d", r.Stats.Forwarded)
	}

	// TTL exhaustion: craft a packet with TTL 1 entering the router.
	p := udpTo(b, a, 9000, nil)
	p.TTL = 1
	got = false
	a.Send(p)
	eng.RunUntilIdle()
	if got {
		t.Error("TTL-1 packet crossed the router")
	}
}

func TestNonForwardingHostDropsTransit(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng)
	a := n.AddHost("a", packet.MakeAddr(10, 0, 0, 1))
	m := n.AddHost("m", packet.MakeAddr(10, 0, 0, 2)) // NOT forwarding
	b := n.AddHost("b", packet.MakeAddr(10, 0, 0, 3))
	n.Connect(a, m, LinkConfig{})
	n.Connect(m, b, LinkConfig{})
	n.ComputeRoutes()
	got := false
	b.BindUDP(9000, func(p *packet.Packet) { got = true })
	a.Send(udpTo(b, a, 9000, nil))
	eng.RunUntilIdle()
	if got {
		t.Error("non-forwarding host forwarded a packet")
	}
	// Routing refuses to transit non-forwarding hosts, so the sender has
	// no route at all.
	if a.Stats.DropsNoRoute == 0 {
		t.Error("no-route drop not counted at sender")
	}
}

func TestHooksRewriteAndDrop(t *testing.T) {
	eng, _, a, b := twoHosts(t, LinkConfig{})
	var deliveredTo packet.Port
	b.BindUDP(7777, func(p *packet.Packet) { deliveredTo = 7777 })
	b.BindUDP(9000, func(p *packet.Packet) { deliveredTo = 9000 })

	// Egress hook rewrites destination port (like a Dysco agent would).
	a.AddEgressHook(func(p *packet.Packet, dir Direction) Verdict {
		if dir != Egress {
			t.Errorf("egress hook called with %v", dir)
		}
		p.Tuple.DstPort = 7777
		return Pass
	})
	a.Send(udpTo(b, a, 9000, nil))
	eng.RunUntilIdle()
	if deliveredTo != 7777 {
		t.Errorf("delivered to %d, want rewritten 7777", deliveredTo)
	}

	// Ingress hook drops everything.
	b.AddIngressHook(func(p *packet.Packet, dir Direction) Verdict { return Drop })
	deliveredTo = 0
	a.Send(udpTo(b, a, 9000, nil))
	eng.RunUntilIdle()
	if deliveredTo != 0 {
		t.Error("dropped packet was delivered")
	}
	if b.Stats.DropsHook == 0 {
		t.Error("hook drop not counted")
	}
}

func TestHookConsumeStopsProcessing(t *testing.T) {
	eng, _, a, b := twoHosts(t, LinkConfig{})
	consumed := 0
	b.AddIngressHook(func(p *packet.Packet, dir Direction) Verdict {
		consumed++
		return Consume
	})
	b.AddIngressHook(func(p *packet.Packet, dir Direction) Verdict {
		t.Error("second hook ran after Consume")
		return Pass
	})
	a.Send(udpTo(b, a, 9000, nil))
	eng.RunUntilIdle()
	if consumed != 1 {
		t.Errorf("consumed = %d", consumed)
	}
	if b.Stats.DropsHook != 0 {
		t.Error("Consume counted as drop")
	}
}

func TestCPUCostSerializesWork(t *testing.T) {
	eng, _, a, b := twoHosts(t, LinkConfig{})
	a.Cost = CostModel{SendPacket: 10 * time.Millisecond}
	var last sim.Time
	n := 0
	b.BindUDP(9000, func(p *packet.Packet) { n++; last = eng.Now() })
	for i := 0; i < 5; i++ {
		a.Send(udpTo(b, a, 9000, nil))
	}
	eng.RunUntilIdle()
	if n != 5 {
		t.Fatalf("delivered %d", n)
	}
	if last < 50*time.Millisecond {
		t.Errorf("5 packets at 10ms CPU each done at %v, want ≥50ms", last)
	}
	if a.CPU.Busy != 50*time.Millisecond {
		t.Errorf("CPU busy = %v", a.CPU.Busy)
	}
}

func TestChecksumOffloadCost(t *testing.T) {
	run := func(offload bool) sim.Time {
		eng, _, a, b := twoHosts(t, LinkConfig{})
		a.ChecksumOffload = offload
		b.ChecksumOffload = offload
		a.Cost = CostModel{ChecksumPerKB: time.Millisecond}
		b.Cost = CostModel{ChecksumPerKB: time.Millisecond}
		done := sim.Time(0)
		b.BindUDP(9000, func(p *packet.Packet) { done = eng.Now() })
		a.Send(udpTo(b, a, 9000, make([]byte, 1000)))
		eng.RunUntilIdle()
		return done
	}
	withOff := run(true)
	without := run(false)
	if without <= withOff {
		t.Errorf("software checksum (%v) not slower than offload (%v)", without, withOff)
	}
}

func TestUnboundPortDrops(t *testing.T) {
	eng, _, a, b := twoHosts(t, LinkConfig{})
	a.Send(udpTo(b, a, 12345, nil))
	eng.RunUntilIdle()
	if b.Stats.DropsNoHandler != 1 {
		t.Errorf("DropsNoHandler = %d", b.Stats.DropsNoHandler)
	}
}

func TestComputeRoutesLineTopology(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng)
	hosts := make([]*Host, 6)
	for i := range hosts {
		hosts[i] = n.AddHost("h", packet.MakeAddr(10, 0, 0, byte(i+1)))
		hosts[i].Forwarding = true
		if i > 0 {
			n.Connect(hosts[i-1], hosts[i], LinkConfig{Delay: time.Millisecond})
		}
	}
	n.ComputeRoutes()
	got := false
	hosts[5].BindUDP(1, func(p *packet.Packet) { got = true })
	hosts[0].Send(udpTo(hosts[5], hosts[0], 1, nil))
	eng.RunUntilIdle()
	if !got {
		t.Fatal("end-to-end delivery over 5 hops failed")
	}
	if eng.Now() < 5*time.Millisecond {
		t.Errorf("delivered at %v, want ≥5ms of propagation", eng.Now())
	}
}

func TestForwardedPacketsTraverseEgressHooks(t *testing.T) {
	eng := sim.NewEngine(2)
	n := New(eng)
	a := n.AddHost("a", packet.MakeAddr(10, 0, 0, 1))
	r := n.AddHost("r", packet.MakeAddr(10, 0, 0, 2))
	b := n.AddHost("b", packet.MakeAddr(10, 0, 0, 3))
	r.Forwarding = true
	n.Connect(a, r, LinkConfig{})
	n.Connect(r, b, LinkConfig{})
	n.ComputeRoutes()
	seen := 0
	r.AddEgressHook(func(p *packet.Packet, dir Direction) Verdict {
		seen++
		return Pass
	})
	got := false
	b.BindUDP(9, func(p *packet.Packet) { got = true })
	a.Send(udpTo(b, a, 9, nil))
	eng.RunUntilIdle()
	if !got || seen != 1 {
		t.Fatalf("egress hook on forwarded packet: seen=%d delivered=%v", seen, got)
	}
}

func TestDropAttribution(t *testing.T) {
	// Each drop lands in exactly one per-reason counter, and the legacy
	// Drops() total is the sum of them.
	eng, _, a, b := twoHosts(t, LinkConfig{Bandwidth: 1000, QueueBytes: 200})
	delivered := 0
	b.BindUDP(9000, func(p *packet.Packet) { delivered++ })
	link := a.LinkTo(b.Addr)

	// Queue-full drops: burst past the 200-byte queue.
	for i := 0; i < 5; i++ {
		a.Send(udpTo(b, a, 9000, make([]byte, 50))) // 78 bytes each
	}
	eng.RunUntilIdle()
	ds := link.DropsByReason()
	if ds.Queue == 0 || ds.Loss != 0 || ds.LinkDown != 0 || ds.Fault != 0 {
		t.Fatalf("after burst: %+v, want only Queue drops", ds)
	}

	// Link-down drops.
	link.SetDown(true)
	a.Send(udpTo(b, a, 9000, []byte("x")))
	eng.RunUntilIdle()
	link.SetDown(false)
	if got := link.DropsByReason().LinkDown; got != 1 {
		t.Fatalf("LinkDown = %d, want 1", got)
	}

	// Fault-hook drops.
	link.SetFault(func(p *packet.Packet) FaultDecision { return FaultDecision{Drop: true} })
	a.Send(udpTo(b, a, 9000, []byte("x")))
	eng.RunUntilIdle()
	link.SetFault(nil)
	if got := link.DropsByReason().Fault; got != 1 {
		t.Fatalf("Fault = %d, want 1", got)
	}

	// Random-loss drops.
	link.SetLoss(1.0)
	a.Send(udpTo(b, a, 9000, []byte("x")))
	eng.RunUntilIdle()
	link.SetLoss(0)
	if got := link.DropsByReason().Loss; got != 1 {
		t.Fatalf("Loss = %d, want 1", got)
	}

	ds = link.DropsByReason()
	if link.Drops() != ds.Total() || ds.Total() != ds.Queue+ds.Loss+ds.LinkDown+ds.Fault {
		t.Errorf("Drops()=%d inconsistent with %+v", link.Drops(), ds)
	}
}

func TestFaultHookDuplicateAndCorrupt(t *testing.T) {
	eng, _, a, b := twoHosts(t, LinkConfig{Delay: time.Millisecond})
	delivered := 0
	b.BindUDP(9000, func(p *packet.Packet) { delivered++ })
	link := a.LinkTo(b.Addr)

	// Duplicate: one send, two deliveries, no recursion beyond one copy.
	link.SetFault(func(p *packet.Packet) FaultDecision { return FaultDecision{Duplicate: true} })
	a.Send(udpTo(b, a, 9000, []byte("dup")))
	eng.RunUntilIdle()
	if delivered != 2 {
		t.Fatalf("delivered = %d after duplicate fault, want 2", delivered)
	}

	// Corrupt: the receiver's checksum check discards the packet before
	// its hooks or the application see it, and the sender's bytes stay as
	// they were.
	delivered = 0
	hooked := 0
	b.AddIngressHook(func(p *packet.Packet, dir Direction) Verdict {
		hooked++
		return Pass
	})
	link.SetFault(func(p *packet.Packet) FaultDecision { return FaultDecision{Corrupt: true} })
	payload := []byte("corrupt-me")
	a.Send(udpTo(b, a, 9000, payload))
	eng.RunUntilIdle()
	if delivered != 0 {
		t.Fatalf("delivered = %d after corrupt fault, want 0", delivered)
	}
	if hooked != 0 {
		t.Errorf("receiver's ingress hook saw %d corrupted packets, want 0", hooked)
	}
	if b.Stats.DropsCorrupt != 1 {
		t.Errorf("DropsCorrupt = %d, want 1", b.Stats.DropsCorrupt)
	}
	if string(payload) != "corrupt-me" {
		t.Errorf("sender's payload reads %q after corruption, want it unchanged", payload)
	}
}

func TestHostDown(t *testing.T) {
	eng, _, a, b := twoHosts(t, LinkConfig{Delay: time.Millisecond})
	delivered := 0
	b.BindUDP(9000, func(p *packet.Packet) { delivered++ })

	b.SetDown(true)
	a.Send(udpTo(b, a, 9000, []byte("to-down-host")))
	eng.RunUntilIdle()
	if delivered != 0 || b.Stats.DropsHostDown != 1 {
		t.Fatalf("delivered=%d DropsHostDown=%d, want 0/1", delivered, b.Stats.DropsHostDown)
	}

	a.SetDown(true)
	a.Send(udpTo(b, a, 9000, []byte("from-down-host")))
	eng.RunUntilIdle()
	if a.Stats.DropsHostDown != 1 {
		t.Fatalf("sender DropsHostDown=%d, want 1", a.Stats.DropsHostDown)
	}

	a.SetDown(false)
	b.SetDown(false)
	a.Send(udpTo(b, a, 9000, []byte("back-up")))
	eng.RunUntilIdle()
	if delivered != 1 {
		t.Errorf("delivered=%d after hosts back up, want 1", delivered)
	}
}

// TestReorderedPacketIsOvertaken: a packet a fault delays leaves its link's
// delivery lane, so a later undelayed packet on the same link overtakes it,
// and both arrive.
func TestReorderedPacketIsOvertaken(t *testing.T) {
	eng, _, a, b := twoHosts(t, LinkConfig{Delay: time.Millisecond, Bandwidth: Mbps(100)})
	var got []string
	b.BindUDP(9000, func(p *packet.Packet) { got = append(got, string(p.Payload)) })
	a.LinkTo(b.Addr).SetFault(func(p *packet.Packet) FaultDecision {
		if string(p.Payload) == "delayed" {
			return FaultDecision{ExtraDelay: 5 * time.Millisecond}
		}
		return FaultDecision{}
	})
	for _, s := range []string{"delayed", "second", "third"} {
		a.Send(udpTo(b, a, 9000, []byte(s)))
	}
	eng.RunUntilIdle()
	if len(got) != 3 || got[0] != "second" || got[1] != "third" || got[2] != "delayed" {
		t.Errorf("arrival order %q, want [second third delayed]", got)
	}
}

// TestPacketOverOneHopIsAllocationFree: a packet costs two events per hop
// (delivery and receive-side CPU), both on lanes, not allocated events; its
// end of transmission is a silent key in the transmit queue, not an event.
// Every ring — the lanes' and the transmit queue's — grows to the most
// packets ever in it at once, not to the traffic carried.
func TestPacketOverOneHopIsAllocationFree(t *testing.T) {
	eng, _, a, b := twoHosts(t, LinkConfig{Delay: time.Millisecond, Bandwidth: Mbps(100)})
	delivered := 0
	b.BindUDP(9000, func(*packet.Packet) { delivered++ })
	p := udpTo(b, a, 9000, make([]byte, 1000))
	const burst = 20
	hop := func() {
		for i := 0; i < burst; i++ {
			a.Send(p)
		}
		eng.RunUntilIdle()
	}
	hop() // first use allocates the events and the rings
	before := eng.Processed
	hop()
	if n := eng.Processed - before; n != 2*burst {
		t.Errorf("%d packets over one hop fired %d events, want %d", burst, n, 2*burst)
	}
	if allocs := testing.AllocsPerRun(100, hop); allocs != 0 {
		t.Errorf("%d packets over Send → link → receive → process = %v allocs, want 0", burst, allocs)
	}
	le := a.LinkTo(b.Addr)
	if delivered != 103*burst || le.QueuedBytes() != 0 || le.Drops() != 0 {
		t.Errorf("delivered %d of %d, %d bytes still queued, %d drops", delivered, 103*burst, le.QueuedBytes(), le.Drops())
	}
	for _, r := range []struct {
		name string
		len  int
	}{
		{"transmit queue", len(le.le.tx.buf)},
		{"delivery", le.le.deliver.Cap()},
		{"receive CPU", b.cpuDone.Cap()},
	} {
		if r.len > 2*burst {
			t.Errorf("%s ring holds %d slots after bursts of %d", r.name, r.len, burst)
		}
	}
}
