package tcp

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
)

// harness wires two hosts with TCP stacks over a configurable link.
type harness struct {
	eng      *sim.Engine
	net      *netsim.Network
	hc, hs   *netsim.Host
	client   *Stack
	server   *Stack
	accepted []*Conn
}

// runFor advances the engine by a relative duration.
func (h *harness) runFor(d sim.Time) { h.eng.Run(h.eng.Now() + d) }

func newHarness(t *testing.T, cfg netsim.LinkConfig, seed int64) *harness {
	t.Helper()
	eng := sim.NewEngine(seed)
	n := netsim.New(eng)
	hc := n.AddHost("client", packet.MakeAddr(10, 0, 0, 1))
	hs := n.AddHost("server", packet.MakeAddr(10, 0, 0, 2))
	n.Connect(hc, hs, cfg)
	n.ComputeRoutes()
	h := &harness{eng: eng, net: n, hc: hc, hs: hs}
	h.client = NewStack(hc)
	h.server = NewStack(hs)
	return h
}

// echoServer listens and records received bytes; optionally echoes.
func (h *harness) sinkServer(t *testing.T, port packet.Port) *bytes.Buffer {
	t.Helper()
	buf := &bytes.Buffer{}
	h.server.Listen(port, func(c *Conn) {
		h.accepted = append(h.accepted, c)
		c.OnData = func(b []byte) { buf.Write(b) }
	})
	return buf
}

func TestHandshake(t *testing.T) {
	h := newHarness(t, netsim.LinkConfig{Delay: time.Millisecond}, 1)
	established := false
	var serverSide *Conn
	h.server.Listen(80, func(c *Conn) { serverSide = c })
	c := h.client.Connect(h.hs.Addr, 80, Config{})
	c.OnEstablished = func() { established = true }
	h.eng.Run(time.Second)
	if !established {
		t.Fatal("client not established")
	}
	if serverSide == nil || serverSide.State() != StateEstablished {
		t.Fatalf("server side state: %v", serverSide)
	}
	if c.State() != StateEstablished {
		t.Fatalf("client state %v", c.State())
	}
	if !c.SACKEnabled() || !serverSide.SACKEnabled() {
		t.Error("SACK not negotiated by default")
	}
	if c.MSS() != 1460 {
		t.Errorf("MSS = %d", c.MSS())
	}
	for _, end := range []*Conn{c, serverSide} {
		if end.SndWScale() != 7 || end.RcvWScale() != 7 {
			t.Errorf("%v: window scale snd=%d rcv=%d, want 7 each way", end.Tuple(), end.SndWScale(), end.RcvWScale())
		}
		if !end.tsOK {
			t.Errorf("%v: timestamps not negotiated", end.Tuple())
		}
	}
}

// TestSYNWithoutOptions: a peer whose SYN offers no options gets a
// connection without SACK, timestamps or window scaling, whatever this
// end's SYN-ACK offers.
func TestSYNWithoutOptions(t *testing.T) {
	h := newHarness(t, netsim.LinkConfig{Delay: time.Millisecond}, 1)
	var accepted *Conn
	h.server.Listen(80, func(c *Conn) { accepted = c })
	tup := packet.FiveTuple{Proto: packet.ProtoTCP, SrcIP: h.hc.Addr, DstIP: h.hs.Addr, SrcPort: 4000, DstPort: 80}
	const iss = 1000
	h.hs.InjectLocal(packet.NewTCP(tup, packet.FlagSYN, iss, 0, nil))
	h.runFor(100 * time.Microsecond) // the SYN-ACK is still on its way
	c := h.server.conns[tup.Reverse()]
	if c == nil {
		t.Fatal("no connection for the injected SYN")
	}
	h.hs.InjectLocal(packet.NewTCP(tup, packet.FlagACK, iss+1, c.ISS()+1, nil))
	h.runFor(100 * time.Microsecond)
	if accepted != c {
		t.Fatalf("accepted %v, want the SYN's connection", accepted)
	}
	if c.SACKEnabled() || c.tsOK || c.SndWScale() != 0 || c.RcvWScale() != 0 {
		t.Errorf("sack=%v ts=%v scales snd=%d rcv=%d, want none", c.SACKEnabled(), c.tsOK, c.SndWScale(), c.RcvWScale())
	}
}

func TestConnectLatencyIsOneRTT(t *testing.T) {
	h := newHarness(t, netsim.LinkConfig{Delay: 500 * time.Microsecond}, 1)
	h.server.Listen(80, func(c *Conn) {})
	var at sim.Time
	c := h.client.Connect(h.hs.Addr, 80, Config{})
	c.OnEstablished = func() { at = h.eng.Now() }
	h.eng.Run(time.Second)
	// connect() completes after SYN + SYN-ACK = 1 RTT (plus CPU µs).
	if at < time.Millisecond || at > time.Millisecond+100*time.Microsecond {
		t.Errorf("established at %v, want ≈1ms", at)
	}
}

func TestBulkTransfer(t *testing.T) {
	h := newHarness(t, netsim.LinkConfig{Delay: time.Millisecond, Bandwidth: netsim.Gbps(1)}, 1)
	got := h.sinkServer(t, 80)
	data := make([]byte, 1<<20) // 1 MB
	for i := range data {
		data[i] = byte(i * 7)
	}
	c := h.client.Connect(h.hs.Addr, 80, Config{})
	c.OnEstablished = func() { c.Send(data) }
	h.eng.Run(10 * time.Second)
	if got.Len() != len(data) {
		t.Fatalf("received %d bytes, want %d", got.Len(), len(data))
	}
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatal("data corrupted in transfer")
	}
	if c.Stats.Retransmits != 0 {
		t.Errorf("unexpected retransmits on clean link: %d", c.Stats.Retransmits)
	}
}

func TestBulkTransferWithLoss(t *testing.T) {
	h := newHarness(t, netsim.LinkConfig{Delay: time.Millisecond, Bandwidth: netsim.Gbps(1), LossProb: 0.02}, 7)
	got := h.sinkServer(t, 80)
	data := make([]byte, 512<<10)
	for i := range data {
		data[i] = byte(i)
	}
	c := h.client.Connect(h.hs.Addr, 80, Config{})
	c.OnEstablished = func() { c.Send(data) }
	h.eng.Run(120 * time.Second)
	if got.Len() != len(data) {
		t.Fatalf("received %d bytes, want %d (retx=%d timeouts=%d)",
			got.Len(), len(data), c.Stats.Retransmits, c.Stats.Timeouts)
	}
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatal("data corrupted under loss")
	}
	if c.Stats.Retransmits == 0 {
		t.Error("no retransmits despite 2% loss")
	}
}

func TestLossRecoveryUsesFastRetransmit(t *testing.T) {
	h := newHarness(t, netsim.LinkConfig{Delay: 5 * time.Millisecond, Bandwidth: netsim.Gbps(1), LossProb: 0.01}, 3)
	h.sinkServer(t, 80)
	data := make([]byte, 1<<20)
	c := h.client.Connect(h.hs.Addr, 80, Config{})
	c.OnEstablished = func() { c.Send(data) }
	h.eng.Run(120 * time.Second)
	if c.Stats.FastRetransmits == 0 {
		t.Errorf("no fast retransmits (timeouts=%d, retx=%d)", c.Stats.Timeouts, c.Stats.Retransmits)
	}
}

func TestSACKDisabledFallsBackToTimeouts(t *testing.T) {
	// With SACK on, multiple losses in a window recover without RTO much
	// more often; compare timeout counts as a smoke signal.
	run := func(sack bool, seed int64) uint64 {
		h := newHarness(t, netsim.LinkConfig{Delay: 5 * time.Millisecond, Bandwidth: netsim.Mbps(100), LossProb: 0.03}, seed)
		h.server.Listen(80, func(c *Conn) {})
		cfg := Config{DisableSACK: !sack}
		data := make([]byte, 256<<10)
		c := h.client.Connect(h.hs.Addr, 80, cfg)
		c.OnEstablished = func() { c.Send(data) }
		h.eng.Run(240 * time.Second)
		return c.Stats.Timeouts
	}
	var withSACK, without uint64
	for seed := int64(1); seed <= 3; seed++ {
		withSACK += run(true, seed)
		without += run(false, seed)
	}
	if without < withSACK {
		t.Logf("timeouts with SACK=%d without=%d (informational)", withSACK, without)
	}
}

func TestCloseHandshake(t *testing.T) {
	h := newHarness(t, netsim.LinkConfig{Delay: time.Millisecond}, 1)
	var serverConn *Conn
	serverSawFIN := false
	h.server.Listen(80, func(c *Conn) {
		serverConn = c
		c.OnPeerFIN = func() {
			serverSawFIN = true
			c.Close() // close our side too
		}
	})
	clientClosed := false
	c := h.client.Connect(h.hs.Addr, 80, Config{})
	c.OnEstablished = func() {
		c.Send([]byte("bye"))
		c.Close()
	}
	c.OnClosed = func() { clientClosed = true }
	h.eng.Run(30 * time.Second)
	if !serverSawFIN {
		t.Fatal("server did not see FIN")
	}
	if serverConn.State() != StateClosed {
		t.Errorf("server state %v, want CLOSED", serverConn.State())
	}
	if !clientClosed {
		t.Errorf("client not fully closed: %v", c.State())
	}
	if h.client.Conns() != 0 || h.server.Conns() != 0 {
		t.Errorf("lingering conns: client=%d server=%d", h.client.Conns(), h.server.Conns())
	}
	checkPortCounts(t, h.client)
	checkPortCounts(t, h.server)
}

func TestOneWayCloseStillReceives(t *testing.T) {
	// Paper §2.1: one end can FIN and then keep receiving ("flexible
	// session teardown in each direction").
	h := newHarness(t, netsim.LinkConfig{Delay: time.Millisecond}, 1)
	response := make([]byte, 100<<10)
	h.server.Listen(80, func(s *Conn) {
		s.OnPeerFIN = func() {
			s.Send(response)
			s.Close()
		}
	})
	var got bytes.Buffer
	c := h.client.Connect(h.hs.Addr, 80, Config{})
	c.OnData = func(b []byte) { got.Write(b) }
	c.OnEstablished = func() {
		c.Send([]byte("request"))
		c.Close() // half-close: send nothing more
	}
	h.eng.Run(30 * time.Second)
	if got.Len() != len(response) {
		t.Fatalf("received %d of %d response bytes after half-close", got.Len(), len(response))
	}
}

func TestRSTOnConnectToClosedPort(t *testing.T) {
	h := newHarness(t, netsim.LinkConfig{Delay: time.Millisecond}, 1)
	reset := false
	c := h.client.Connect(h.hs.Addr, 4444, Config{})
	c.OnReset = func() { reset = true }
	h.eng.Run(time.Second)
	if !reset {
		t.Error("no RST for closed port")
	}
	if h.client.Conns() != 0 {
		t.Error("connection lingers after RST")
	}
	checkPortCounts(t, h.client)
	checkPortCounts(t, h.server)
}

func TestAbortSendsRST(t *testing.T) {
	h := newHarness(t, netsim.LinkConfig{Delay: time.Millisecond}, 1)
	var serverConn *Conn
	reset := false
	h.server.Listen(80, func(c *Conn) {
		serverConn = c
		c.OnReset = func() { reset = true }
	})
	c := h.client.Connect(h.hs.Addr, 80, Config{})
	c.OnEstablished = func() { c.Abort() }
	h.eng.Run(time.Second)
	if !reset {
		t.Error("peer did not observe RST")
	}
	_ = serverConn
	checkPortCounts(t, h.client)
	checkPortCounts(t, h.server)
}

func TestSYNRetransmission(t *testing.T) {
	h := newHarness(t, netsim.LinkConfig{Delay: time.Millisecond, LossProb: 1.0}, 1)
	c := h.client.Connect(h.hs.Addr, 80, Config{})
	h.eng.Run(5 * time.Second)
	if c.Stats.Timeouts < 2 {
		t.Errorf("SYN timeouts = %d, want ≥2 on black-holed link", c.Stats.Timeouts)
	}
}

func TestReorderingToleratedViaOOOQueue(t *testing.T) {
	// Two paths with very different delays cause reordering; all data must
	// still arrive intact (this is the Figure 14 stress in miniature).
	eng := sim.NewEngine(5)
	n := netsim.New(eng)
	hc := n.AddHost("c", packet.MakeAddr(10, 0, 0, 1))
	hs := n.AddHost("s", packet.MakeAddr(10, 0, 0, 2))
	n.Connect(hc, hs, netsim.LinkConfig{Delay: 2 * time.Millisecond, Bandwidth: netsim.Mbps(50)})
	n.ComputeRoutes()
	client := NewStack(hc)
	server := NewStack(hs)
	var got bytes.Buffer
	server.Listen(80, func(c *Conn) {
		c.OnData = func(b []byte) { got.Write(b) }
	})
	data := make([]byte, 300<<10)
	for i := range data {
		data[i] = byte(i >> 3)
	}
	c := client.Connect(hs.Addr, 80, Config{})
	c.OnEstablished = func() { c.Send(data) }
	eng.Run(60 * time.Second)
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatalf("reordered transfer corrupt: got %d bytes", got.Len())
	}
}

func TestCwndGrowsDuringSlowStart(t *testing.T) {
	h := newHarness(t, netsim.LinkConfig{Delay: 10 * time.Millisecond, Bandwidth: netsim.Gbps(1)}, 1)
	h.sinkServer(t, 80)
	c := h.client.Connect(h.hs.Addr, 80, Config{})
	initial := 0
	c.OnEstablished = func() {
		initial = c.Cwnd()
		c.Send(make([]byte, 1<<20))
	}
	h.eng.Run(2 * time.Second)
	if initial == 0 || c.Cwnd() <= initial {
		t.Errorf("cwnd did not grow: initial=%d now=%d", initial, c.Cwnd())
	}
}

func TestPAWSDropsStaleTimestamps(t *testing.T) {
	h := newHarness(t, netsim.LinkConfig{Delay: time.Millisecond}, 1)
	var sc *Conn
	h.server.Listen(80, func(c *Conn) { sc = c })
	c := h.client.Connect(h.hs.Addr, 80, Config{})
	c.OnEstablished = func() { c.Send([]byte("x")) }
	h.eng.Run(time.Second)
	if sc == nil {
		t.Fatal("not established")
	}
	// Inject a segment whose timestamp is far in the past.
	p := packet.NewTCP(c.Tuple(), packet.FlagACK, c.SndNxt(), sc.SndNxt(), []byte("stale"))
	p.Opts.TS = &packet.Timestamp{Val: c.TSNow() - 100000, Ecr: 0} // far in the client's past
	h.runFor(2 * time.Second)                                      // advance the clock so tsRecent-0 > 1000 ms
	c2 := packet.NewTCP(c.Tuple(), packet.FlagACK, c.SndNxt(), sc.SndNxt(), nil)
	c2.Opts.TS = &packet.Timestamp{Val: c.TSNow(), Ecr: 0} // client's clock
	h.hs.InjectLocal(c2)                                   // fresh timestamp: raises tsRecent
	h.runFor(100 * time.Millisecond)
	before := sc.Stats.PAWSDrops
	h.hs.InjectLocal(p)
	h.runFor(100 * time.Millisecond)
	if sc.Stats.PAWSDrops != before+1 {
		t.Errorf("PAWSDrops = %d, want %d", sc.Stats.PAWSDrops, before+1)
	}
}

func TestInvalidSACKBlocksDropPacket(t *testing.T) {
	// §4.2: untranslated SACK blocks are invalid for the session and the
	// receiver must discard the packet.
	h := newHarness(t, netsim.LinkConfig{Delay: time.Millisecond}, 1)
	h.sinkServer(t, 80)
	c := h.client.Connect(h.hs.Addr, 80, Config{})
	c.OnEstablished = func() { c.Send(make([]byte, 10000)) }
	h.eng.Run(time.Second)
	before := c.Stats.BadSACKDrops
	bogus := packet.NewTCP(c.Tuple().Reverse(), packet.FlagACK, 0, c.SndUna(), nil)
	bogus.Opts.SACK = []packet.SACKBlock{{Start: c.SndNxt() + 5000, End: c.SndNxt() + 6000}}
	bogus.Opts.TS = &packet.Timestamp{Val: h.accepted[0].TSNow()} // server's clock
	h.hc.InjectLocal(bogus)
	h.runFor(100 * time.Millisecond)
	if c.Stats.BadSACKDrops != before+1 {
		t.Errorf("BadSACKDrops = %d, want %d", c.Stats.BadSACKDrops, before+1)
	}
}

func TestManyParallelConnections(t *testing.T) {
	h := newHarness(t, netsim.LinkConfig{Delay: time.Millisecond, Bandwidth: netsim.Gbps(10)}, 1)
	total := 0
	h.server.Listen(80, func(c *Conn) {
		c.OnData = func(b []byte) { total += len(b) }
	})
	const conns = 50
	const per = 64 << 10
	for i := 0; i < conns; i++ {
		c := h.client.Connect(h.hs.Addr, 80, Config{})
		cc := c
		c.OnEstablished = func() { cc.Send(make([]byte, per)) }
	}
	h.eng.Run(30 * time.Second)
	if total != conns*per {
		t.Fatalf("total received %d, want %d", total, conns*per)
	}
	checkPortCounts(t, h.client)
	checkPortCounts(t, h.server)
}

func TestZeroWindowPersist(t *testing.T) {
	// Peer advertises zero window (via an injected ACK); sender must not
	// deadlock and must resume when the window reopens.
	h := newHarness(t, netsim.LinkConfig{Delay: time.Millisecond}, 1)
	var sc *Conn
	got := 0
	h.server.Listen(80, func(c *Conn) {
		sc = c
		c.OnData = func(b []byte) { got += len(b) }
	})
	c := h.client.Connect(h.hs.Addr, 80, Config{})
	h.eng.Run(time.Second)
	// Force the client to believe the window is zero.
	zw := packet.NewTCP(c.Tuple().Reverse(), packet.FlagACK, sc.SndNxt(), c.SndNxt(), nil)
	zw.Window = 0
	zw.Opts.TS = &packet.Timestamp{Val: sc.TSNow()} // server's clock
	h.hc.InjectLocal(zw)
	h.runFor(10 * time.Millisecond)
	c.Send(make([]byte, 5000))
	h.runFor(100 * time.Millisecond)
	if got != 0 {
		t.Fatalf("data sent despite zero window: %d", got)
	}
	// Window probe + real ACKs from the server reopen the window.
	h.runFor(10 * time.Second)
	if got != 5000 {
		t.Fatalf("transfer did not resume after zero window: got %d", got)
	}
}

func TestEphemeralPortsDistinct(t *testing.T) {
	h := newHarness(t, netsim.LinkConfig{}, 1)
	h.server.Listen(80, func(c *Conn) {})
	seen := map[packet.Port]bool{}
	for i := 0; i < 100; i++ {
		c := h.client.Connect(h.hs.Addr, 80, Config{})
		if seen[c.Tuple().SrcPort] {
			t.Fatalf("duplicate ephemeral port %d", c.Tuple().SrcPort)
		}
		seen[c.Tuple().SrcPort] = true
	}
}

// checkPortCounts: the per-port counts allocPort trusts must equal what a
// scan of the connection table (the old allocPort) would find.
func checkPortCounts(t *testing.T, s *Stack) {
	t.Helper()
	want := map[packet.Port]int{}
	for tuple := range s.conns {
		want[tuple.SrcPort]++
	}
	for p, n := range s.portConns {
		if n != want[p] {
			t.Errorf("%v: portConns[%d] = %d, %d live connection(s) use it", s, p, n, want[p])
		}
		delete(want, p)
	}
	for p, n := range want {
		t.Errorf("%v: %d live connection(s) on port %d are not counted", s, n, p)
	}
}

// TestEphemeralPortReuseAfterWrap: 70 000 connect/close cycles wrap the
// 32 768-port ephemeral range twice without running out, and a closed
// connection's port is handed out again exactly one wrap later.
func TestEphemeralPortReuseAfterWrap(t *testing.T) {
	h := newHarness(t, netsim.LinkConfig{}, 1)
	h.server.Listen(80, func(c *Conn) { c.OnReset = func() {} })
	const cycles, span = 70_000, 1 << 15
	var ports [cycles]packet.Port
	for i := range ports {
		c := h.client.Connect(h.hs.Addr, 80, Config{})
		ports[i] = c.Tuple().SrcPort
		if i%3 == 0 {
			h.runFor(time.Millisecond) // let some handshakes finish before the abort
		}
		c.Abort()
		if i >= span && ports[i] != ports[i-span] {
			t.Fatalf("cycle %d got port %d, want the port closed one wrap earlier (%d)", i, ports[i], ports[i-span])
		}
	}
	h.runFor(time.Second)
	if h.client.Conns() != 0 || h.server.Conns() != 0 {
		t.Errorf("connections left: client=%d server=%d", h.client.Conns(), h.server.Conns())
	}
	checkPortCounts(t, h.client)
	checkPortCounts(t, h.server)
}

// TestLivePortsSkippedAfterWrap: a port with a live connection is skipped
// when the counter comes round to it — including a listener's port in the
// ephemeral range while a connection accepted on it lives — and becomes
// available again once that connection is gone.
func TestLivePortsSkippedAfterWrap(t *testing.T) {
	h := newHarness(t, netsim.LinkConfig{}, 1)
	h.server.Listen(80, func(c *Conn) {})
	live := h.client.Connect(h.hs.Addr, 80, Config{})
	held := live.Tuple().SrcPort

	// The client also serves on an ephemeral-range port; the server dials in.
	svc := held + 1
	var accepted *Conn
	h.client.Listen(svc, func(c *Conn) { accepted = c })
	h.server.Connect(h.hc.Addr, svc, Config{})
	h.runFor(10 * time.Millisecond)
	if accepted == nil || live.State() != StateEstablished {
		t.Fatal("setup: connections not established")
	}

	h.client.nextPort = held // as after a wrap
	if p := h.client.Connect(h.hs.Addr, 80, Config{}).Tuple().SrcPort; p != svc+1 {
		t.Errorf("allocated port %d with %d and %d in use, want %d", p, held, svc, svc+1)
	}
	checkPortCounts(t, h.client)

	live.Abort()
	accepted.Abort()
	h.client.nextPort = held
	for _, want := range []packet.Port{held, svc} {
		if p := h.client.Connect(h.hs.Addr, 80, Config{}).Tuple().SrcPort; p != want {
			t.Errorf("allocated port %d after its connection closed, want %d", p, want)
		}
	}
	checkPortCounts(t, h.client)
	checkPortCounts(t, h.server)
}

func TestScoreboard(t *testing.T) {
	var sb sackScoreboard
	sb.merge([]packet.SACKBlock{{Start: 100, End: 200}, {Start: 300, End: 400}}, 50)
	if start, n := sb.firstHole(50, 400); start != 50 || n != 50 {
		t.Errorf("firstHole = %d,%d want 50,50", start, n)
	}
	sb.merge([]packet.SACKBlock{{Start: 50, End: 100}}, 50)
	if start, n := sb.firstHole(50, 400); start != 200 || n != 100 {
		t.Errorf("firstHole after fill = %d,%d want 200,100", start, n)
	}
	sb.trim(250)
	if sb.isSacked(240) {
		t.Error("range below una not trimmed")
	}
	if !sb.isSacked(350) {
		t.Error("lost a valid sacked range")
	}
	// Fully covered: no hole.
	sb.merge([]packet.SACKBlock{{Start: 250, End: 300}}, 250)
	if _, n := sb.firstHole(250, 400); n != 0 {
		t.Errorf("expected no hole, got len %d", n)
	}
}

func TestScoreboardMergeAdjacent(t *testing.T) {
	var sb sackScoreboard
	sb.merge([]packet.SACKBlock{{Start: 100, End: 200}}, 0)
	sb.merge([]packet.SACKBlock{{Start: 200, End: 300}}, 0)
	sb.merge([]packet.SACKBlock{{Start: 150, End: 250}}, 0)
	if len(sb.ranges) != 1 || sb.ranges[0] != (packet.SACKBlock{Start: 100, End: 300}) {
		t.Errorf("ranges = %v, want single [100,300)", sb.ranges)
	}
}

func TestStatsCounters(t *testing.T) {
	h := newHarness(t, netsim.LinkConfig{Delay: time.Millisecond}, 1)
	h.sinkServer(t, 80)
	c := h.client.Connect(h.hs.Addr, 80, Config{})
	c.OnEstablished = func() { c.Send(make([]byte, 10000)) }
	h.eng.Run(5 * time.Second)
	if c.Stats.BytesSent != 10000 {
		t.Errorf("BytesSent = %d", c.Stats.BytesSent)
	}
	if h.accepted[0].Stats.BytesRcvd != 10000 {
		t.Errorf("BytesRcvd = %d", h.accepted[0].Stats.BytesRcvd)
	}
	if h.server.Accepted != 1 || h.client.Connected != 1 {
		t.Errorf("stack counters: %d/%d", h.server.Accepted, h.client.Connected)
	}
}

func TestNagleCoalescesSmallWrites(t *testing.T) {
	h := newHarness(t, netsim.LinkConfig{Delay: 5 * time.Millisecond}, 9)
	var sc *Conn
	h.server.Listen(80, func(c *Conn) { sc = c })
	c := h.client.Connect(h.hs.Addr, 80, Config{})
	h.eng.Run(time.Second)
	segsBefore := c.Stats.SegsSent
	// 100 tiny writes in one instant: Nagle must coalesce all but the
	// first into few segments.
	for i := 0; i < 100; i++ {
		c.Send(make([]byte, 10))
	}
	h.runFor(time.Second)
	segs := c.Stats.SegsSent - segsBefore
	if sc.Stats.BytesRcvd != 1000 {
		t.Fatalf("received %d bytes", sc.Stats.BytesRcvd)
	}
	if segs > 5 {
		t.Errorf("Nagle off? %d segments for 100 tiny writes", segs)
	}
}

func TestTimeWaitReapsState(t *testing.T) {
	h := newHarness(t, netsim.LinkConfig{Delay: time.Millisecond}, 11)
	h.server.Listen(80, func(c *Conn) {
		c.OnPeerFIN = func() { c.Close() }
	})
	c := h.client.Connect(h.hs.Addr, 80, Config{})
	c.OnEstablished = func() { c.Close() }
	h.eng.Run(30 * time.Second)
	if h.client.Conns() != 0 || h.server.Conns() != 0 {
		t.Fatalf("TIME-WAIT never reaped: client=%d server=%d", h.client.Conns(), h.server.Conns())
	}
	checkPortCounts(t, h.client)
	checkPortCounts(t, h.server)
}
