package mbox_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/mbox"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcp"
)

const lanLink = 200 * time.Microsecond

func fastLink() netsim.LinkConfig {
	return netsim.LinkConfig{Delay: lanLink, Bandwidth: netsim.Gbps(10)}
}

func TestMonitorCountsBothDirections(t *testing.T) {
	env := lab.NewEnv(1)
	client := env.AddNode("client", lab.HostOptions{Link: fastLink(), Stack: true, Agent: true})
	mon := mbox.NewMonitor()
	mb := env.AddNode("mon", lab.HostOptions{Link: fastLink(), App: mon})
	server := env.AddNode("server", lab.HostOptions{Link: fastLink(), Stack: true, Agent: true})
	env.Net.ComputeRoutes()
	env.ChainPolicy(client, 80, mb)

	var echoed bytes.Buffer
	server.Stack.Listen(80, func(c *tcp.Conn) {
		c.OnData = func(b []byte) {
			echoed.Write(b)
			c.Send(b) // echo back
		}
	})
	c := client.Stack.Connect(server.Addr(), 80, tcp.Config{})
	c.OnEstablished = func() { c.Send(make([]byte, 10000)) }
	env.RunFor(5 * time.Second)

	if echoed.Len() != 10000 {
		t.Fatalf("echoed %d bytes", echoed.Len())
	}
	if len(mon.Sessions) != 1 {
		t.Fatalf("monitor tracks %d sessions, want 1", len(mon.Sessions))
	}
	for _, e := range mon.Sessions {
		if e.Bytes < 20000 {
			t.Errorf("monitor saw %d bytes, want ≥ 20000 (both directions)", e.Bytes)
		}
		if e.SYNs != 1 {
			t.Errorf("monitor saw %d SYNs", e.SYNs)
		}
	}
}

func TestScrubberDropsSignatures(t *testing.T) {
	env := lab.NewEnv(2)
	client := env.AddNode("client", lab.HostOptions{Link: fastLink(), Stack: true, Agent: true})
	sc := &mbox.Scrubber{Signatures: [][]byte{[]byte("EVIL")}}
	mb := env.AddNode("scrub", lab.HostOptions{Link: fastLink(), App: sc})
	server := env.AddNode("server", lab.HostOptions{Link: fastLink(), Stack: true, Agent: true})
	env.Net.ComputeRoutes()
	env.ChainPolicy(client, 80, mb)

	var got bytes.Buffer
	server.Stack.Listen(80, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { got.Write(b) }
	})
	c := client.Stack.Connect(server.Addr(), 80, tcp.Config{})
	c.OnEstablished = func() { c.Send([]byte("hello EVIL world")) }
	env.RunFor(200 * time.Millisecond)
	if got.Len() != 0 {
		t.Fatalf("malicious payload delivered: %q", got.String())
	}
	if sc.Dropped == 0 {
		t.Error("scrubber dropped nothing")
	}
	// Clean traffic passes (new connection).
	c2 := client.Stack.Connect(server.Addr(), 80, tcp.Config{})
	c2.OnEstablished = func() { c2.Send([]byte("all good here")) }
	env.RunFor(2 * time.Second)
	if !bytes.Contains(got.Bytes(), []byte("all good here")) {
		t.Error("clean payload not delivered")
	}
}

func TestRateLimiterShapesGoodput(t *testing.T) {
	env := lab.NewEnv(3)
	client := env.AddNode("client", lab.HostOptions{Link: fastLink(), Stack: true, Agent: true})
	rl := mbox.NewRateLimiter(env.Eng, 1e6, 64<<10) // 1 MB/s
	mb := env.AddNode("tc", lab.HostOptions{Link: fastLink(), App: rl})
	rl.Emit = func(p *packet.Packet) { mb.Host.Send(p) }
	server := env.AddNode("server", lab.HostOptions{Link: fastLink(), Stack: true, Agent: true})
	env.Net.ComputeRoutes()
	env.ChainPolicy(client, 80, mb)

	got := 0
	server.Stack.Listen(80, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { got += len(b) }
	})
	c := client.Stack.Connect(server.Addr(), 80, tcp.Config{})
	c.OnEstablished = func() { c.Send(make([]byte, 20<<20)) }
	env.RunFor(5 * time.Second)
	rate := float64(got) / 5
	if rate > 1.4e6 {
		t.Errorf("rate %.0f B/s exceeds the 1 MB/s policer", rate)
	}
	if rate < 0.3e6 {
		t.Errorf("rate %.0f B/s implausibly low (policer too harsh?)", rate)
	}
	if rl.Queued == 0 {
		t.Error("shaper queued nothing at 20x oversubscription")
	}
}

func TestNATTranslatesAndDysocChainsAcrossIt(t *testing.T) {
	env := lab.NewEnv(4)
	client := env.AddNode("client", lab.HostOptions{Link: fastLink(), Stack: true, Agent: true})
	nat := mbox.NewNAT(packet.MakeAddr(198, 51, 100, 7))
	mb := env.AddNode("nat", lab.HostOptions{Link: fastLink(), App: nat})
	server := env.AddNode("server", lab.HostOptions{Link: fastLink(), Stack: true, Agent: true})
	env.Net.ComputeRoutes()
	env.ChainPolicy(client, 80, mb)

	var serverSide *tcp.Conn
	var got bytes.Buffer
	server.Stack.Listen(80, func(c *tcp.Conn) {
		serverSide = c
		c.OnData = func(b []byte) { got.Write(b) }
	})
	c := client.Stack.Connect(server.Addr(), 80, tcp.Config{})
	c.OnEstablished = func() { c.Send([]byte("via nat")) }
	env.RunFor(2 * time.Second)
	if got.String() != "via nat" {
		t.Fatalf("got %q", got.String())
	}
	if serverSide.Tuple().DstIP != nat.Public {
		t.Errorf("server sees %v, want NAT public address", serverSide.Tuple().DstIP)
	}
	if nat.Translations != 1 {
		t.Errorf("NAT translations = %d", nat.Translations)
	}
}

func TestFirewallBlocksUntrackedMidStream(t *testing.T) {
	env := lab.NewEnv(5)
	eng := env.Eng
	fw := mbox.NewFirewall(eng, mbox.FirewallRule{DstPort: 80})
	// Unknown mid-stream packet is dropped.
	mid := packet.NewTCP(packet.FiveTuple{
		SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 80,
	}, packet.FlagACK, 100, 200, []byte("x"))
	if out := fw.Process(mid, netsim.Ingress); out != nil {
		t.Error("firewall passed untracked mid-stream packet")
	}
	// Allowed SYN creates state; follow-ups pass.
	syn := packet.NewTCP(mid.Tuple, packet.FlagSYN, 99, 0, nil)
	if out := fw.Process(syn, netsim.Ingress); out == nil {
		t.Fatal("firewall dropped allowed SYN")
	}
	if out := fw.Process(mid, netsim.Ingress); out == nil {
		t.Error("firewall dropped packet of tracked session")
	}
	// Disallowed SYN dropped.
	bad := packet.NewTCP(packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 23}, packet.FlagSYN, 1, 0, nil)
	if out := fw.Process(bad, netsim.Ingress); out != nil {
		t.Error("firewall passed disallowed SYN")
	}
	if fw.Tracked() != 1 {
		t.Errorf("tracked = %d", fw.Tracked())
	}
}

func TestFirewallStateExportImport(t *testing.T) {
	env := lab.NewEnv(6)
	fw1 := mbox.NewFirewall(env.Eng, mbox.FirewallRule{DstPort: 80})
	fw2 := mbox.NewFirewall(env.Eng, mbox.FirewallRule{DstPort: 80})
	tup := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 80, Proto: packet.ProtoTCP}
	fw1.Process(packet.NewTCP(tup, packet.FlagSYN, 1, 0, nil), netsim.Ingress)

	state, err := fw1.ExportState(tup)
	if err != nil {
		t.Fatalf("ExportState: %v", err)
	}
	if err := fw2.ImportState(state); err != nil {
		t.Fatalf("ImportState: %v", err)
	}
	// fw2 now passes mid-stream packets of the migrated session.
	mid := packet.NewTCP(tup, packet.FlagACK, 5, 6, []byte("x"))
	if out := fw2.Process(mid, netsim.Ingress); out == nil {
		t.Error("fw2 blocked migrated session")
	}
	if fw2.Imported != 1 {
		t.Errorf("Imported = %d", fw2.Imported)
	}
	if _, err := fw1.ExportState(packet.FiveTuple{SrcIP: 9}); err == nil {
		t.Error("ExportState of unknown session did not error")
	}
}

func TestPadderShiftsStreamAndReportsDelta(t *testing.T) {
	env := lab.NewEnv(7)
	client := env.AddNode("client", lab.HostOptions{Link: fastLink(), Stack: true, Agent: true})
	pad := mbox.NewPadder([]byte("AD:"))
	mb := env.AddNode("pad", lab.HostOptions{Link: fastLink(), App: pad})
	pad.Report = func(sess packet.FiveTuple, d core.Deltas) {
		mb.Agent.ReportDelta(sess, d)
	}
	server := env.AddNode("server", lab.HostOptions{Link: fastLink(), Stack: true, Agent: true})
	env.Net.ComputeRoutes()
	env.ChainPolicy(client, 80, mb)

	var got bytes.Buffer
	server.Stack.Listen(80, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { got.Write(b) }
	})
	c := client.Stack.Connect(server.Addr(), 80, tcp.Config{})
	part1 := bytes.Repeat([]byte("a"), 4000)
	c.OnEstablished = func() { c.Send(part1) }
	env.RunFor(time.Second)
	want := append([]byte("AD:"), part1...)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("padded stream mismatch: got %d bytes, want %d", got.Len(), len(want))
	}

	// Now DELETE the padder mid-session: its +3 byte delta must transfer
	// to the anchors so the rest of the stream still lines up (§3.4).
	done := false
	client.Agent.OnReconfigDone = func(_ packet.FiveTuple, ok bool, d sim.Time) { done = ok }
	err := client.Agent.StartReconfig(c.Tuple(), core.ReconfigOptions{
		RightAnchor: server.Addr(),
	})
	if err != nil {
		t.Fatalf("StartReconfig: %v", err)
	}
	env.RunFor(5 * time.Second)
	if !done {
		t.Fatal("padder deletion did not complete")
	}
	part2 := bytes.Repeat([]byte("b"), 4000)
	c.Send(part2)
	env.RunFor(5 * time.Second)
	want = append(want, part2...)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("stream misaligned after padder deletion: got %d bytes want %d (first diff at %d)",
			got.Len(), len(want), firstDiff(got.Bytes(), want))
	}
	if pad.Insertions != 1 {
		t.Errorf("insertions = %d", pad.Insertions)
	}
}

// TestPadderBannerSurvivesLoss: the banner belongs to the stream's first
// bytes, not to one packet, so when the first banner-carrying segment is
// lost after the padder, the endpoint's retransmission carries the banner
// again and the server's stream has no hole.
func TestPadderBannerSurvivesLoss(t *testing.T) {
	env := lab.NewEnv(8)
	client := env.AddNode("client", lab.HostOptions{Link: fastLink(), Stack: true, Agent: true})
	banner := []byte("AD:")
	pad := mbox.NewPadder(banner)
	mb := env.AddNode("pad", lab.HostOptions{Link: fastLink(), App: pad})
	server := env.AddNode("server", lab.HostOptions{Link: fastLink(), Stack: true, Agent: true})
	env.Net.ComputeRoutes()
	env.ChainPolicy(client, 80, mb)
	dropped := 0
	mb.Host.AddEgressHook(func(p *packet.Packet, dir netsim.Direction) netsim.Verdict {
		if dropped == 0 && p.IsTCP() && bytes.HasPrefix(p.Payload, banner) {
			dropped++
			return netsim.Drop
		}
		return netsim.Pass
	})

	var got bytes.Buffer
	server.Stack.Listen(80, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { got.Write(b) }
	})
	c := client.Stack.Connect(server.Addr(), 80, tcp.Config{})
	data := bytes.Repeat([]byte("a"), 4000)
	c.OnEstablished = func() { c.Send(data) }
	env.RunFor(5 * time.Second)
	if dropped != 1 {
		t.Fatalf("dropped %d banner-carrying segments, want 1", dropped)
	}
	if want := append(append([]byte(nil), banner...), data...); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("server stream: got %d bytes, want %d (first diff at %d)",
			got.Len(), len(want), firstDiff(got.Bytes(), want))
	}
	if pad.Insertions != 1 {
		t.Errorf("insertions = %d, want 1 per session", pad.Insertions)
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// proxyEnv builds client — proxy — server where the proxy terminates TCP.
type proxyEnv struct {
	env     *lab.Env
	client  *lab.Node
	proxyN  *lab.Node
	server  *lab.Node
	proxy   *mbox.Proxy
	recvBuf bytes.Buffer
	srvConn *tcp.Conn
}

func newProxyEnv(t *testing.T, seed int64, link netsim.LinkConfig) *proxyEnv {
	t.Helper()
	env := lab.NewEnv(seed)
	pe := &proxyEnv{env: env}
	pe.client = env.AddNode("client", lab.HostOptions{Link: link, Stack: true, Agent: true})
	pe.proxyN = env.AddNode("proxy", lab.HostOptions{Link: link, Stack: true, Agent: true})
	pe.server = env.AddNode("server", lab.HostOptions{Link: link, Stack: true, Agent: true})
	env.Net.ComputeRoutes()
	env.ChainPolicy(pe.client, 80, pe.proxyN)
	pe.proxy = mbox.NewProxy(pe.proxyN.Stack, pe.proxyN.Agent, 80,
		func(*tcp.Conn) (packet.Addr, packet.Port) { return pe.server.Addr(), 80 })
	pe.server.Stack.Listen(80, func(c *tcp.Conn) {
		pe.srvConn = c
		c.OnData = func(b []byte) { pe.recvBuf.Write(b) }
	})
	return pe
}

func TestProxyRelaysWithoutSplice(t *testing.T) {
	pe := newProxyEnv(t, 8, fastLink())
	c := pe.client.Stack.Connect(pe.server.Addr(), 80, tcp.Config{})
	data := make([]byte, 200<<10)
	for i := range data {
		data[i] = byte(i * 31)
	}
	c.OnEstablished = func() { c.Send(data) }
	pe.env.RunFor(10 * time.Second)
	if !bytes.Equal(pe.recvBuf.Bytes(), data) {
		t.Fatalf("proxied stream mismatch: %d bytes", pe.recvBuf.Len())
	}
	if pe.proxy.Accepted != 1 {
		t.Errorf("accepted = %d", pe.proxy.Accepted)
	}
	// The server sees the proxy's session, not the client's.
	if pe.srvConn.Tuple().DstIP != pe.proxyN.Addr() {
		t.Errorf("server peer = %v, want proxy", pe.srvConn.Tuple().DstIP)
	}
}

func TestProxySpliceRemovalMidTransfer(t *testing.T) {
	pe := newProxyEnv(t, 9, fastLink())
	pe.proxy.AutoSpliceAfter = 50 << 10 // splice after 50 KB relayed
	c := pe.client.Stack.Connect(pe.server.Addr(), 80, tcp.Config{})
	data := make([]byte, 2<<20)
	for i := range data {
		data[i] = byte(i * 7)
	}
	var echoed bytes.Buffer
	c.OnData = func(b []byte) { echoed.Write(b) }
	c.OnEstablished = func() { c.Send(data) }
	reconfigOK := false
	pe.client.Agent.OnReconfigDone = func(sess packet.FiveTuple, ok bool, took sim.Time) {
		reconfigOK = ok
		if took > 200*time.Millisecond {
			t.Errorf("reconfig took %v", took)
		}
	}
	pe.env.RunFor(30 * time.Second)

	if !bytes.Equal(pe.recvBuf.Bytes(), data) {
		t.Fatalf("stream corrupted by proxy removal: got %d want %d (first diff %d)",
			pe.recvBuf.Len(), len(data), firstDiff(pe.recvBuf.Bytes(), data))
	}
	if pe.proxy.Spliced != 1 {
		t.Fatalf("spliced = %d", pe.proxy.Spliced)
	}
	if !reconfigOK {
		t.Fatal("reconfiguration did not succeed")
	}
	// After removal, traffic bypasses the proxy host entirely.
	before := pe.proxyN.Host.Stats.PacketsIn
	extra := make([]byte, 200<<10)
	c.Send(extra)
	pe.env.RunFor(10 * time.Second)
	if pe.proxyN.Host.Stats.PacketsIn != before {
		t.Errorf("proxy host still receives packets after removal (%d → %d)",
			before, pe.proxyN.Host.Stats.PacketsIn)
	}
	if pe.recvBuf.Len() != len(data)+len(extra) {
		t.Fatalf("post-removal data lost: %d of %d", pe.recvBuf.Len(), len(data)+len(extra))
	}
	// Reverse direction after removal: server → client must translate
	// sequence numbers at the client-side anchor.
	resp := make([]byte, 100<<10)
	pe.srvConn.Send(resp)
	pe.env.RunFor(10 * time.Second)
	if echoed.Len() != len(resp) {
		t.Fatalf("reverse stream after removal: got %d want %d", echoed.Len(), len(resp))
	}
	// The proxy's connections were silently detached.
	if pe.proxyN.Stack.Conns() != 0 {
		t.Errorf("proxy stack retains %d conns", pe.proxyN.Stack.Conns())
	}
	if n := pe.proxyN.Agent.Sessions(); n != 0 {
		t.Errorf("proxy agent retains %d sessions", n)
	}
}

// dropFirstBackendSYN loses the proxy's first SYN to the server, so the
// backend connection stays in SYN-SENT for one retransmission timeout
// while the client streams into the proxy.
func dropFirstBackendSYN(pe *proxyEnv) {
	dropped := false
	pe.proxyN.Host.AddEgressHook(func(p *packet.Packet, _ netsim.Direction) netsim.Verdict {
		if !dropped && p.Flags == packet.FlagSYN && p.Tuple.DstIP == pe.server.Addr() {
			dropped = true
			return netsim.Drop
		}
		return netsim.Pass
	})
}

// TestProxySpliceWaitsForLateBackend: the splice point passes while the
// backend handshake is still in flight. The request is kept and carried
// out when the backend comes up, although no relay follows.
func TestProxySpliceWaitsForLateBackend(t *testing.T) {
	pe := newProxyEnv(t, 9, fastLink())
	pe.proxy.AutoSpliceAfter = 50 << 10
	dropFirstBackendSYN(pe)
	data := make([]byte, 200<<10)
	for i := range data {
		data[i] = byte(i * 7)
	}
	c := pe.client.Stack.Connect(pe.server.Addr(), 80, tcp.Config{})
	c.OnEstablished = func() { c.Send(data) }
	reconfigOK := false
	pe.client.Agent.OnReconfigDone = func(_ packet.FiveTuple, ok bool, _ sim.Time) { reconfigOK = ok }
	pe.env.RunFor(10 * time.Second)
	if !bytes.Equal(pe.recvBuf.Bytes(), data) {
		t.Fatalf("stream mismatch: %d of %d bytes (first diff %d)", pe.recvBuf.Len(), len(data), firstDiff(pe.recvBuf.Bytes(), data))
	}
	if pe.proxy.Spliced != 1 || !reconfigOK {
		t.Fatalf("spliced=%d reconfig ok=%v, want 1 and true", pe.proxy.Spliced, reconfigOK)
	}
}

// TestProxyHalfClosedBeforeBackendIsNotSpliced: a client that sends its
// whole stream and half-closes before the backend is up is relayed to the
// end, FIN included, and never spliced, although the splice point passed.
func TestProxyHalfClosedBeforeBackendIsNotSpliced(t *testing.T) {
	pe := newProxyEnv(t, 9, fastLink())
	pe.proxy.AutoSpliceAfter = 16 << 10
	dropFirstBackendSYN(pe)
	data := bytes.Repeat([]byte("half-closed "), 4<<10)
	finAtServer := false
	pe.server.Stack.Listen(80, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { pe.recvBuf.Write(b) }
		c.OnPeerFIN = func() { finAtServer = true }
	})
	c := pe.client.Stack.Connect(pe.server.Addr(), 80, tcp.Config{})
	c.OnEstablished = func() {
		c.Send(data)
		c.Close()
	}
	pe.client.Agent.OnReconfigDone = func(packet.FiveTuple, bool, sim.Time) { t.Error("a half-closed session was reconfigured") }
	pe.env.RunFor(10 * time.Second)
	if pair := pe.proxy.Pairs()[0]; pair.Client.State() != tcp.StateCloseWait {
		t.Fatalf("the client was not half-closed at the proxy (%v)", pair.Client.State())
	}
	if !bytes.Equal(pe.recvBuf.Bytes(), data) || !finAtServer {
		t.Fatalf("server got %d of %d bytes, FIN=%v", pe.recvBuf.Len(), len(data), finAtServer)
	}
	if pe.proxy.Spliced != 0 {
		t.Fatalf("spliced = %d, want 0", pe.proxy.Spliced)
	}
}

// TestSplicedHopOutlivesOldPathStragglers: the deleted proxy keeps its
// spliced connections until the old path is quiet. A pure ACK the server
// sends on the old sub-session 100 ms after both oldPathFINs have passed
// (a straggler behind a deep queue) must reach the proxy's connection,
// not draw a RST that would reset the server's session. Once the hop has
// been quiet for a second it forgets both records and both connections,
// with no idle GC running.
func TestSplicedHopOutlivesOldPathStragglers(t *testing.T) {
	pe := newProxyEnv(t, 9, fastLink())
	pe.proxy.AutoSpliceAfter = 50 << 10
	c := pe.client.Stack.Connect(pe.server.Addr(), 80, tcp.Config{})
	c.OnEstablished = func() { c.Send(make([]byte, 1<<20)) }
	var rsts uint64
	injected := false
	inject := func() {
		srv := pe.proxy.Pairs()[0].Server
		rsts = pe.proxyN.Stack.RSTsSent
		pe.proxyN.Host.InjectLocal(packet.NewTCP(srv.Tuple().Reverse(), packet.FlagACK, srv.RcvNxt(), srv.SndNxt(), nil))
		injected = true
	}
	done := 0
	onDone := func(_ packet.FiveTuple, ok bool, _ sim.Time) {
		if !ok {
			t.Error("reconfiguration failed")
		}
		// Each anchor finalizes on the other's oldPathFIN: both have
		// crossed the proxy.
		if done++; done == 2 {
			pe.env.Eng.Schedule(100*time.Millisecond, inject)
		}
	}
	pe.client.Agent.OnReconfigDone = onDone
	pe.server.Agent.OnReconfigDone = onDone
	pe.env.RunFor(5 * time.Second)
	if !injected {
		t.Fatal("the anchors never both finalized")
	}
	if got := pe.proxyN.Stack.RSTsSent; got != rsts {
		t.Errorf("proxy answered an old-path straggler with %d RST(s)", got-rsts)
	}
	if n := pe.proxyN.Agent.Sessions(); n != 0 {
		t.Errorf("proxy agent retains %d sessions", n)
	}
	if n := pe.proxyN.Stack.Conns(); n != 0 {
		t.Errorf("proxy stack retains %d conns", n)
	}
}

func TestProxyRemovalSACKTranslationUnderLoss(t *testing.T) {
	// After proxy removal the path is lossy; SACK blocks must be
	// translated at the anchors or the peers discard the packets (§4.2).
	link := netsim.LinkConfig{Delay: 2 * time.Millisecond, Bandwidth: netsim.Mbps(100)}
	pe := newProxyEnv(t, 10, link)
	pe.proxy.AutoSpliceAfter = 20 << 10
	c := pe.client.Stack.Connect(pe.server.Addr(), 80, tcp.Config{})
	data := make([]byte, 1<<20)
	c.OnEstablished = func() { c.Send(data) }
	pe.env.RunFor(5 * time.Second) // removal done, some data through

	// Make the client↔router link lossy now.
	pe.client.Host.LinkTo(pe.env.Router.Addr).SetLoss(0.02)
	pe.env.RunFor(120 * time.Second)
	if pe.recvBuf.Len() != len(data) {
		t.Fatalf("transfer incomplete under loss after removal: %d of %d (sack drops: %d, paws drops: %d)",
			pe.recvBuf.Len(), len(data), pe.srvConn.Stats.BadSACKDrops, pe.srvConn.Stats.PAWSDrops)
	}
	if pe.srvConn.Stats.BadSACKDrops != 0 {
		t.Errorf("server dropped %d packets with untranslated SACK blocks", pe.srvConn.Stats.BadSACKDrops)
	}
	if pe.srvConn.Stats.PAWSDrops != 0 {
		t.Errorf("server dropped %d packets with untranslated timestamps", pe.srvConn.Stats.PAWSDrops)
	}
}

func TestFirewallReplacementWithStateTransfer(t *testing.T) {
	// Figure 15: replace FW1 with FW2 mid-session; the conntrack state
	// migrates so FW2 does not block the session.
	env := lab.NewEnv(11)
	client := env.AddNode("client", lab.HostOptions{Link: fastLink(), Stack: true, Agent: true})
	fw1 := mbox.NewFirewall(env.Eng, mbox.FirewallRule{DstPort: 80})
	fw2 := mbox.NewFirewall(env.Eng, mbox.FirewallRule{DstPort: 80})
	m1 := env.AddNode("fw1", lab.HostOptions{Link: fastLink(), App: fw1})
	m2 := env.AddNode("fw2", lab.HostOptions{Link: fastLink(), App: fw2})
	server := env.AddNode("server", lab.HostOptions{Link: fastLink(), Stack: true, Agent: true})
	env.Net.ComputeRoutes()
	env.ChainPolicy(client, 80, m1)

	var got bytes.Buffer
	server.Stack.Listen(80, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { got.Write(b) }
	})
	c := client.Stack.Connect(server.Addr(), 80, tcp.Config{})
	data := make([]byte, 500<<10)
	c.OnEstablished = func() { c.Send(data) }
	env.RunFor(20 * time.Millisecond)

	done := false
	client.Agent.OnReconfigDone = func(_ packet.FiveTuple, ok bool, d sim.Time) { done = ok }
	err := client.Agent.StartReconfig(c.Tuple(), core.ReconfigOptions{
		RightAnchor:    server.Addr(),
		NewMiddleboxes: []packet.Addr{m2.Addr()},
		StateFrom:      m1.Addr(),
		StateTo:        m2.Addr(),
	})
	if err != nil {
		t.Fatalf("StartReconfig: %v", err)
	}
	env.RunFor(30 * time.Second)
	if !done {
		t.Fatal("replacement did not complete")
	}
	if got.Len() != len(data) {
		t.Fatalf("data lost during replacement: %d of %d", got.Len(), len(data))
	}
	if fw2.Imported != 1 {
		t.Errorf("fw2 imported %d states, want 1", fw2.Imported)
	}
	// Packets after replacement flow through fw2 and are NOT dropped.
	droppedBefore := fw2.Dropped
	c.Send(make([]byte, 50<<10))
	env.RunFor(5 * time.Second)
	if fw2.Dropped != droppedBefore {
		t.Errorf("fw2 dropped %d packets of the migrated session", fw2.Dropped-droppedBefore)
	}
	if got.Len() != len(data)+50<<10 {
		t.Errorf("post-replacement data lost: %d", got.Len())
	}
	if fw2.Passed == 0 {
		t.Error("fw2 saw no traffic after replacement")
	}
}

// TestProxyRemovalBehindMonitor splices a proxy out of a chain that also
// contains a passive monitor. Per §3.1 the proxy triggers its LEFT
// neighbor — the monitor's agent — which anchors the reconfiguration: the
// proxy leaves the path, the monitor stays, and the anchors apply the
// proxy's deltas across the monitor hop.
func TestProxyRemovalBehindMonitor(t *testing.T) {
	env := lab.NewEnv(31)
	link := fastLink()
	client := env.AddNode("client", lab.HostOptions{Link: link, Stack: true, Agent: true})
	mon := mbox.NewMonitor()
	monN := env.AddNode("mon", lab.HostOptions{Link: link, App: mon})
	proxyN := env.AddNode("proxy", lab.HostOptions{Link: link, Stack: true, Agent: true})
	server := env.AddNode("server", lab.HostOptions{Link: link, Stack: true, Agent: true})
	env.Net.ComputeRoutes()
	// Chain: client → monitor → proxy; the proxy then talks to the server.
	env.ChainPolicy(client, 80, monN, proxyN)
	proxy := mbox.NewProxy(proxyN.Stack, proxyN.Agent, 80,
		func(c *tcp.Conn) (packet.Addr, packet.Port) { return c.Tuple().SrcIP, 80 })
	proxy.AutoSpliceAfter = 32 << 10

	var got bytes.Buffer
	server.Stack.Listen(80, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { got.Write(b) }
	})
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i * 5)
	}
	c := client.Stack.Connect(server.Addr(), 80, tcp.Config{})
	c.OnEstablished = func() { c.Send(data) }
	ok := false
	monN.Agent.OnReconfigDone = func(s packet.FiveTuple, o bool, d sim.Time) { ok = o }
	env.RunFor(20 * time.Second)

	if !bytes.Equal(got.Bytes(), data) {
		t.Fatalf("stream corrupted: %d of %d", got.Len(), len(data))
	}
	if !ok {
		t.Fatal("proxy removal (anchored at the monitor) did not complete")
	}
	// The proxy is off the path; the monitor remains in the chain.
	monBefore := monPackets(mon)
	proxyBefore := proxyN.Host.Stats.PacketsIn
	c.Send(make([]byte, 64<<10))
	env.RunFor(5 * time.Second)
	if got.Len() != len(data)+64<<10 {
		t.Fatalf("post-removal data lost: %d", got.Len())
	}
	if monPackets(mon) == monBefore {
		t.Error("monitor no longer sees packets; it should remain in the chain")
	}
	if proxyN.Host.Stats.PacketsIn != proxyBefore {
		t.Error("proxy host still receives packets")
	}
	if proxyN.Agent.Sessions() != 0 {
		t.Errorf("proxy retains %d sessions", proxyN.Agent.Sessions())
	}
}

func monPackets(m *mbox.Monitor) uint64 {
	var n uint64
	for _, e := range m.Sessions {
		n += e.Packets
	}
	return n
}

func TestPadderLeavesReverseStreamAlone(t *testing.T) {
	// The padder shifts only the rightward stream; server→client data
	// must pass through untouched.
	env := lab.NewEnv(33)
	client := env.AddNode("client", lab.HostOptions{Link: fastLink(), Stack: true, Agent: true})
	pad := mbox.NewPadder([]byte("XX"))
	mb := env.AddNode("pad", lab.HostOptions{Link: fastLink(), App: pad})
	server := env.AddNode("server", lab.HostOptions{Link: fastLink(), Stack: true, Agent: true})
	env.Net.ComputeRoutes()
	env.ChainPolicy(client, 80, mb)

	var fromServer bytes.Buffer
	var srv *tcp.Conn
	server.Stack.Listen(80, func(c *tcp.Conn) { srv = c })
	c := client.Stack.Connect(server.Addr(), 80, tcp.Config{})
	c.OnData = func(b []byte) { fromServer.Write(b) }
	c.OnEstablished = func() { c.Send([]byte("hi")) }
	env.RunFor(time.Second)
	resp := bytes.Repeat([]byte("r"), 20000)
	srv.Send(resp)
	env.RunFor(2 * time.Second)
	if !bytes.Equal(fromServer.Bytes(), resp) {
		t.Fatalf("reverse stream altered: %d of %d", fromServer.Len(), len(resp))
	}
}

func TestProxyAbortPropagates(t *testing.T) {
	// A client RST tears down the backend connection through the proxy.
	pe := newProxyEnv(t, 35, fastLink())
	c := pe.client.Stack.Connect(pe.server.Addr(), 80, tcp.Config{})
	c.OnEstablished = func() { c.Send([]byte("x")) }
	pe.env.RunFor(time.Second)
	if pe.proxyN.Stack.Conns() != 2 {
		t.Fatalf("proxy conns = %d", pe.proxyN.Stack.Conns())
	}
	c.Abort()
	pe.env.RunFor(2 * time.Second)
	if pe.proxyN.Stack.Conns() != 0 {
		t.Errorf("proxy retains %d conns after client RST", pe.proxyN.Stack.Conns())
	}
}

// TestForwarderReusesItsResult: the null middlebox hands each packet back in
// its own one-element scratch slice (core.App lets the result be consumed
// before the next call), so forwarding allocates nothing.
func TestForwarderReusesItsResult(t *testing.T) {
	var fw mbox.Forwarder
	p := packet.NewTCP(packet.FiveTuple{Proto: packet.ProtoTCP}, packet.FlagACK, 1, 1, nil)
	allocs := testing.AllocsPerRun(100, func() {
		if out := fw.Process(p, netsim.Ingress); len(out) != 1 || out[0] != p {
			t.Fatalf("Process returned %v, want the packet itself", out)
		}
	})
	if allocs != 0 || fw.Packets != 101 {
		t.Errorf("Process = %v allocs over %d packets, want 0 over 101", allocs, fw.Packets)
	}
}
