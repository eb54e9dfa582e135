package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// counterApp is a pass-through packet middlebox that counts what it sees.
type counterApp struct {
	packets int
	bytes   int
	syns    int
	headers map[packet.FiveTuple]bool
}

func newCounterApp() *counterApp {
	return &counterApp{headers: make(map[packet.FiveTuple]bool)}
}

func (m *counterApp) Process(p *packet.Packet, dir netsim.Direction) []*packet.Packet {
	m.packets++
	m.bytes += p.DataLen()
	if p.Flags.Has(packet.FlagSYN) && !p.Flags.Has(packet.FlagACK) {
		m.syns++
	}
	m.headers[p.Tuple] = true
	return []*packet.Packet{p}
}

// natApp rewrites the source of rightward packets (five-tuple modifier).
type natApp struct {
	pub      packet.Addr
	forward  map[packet.FiveTuple]packet.FiveTuple
	backward map[packet.FiveTuple]packet.FiveTuple
	nextPort packet.Port
	seen     int
}

func newNATApp(pub packet.Addr) *natApp {
	return &natApp{
		pub:      pub,
		forward:  make(map[packet.FiveTuple]packet.FiveTuple),
		backward: make(map[packet.FiveTuple]packet.FiveTuple),
		nextPort: 20000,
	}
}

func (m *natApp) Process(p *packet.Packet, dir netsim.Direction) []*packet.Packet {
	m.seen++
	if t, ok := m.forward[p.Tuple]; ok {
		p.RewriteTuple(t)
		return []*packet.Packet{p}
	}
	if t, ok := m.backward[p.Tuple]; ok {
		p.RewriteTuple(t)
		return []*packet.Packet{p}
	}
	if p.Flags.Has(packet.FlagSYN) && !p.Flags.Has(packet.FlagACK) {
		nat := p.Tuple
		nat.SrcIP = m.pub
		nat.SrcPort = m.nextPort
		m.nextPort++
		m.forward[p.Tuple] = nat
		m.backward[nat.Reverse()] = p.Tuple.Reverse()
		p.RewriteTuple(nat)
		return []*packet.Packet{p}
	}
	return []*packet.Packet{p}
}

// chainEnv is a line topology Client — M1..Mn — Server, everything running
// a Dysco agent; stacks on the ends.
type chainEnv struct {
	eng     *sim.Engine
	net     *netsim.Network
	client  *netsim.Host
	server  *netsim.Host
	mboxes  []*netsim.Host
	aClient *Agent
	aServer *Agent
	aMbox   []*Agent
	sClient *tcp.Stack
	sServer *tcp.Stack
	apps    []*counterApp
}

func (e *chainEnv) runFor(d sim.Time) { e.eng.Run(e.eng.Now() + d) }

func newChainEnv(t testing.TB, nMbox int, link netsim.LinkConfig, seed int64) *chainEnv {
	if t != nil {
		t.Helper()
	}
	eng := sim.NewEngine(seed)
	n := netsim.New(eng)
	env := &chainEnv{eng: eng, net: n}
	env.client = n.AddHost("client", packet.MakeAddr(10, 0, 0, 1))
	env.server = n.AddHost("server", packet.MakeAddr(10, 0, 0, 100))
	prev := env.client
	for i := 0; i < nMbox; i++ {
		m := n.AddHost("mbox", packet.MakeAddr(10, 0, 0, byte(10+i)))
		env.mboxes = append(env.mboxes, m)
		n.Connect(prev, m, link)
		prev = m
	}
	n.Connect(prev, env.server, link)
	// A router connected to every host provides the ordinary IP routing
	// Dysco relies on (the paper's Figure 11 testbed has the same shape):
	// any host can reach any other, adjacent hosts still use their direct
	// link.
	router := n.AddHost("router", packet.MakeAddr(10, 0, 0, 254))
	router.Forwarding = true
	for _, h := range n.Hosts() {
		if h != router {
			n.Connect(h, router, link)
		}
	}
	n.ComputeRoutes()

	env.sClient = tcp.NewStack(env.client)
	env.sServer = tcp.NewStack(env.server)
	env.aClient = NewAgent(env.client, Config{})
	env.aServer = NewAgent(env.server, Config{})
	for _, m := range env.mboxes {
		a := NewAgent(m, Config{})
		app := newCounterApp()
		a.App = app
		env.aMbox = append(env.aMbox, a)
		env.apps = append(env.apps, app)
	}
	// Policy at the client: chain through all middleboxes for port 80.
	var chain []packet.Addr
	for _, m := range env.mboxes {
		chain = append(chain, m.Addr)
	}
	env.aClient.Policy = func(p *packet.Packet) []packet.Addr {
		if p.Tuple.DstPort == 80 {
			return chain
		}
		return nil
	}
	wire(env.aClient, env.sClient)
	wire(env.aServer, env.sServer)
	return env
}

func wire(a *Agent, s *tcp.Stack) {
	a.SetFindConn(func(local packet.FiveTuple) ConnView {
		if c := s.Find(local); c != nil {
			return c
		}
		return nil
	})
}

func TestChainEstablishment(t *testing.T) {
	env := newChainEnv(t, 1, netsim.LinkConfig{Delay: 100 * time.Microsecond}, 1)
	var got bytes.Buffer
	var serverConn *tcp.Conn
	env.sServer.Listen(80, func(c *tcp.Conn) {
		serverConn = c
		c.OnData = func(b []byte) { got.Write(b) }
	})
	data := make([]byte, 100<<10)
	for i := range data {
		data[i] = byte(i >> 2)
	}
	c := env.sClient.Connect(env.server.Addr, 80, tcp.Config{})
	c.OnEstablished = func() { c.Send(data) }
	env.runFor(10 * time.Second)

	if !bytes.Equal(got.Bytes(), data) {
		t.Fatalf("server received %d bytes, want %d", got.Len(), len(data))
	}
	// The server's connection must see the ORIGINAL session header.
	if serverConn == nil {
		t.Fatal("no server connection")
	}
	st := serverConn.Tuple() // local view: Src = server side of session
	if st.SrcIP != env.server.Addr || st.DstIP != env.client.Addr {
		t.Errorf("server sees session %v, want original header", st)
	}
	if st.SrcPort != 80 || st.DstPort != c.Tuple().SrcPort {
		t.Errorf("server ports %v, want original", st)
	}
	// The middlebox app saw every packet with the original session header.
	app := env.apps[0]
	if app.syns != 1 {
		t.Errorf("mbox saw %d SYNs", app.syns)
	}
	if app.bytes < len(data) {
		t.Errorf("mbox saw %d data bytes, want ≥ %d", app.bytes, len(data))
	}
	for h := range app.headers {
		if h != c.Tuple() && h != c.Tuple().Reverse() {
			t.Errorf("mbox saw non-session header %v", h)
		}
	}
	// On the wire between hosts, the subsession five-tuple differs from
	// the original session.
	if env.aClient.Stats.SessionsOpened != 1 {
		t.Errorf("client agent sessions = %d", env.aClient.Stats.SessionsOpened)
	}
	if env.aClient.Stats.PacketsRewritten == 0 {
		t.Error("no rewrites at client agent")
	}
	env.checkOwnership(t)
}

func TestChainFourMiddleboxes(t *testing.T) {
	env := newChainEnv(t, 4, netsim.LinkConfig{Delay: 50 * time.Microsecond}, 2)
	var got bytes.Buffer
	env.sServer.Listen(80, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { got.Write(b) }
	})
	data := make([]byte, 64<<10)
	c := env.sClient.Connect(env.server.Addr, 80, tcp.Config{})
	c.OnEstablished = func() { c.Send(data) }
	env.runFor(10 * time.Second)
	if got.Len() != len(data) {
		t.Fatalf("got %d bytes through 4 middleboxes, want %d", got.Len(), len(data))
	}
	for i, app := range env.apps {
		if app.syns != 1 {
			t.Errorf("mbox %d: %d SYNs", i, app.syns)
		}
		if app.bytes < len(data) {
			t.Errorf("mbox %d saw only %d bytes", i, app.bytes)
		}
	}
	env.checkOwnership(t)
}

func TestNonMatchingTrafficBypassesDysco(t *testing.T) {
	env := newChainEnv(t, 1, netsim.LinkConfig{Delay: 100 * time.Microsecond}, 3)
	var got bytes.Buffer
	env.sServer.Listen(8080, func(c *tcp.Conn) { // policy matches only :80
		c.OnData = func(b []byte) { got.Write(b) }
	})
	c := env.sClient.Connect(env.server.Addr, 8080, tcp.Config{})
	c.OnEstablished = func() { c.Send([]byte("direct")) }
	env.runFor(time.Second)
	if got.String() != "direct" {
		t.Fatalf("plain traffic broken: %q", got.String())
	}
	if env.aClient.Stats.SessionsOpened != 0 {
		t.Error("agent chained a non-matching session")
	}
	if env.apps[0].packets != 0 {
		t.Error("middlebox saw packets of a non-matching session")
	}
}

func TestNATMiddleboxWithTag(t *testing.T) {
	env := newChainEnv(t, 1, netsim.LinkConfig{Delay: 100 * time.Microsecond}, 4)
	nat := newNATApp(packet.MakeAddr(99, 9, 9, 9))
	env.aMbox[0].App = nat
	var serverConn *tcp.Conn
	var got bytes.Buffer
	env.sServer.Listen(80, func(c *tcp.Conn) {
		serverConn = c
		c.OnData = func(b []byte) { got.Write(b) }
	})
	c := env.sClient.Connect(env.server.Addr, 80, tcp.Config{})
	c.OnEstablished = func() { c.Send([]byte("through the NAT")) }
	env.runFor(2 * time.Second)
	if got.String() != "through the NAT" {
		t.Fatalf("data through NAT: %q", got.String())
	}
	// The server must see the NATed header, not the client's.
	if serverConn.Tuple().DstIP != nat.pub {
		t.Errorf("server sees src %v, want NATed %v", serverConn.Tuple().DstIP, nat.pub)
	}
	if env.aMbox[0].Stats.TagsApplied == 0 || env.aMbox[0].Stats.TagsMatched == 0 {
		t.Errorf("tagging not exercised: %+v", env.aMbox[0].Stats)
	}
	// The NAT hop keys its one record by both session ids; it is still one
	// session.
	if sess := env.aMbox[0].Session(c.Tuple()); sess == nil || sess.IDRight == sess.IDLeft {
		t.Errorf("NAT hop record %+v is not keyed by a renamed IDRight", sess)
	}
	for _, a := range []*Agent{env.aClient, env.aMbox[0], env.aServer} {
		if n := a.Sessions(); n != 1 {
			t.Errorf("%s: Sessions() = %d for one session, want 1", a.Host.Name, n)
		}
	}
	env.checkOwnership(t)
}

func TestSYNPayloadStripped(t *testing.T) {
	env := newChainEnv(t, 2, netsim.LinkConfig{Delay: 100 * time.Microsecond}, 5)
	sawPayload := false
	env.sServer.Listen(80, func(c *tcp.Conn) {})
	// A hook after the agent's would see the stripped SYN; instead verify
	// via the server stack: our TCP ignores SYN payloads, so check the
	// middlebox apps never saw one (the agent strips before the app).
	c := env.sClient.Connect(env.server.Addr, 80, tcp.Config{})
	_ = c
	env.runFor(time.Second)
	for _, app := range env.apps {
		_ = app
	}
	for _, app := range env.apps {
		if app.syns != 1 {
			t.Fatalf("SYN did not traverse all middleboxes")
		}
	}
	_ = sawPayload
}

// reconfigured runs a bulk transfer through one forwarding middlebox and
// deletes the middlebox mid-transfer.
func TestReconfigDeleteMiddlebox(t *testing.T) {
	env := newChainEnv(t, 1, netsim.LinkConfig{Delay: 200 * time.Microsecond, Bandwidth: netsim.Gbps(1)}, 6)
	var got bytes.Buffer
	env.sServer.Listen(80, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { got.Write(b) }
	})
	data := make([]byte, 2<<20)
	for i := range data {
		data[i] = byte(i * 13)
	}
	c := env.sClient.Connect(env.server.Addr, 80, tcp.Config{})
	c.OnEstablished = func() { c.Send(data) }

	// Let some data flow, then delete the middlebox.
	env.runFor(20 * time.Millisecond)
	done := false
	var took sim.Time
	env.aClient.OnReconfigDone = func(_ packet.FiveTuple, ok bool, d sim.Time) { done = ok; took = d }
	err := env.aClient.StartReconfig(c.Tuple(), ReconfigOptions{
		RightAnchor: env.server.Addr,
	})
	if err != nil {
		t.Fatalf("StartReconfig: %v", err)
	}
	env.runFor(30 * time.Second)

	if !bytes.Equal(got.Bytes(), data) {
		t.Fatalf("data corrupted by reconfiguration: got %d want %d bytes", got.Len(), len(data))
	}
	if !done {
		t.Fatal("reconfiguration did not complete")
	}
	if took > 100*time.Millisecond {
		t.Errorf("reconfiguration took %v", took)
	}
	// Traffic must now bypass the middlebox: its packet count stops.
	before := env.apps[0].packets
	c.Send(make([]byte, 100<<10))
	env.runFor(5 * time.Second)
	if env.apps[0].packets != before {
		t.Errorf("middlebox still sees packets after deletion (%d → %d)", before, env.apps[0].packets)
	}
	if got.Len() != len(data)+100<<10 {
		t.Errorf("post-reconfig data lost: %d", got.Len())
	}
	// Middlebox state is garbage collected.
	env.runFor(time.Second)
	if env.aMbox[0].Sessions() != 0 {
		t.Errorf("middlebox retains %d sessions after deletion", env.aMbox[0].Sessions())
	}
	env.checkOwnership(t)
}

func TestReconfigInsertMiddlebox(t *testing.T) {
	// Plain TCP session (no chain), then insert a middlebox mid-session
	// (the "redirect suspicious traffic through a scrubber" use case).
	env := newChainEnv(t, 1, netsim.LinkConfig{Delay: 200 * time.Microsecond, Bandwidth: netsim.Gbps(1)}, 7)
	var got bytes.Buffer
	env.sServer.Listen(8080, func(c *tcp.Conn) { // bypasses the policy
		c.OnData = func(b []byte) { got.Write(b) }
	})
	data := make([]byte, 1<<20)
	c := env.sClient.Connect(env.server.Addr, 8080, tcp.Config{})
	c.OnEstablished = func() { c.Send(data) }
	env.runFor(10 * time.Millisecond)

	scrubber := env.apps[0]
	done := false
	env.aClient.OnReconfigDone = func(_ packet.FiveTuple, ok bool, d sim.Time) { done = ok }
	err := env.aClient.StartReconfig(c.Tuple(), ReconfigOptions{
		RightAnchor:    env.server.Addr,
		NewMiddleboxes: []packet.Addr{env.mboxes[0].Addr},
	})
	if err != nil {
		t.Fatalf("StartReconfig: %v", err)
	}
	env.runFor(30 * time.Second)
	if got.Len() != len(data) {
		t.Fatalf("data lost during insertion: %d of %d", got.Len(), len(data))
	}
	if !done {
		t.Fatal("insertion did not complete")
	}
	// Traffic sent after the insertion must traverse the scrubber and
	// still arrive.
	sawBefore := scrubber.packets
	extra := make([]byte, 100<<10)
	c.Send(extra)
	env.runFor(10 * time.Second)
	if got.Len() != len(data)+len(extra) {
		t.Fatalf("post-insertion data lost: %d of %d", got.Len(), len(data)+len(extra))
	}
	if scrubber.packets <= sawBefore {
		t.Error("scrubber sees no packets after insertion")
	}
	env.checkOwnership(t)
}

func TestReconfigSurvivesControlLoss(t *testing.T) {
	env := newChainEnv(t, 1, netsim.LinkConfig{Delay: 200 * time.Microsecond}, 8)
	// Drop 30% of control messages only (data is lossless), isolating the
	// daemon's retransmission machinery. Only at the originating hosts:
	// forwarded packets also traverse egress hooks, which would compound
	// the loss at the router.
	for _, h := range env.net.Hosts() {
		if h.Forwarding {
			continue
		}
		h.AddEgressHook(func(p *packet.Packet, dir netsim.Direction) netsim.Verdict {
			if p.IsUDP() && p.Tuple.DstPort == DaemonPort && env.eng.Rand().Float64() < 0.3 {
				return netsim.Drop
			}
			return netsim.Pass
		})
	}
	var got bytes.Buffer
	env.sServer.Listen(80, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { got.Write(b) }
	})
	data := make([]byte, 256<<10)
	c := env.sClient.Connect(env.server.Addr, 80, tcp.Config{})
	c.OnEstablished = func() { c.Send(data) }
	env.runFor(50 * time.Millisecond)
	done := false
	env.aClient.OnReconfigDone = func(_ packet.FiveTuple, ok bool, d sim.Time) { done = ok }
	env.aClient.StartReconfig(c.Tuple(), ReconfigOptions{
		RightAnchor: env.server.Addr,
	})
	env.runFor(120 * time.Second)
	if got.Len() != len(data) {
		t.Fatalf("data lost under control loss: %d of %d", got.Len(), len(data))
	}
	if !done {
		t.Errorf("reconfig failed under 30%% loss (retransmits=%d)", env.aClient.Stats.CtrlRetransmits)
	}
	if env.aClient.Stats.CtrlRetransmits == 0 {
		t.Log("note: no control retransmissions occurred (lucky seed)")
	}
}

func TestReconfigFailsWhenNewPathDead(t *testing.T) {
	// Insert a middlebox that is unreachable: setup must abort via
	// cancelLock and the session must continue on the old path (§3.6).
	env := newChainEnv(t, 1, netsim.LinkConfig{Delay: 200 * time.Microsecond}, 9)
	var got bytes.Buffer
	env.sServer.Listen(80, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { got.Write(b) }
	})
	c := env.sClient.Connect(env.server.Addr, 80, tcp.Config{})
	sent := make([]byte, 100<<10)
	c.OnEstablished = func() { c.Send(sent) }
	env.runFor(10 * time.Millisecond)
	var ok, called = false, false
	env.aClient.OnReconfigDone = func(_ packet.FiveTuple, o bool, d sim.Time) { ok, called = o, true }
	env.aClient.StartReconfig(c.Tuple(), ReconfigOptions{
		RightAnchor:    env.server.Addr,
		NewMiddleboxes: []packet.Addr{packet.MakeAddr(66, 66, 66, 66)}, // no such host
	})
	env.runFor(60 * time.Second)
	if !called {
		t.Fatal("OnReconfigDone never called")
	}
	if ok {
		t.Fatal("reconfig claimed success with dead new path")
	}
	if got.Len() != len(sent) {
		t.Fatalf("old path broken after aborted reconfig: %d of %d", got.Len(), len(sent))
	}
	// The segment must be unlocked again for future attempts.
	sess := env.aClient.Session(c.Tuple())
	if sess == nil || sess.lockState != Unlocked {
		t.Errorf("segment not unlocked after cancel: %+v", sess)
	}
	// And more data still flows.
	c.Send([]byte("still alive"))
	env.runFor(5 * time.Second)
	if !bytes.HasSuffix(got.Bytes(), []byte("still alive")) {
		t.Error("session dead after aborted reconfig")
	}
	env.checkOwnership(t)
}

func TestContentionExactlyOneWins(t *testing.T) {
	// Two left anchors contend for overlapping segments of one session:
	// client reconfigures [client..server], and mbox1 concurrently
	// reconfigures [mbox1..server] (property P1 of §3.7).
	env := newChainEnv(t, 2, netsim.LinkConfig{Delay: 500 * time.Microsecond}, 10)
	env.sServer.Listen(80, func(c *tcp.Conn) {})
	c := env.sClient.Connect(env.server.Addr, 80, tcp.Config{})
	env.runFor(100 * time.Millisecond)

	results := map[string]bool{}
	sessAtM1 := env.aMbox[0].Session(c.Tuple())
	if sessAtM1 == nil {
		t.Fatal("mbox1 has no session record")
	}
	// Client deletes both middleboxes; mbox1 (as left anchor) deletes
	// mbox2. Fired at the same instant.
	env.eng.Schedule(0, func() {
		env.aClient.OnReconfigDone = func(_ packet.FiveTuple, ok bool, d sim.Time) { results["client"] = ok }
		env.aClient.StartReconfig(c.Tuple(), ReconfigOptions{
			RightAnchor: env.server.Addr,
		})
		env.aMbox[0].OnReconfigDone = func(_ packet.FiveTuple, ok bool, d sim.Time) { results["mbox1"] = ok }
		env.aMbox[0].StartReconfig(sessAtM1.IDRight, ReconfigOptions{
			RightAnchor: env.server.Addr,
		})
	})
	env.runFor(60 * time.Second)
	if len(results) != 2 {
		t.Fatalf("both reconfigs must terminate: %v", results)
	}
	wins := 0
	for _, ok := range results {
		if ok {
			wins++
		}
	}
	if wins != 1 {
		t.Fatalf("exactly one contending reconfiguration must win, got %d (%v)", wins, results)
	}
	env.checkOwnership(t)
}

// TestContentionNackResetsMidPathLock: the client reconfigures
// [client..server] while mbox2 reconfigures [mbox2..server], both at the
// same instant. mbox2 locks its own segment first, so the client's request
// is blocked there and nacked once mbox2's lock is granted; on its way
// back the nack passes mbox1, which holds LockPending for the client's
// request and must release it. Exactly one attempt wins, every hop ends
// unlocked, and the event log agrees: the last lock transition each hop
// logged for a record still there is the state the record is in.
func TestContentionNackResetsMidPathLock(t *testing.T) {
	env := newChainEnv(t, 3, netsim.LinkConfig{Delay: 500 * time.Microsecond}, 12)
	hub := obs.NewHub(env.eng)
	agents := append([]*Agent{env.aClient, env.aServer}, env.aMbox...)
	names := []string{"client", "server", "mbox1", "mbox2", "mbox3"}
	for i, a := range agents {
		a.SetRecorder(hub.Recorder(names[i]))
	}
	env.sServer.Listen(80, func(c *tcp.Conn) {})
	c := env.sClient.Connect(env.server.Addr, 80, tcp.Config{})
	env.runFor(100 * time.Millisecond)
	sessAtM2 := env.aMbox[1].Session(c.Tuple())
	if sessAtM2 == nil {
		t.Fatal("mbox2 has no session record")
	}

	results := map[string]bool{}
	env.aClient.OnReconfigDone = func(_ packet.FiveTuple, ok bool, _ sim.Time) { results["client"] = ok }
	env.aMbox[1].OnReconfigDone = func(_ packet.FiveTuple, ok bool, _ sim.Time) { results["mbox2"] = ok }
	env.eng.Schedule(0, func() {
		if err := env.aClient.StartReconfig(c.Tuple(), ReconfigOptions{RightAnchor: env.server.Addr}); err != nil {
			t.Error(err)
		}
		if err := env.aMbox[1].StartReconfig(sessAtM2.IDRight, ReconfigOptions{RightAnchor: env.server.Addr}); err != nil {
			t.Error(err)
		}
	})
	env.runFor(60 * time.Second)
	if len(results) != 2 || results["client"] == results["mbox2"] {
		t.Fatalf("exactly one contending reconfiguration must win: %v", results)
	}

	logged := map[string]string{} // host/session -> last lock state logged
	for _, e := range hub.Events() {
		if e.Kind == obs.KLock {
			logged[fmt.Sprint(e.Host, e.Sess)] = e.To
		}
	}
	for i, a := range agents {
		host := names[i]
		a.EachSession(func(s *Session) {
			if s.lockState != Unlocked {
				t.Errorf("%s: session %v ends %v", host, s.IDLeft, s.lockState)
			}
			if to, ok := logged[fmt.Sprint(host, s.IDLeft)]; ok && to != s.lockState.String() {
				t.Errorf("%s: session %v is %v, its last logged lock transition enters %s", host, s.IDLeft, s.lockState, to)
			}
		})
	}
	env.checkOwnership(t)
}

func TestSessionsGarbageCollected(t *testing.T) {
	env := newChainEnv(t, 1, netsim.LinkConfig{Delay: 100 * time.Microsecond}, 11)
	env.sServer.Listen(80, func(c *tcp.Conn) {
		c.OnPeerFIN = func() {}
	})
	var clientConn *tcp.Conn
	env.sServer.Listen(80, func(c *tcp.Conn) {
		c.OnPeerFIN = func() { c.Close() }
	})
	clientConn = env.sClient.Connect(env.server.Addr, 80, tcp.Config{})
	clientConn.OnEstablished = func() {
		clientConn.Send([]byte("x"))
		clientConn.Close()
	}
	env.runFor(10 * time.Second)
	if n := env.aMbox[0].CollectIdle(); n == 0 {
		t.Error("closed session not collected at middlebox")
	}
	if env.aMbox[0].Sessions() != 0 {
		t.Errorf("middlebox retains %d sessions", env.aMbox[0].Sessions())
	}
	env.checkOwnership(t)
}

func TestSynPayloadCodecRoundTrip(t *testing.T) {
	sp := &synPayload{
		Session: packet.FiveTuple{
			Proto: packet.ProtoTCP,
			SrcIP: packet.MakeAddr(1, 2, 3, 4), DstIP: packet.MakeAddr(5, 6, 7, 8),
			SrcPort: 1111, DstPort: 80,
		},
		List:     []packet.Addr{packet.MakeAddr(9, 9, 9, 9), packet.MakeAddr(8, 8, 8, 8)},
		Reconfig: true,
	}
	b := encodeSynPayload(sp)
	got, isDysco, err := decodeSynPayload(b)
	if err != nil || !isDysco {
		t.Fatalf("decode: %v %v", isDysco, err)
	}
	if got.Session != sp.Session || !got.Reconfig || len(got.List) != 2 || got.List[1] != sp.List[1] {
		t.Errorf("round trip mismatch: %+v", got)
	}
	// Non-Dysco payloads are recognized as such.
	if _, isDysco, _ := decodeSynPayload([]byte("GET / HTTP/1.1")); isDysco {
		t.Error("app data misidentified as Dysco payload")
	}
	if _, isDysco, _ := decodeSynPayload(nil); isDysco {
		t.Error("empty payload misidentified")
	}
	// Truncated Dysco payloads error.
	if _, isDysco, err := decodeSynPayload(b[:6]); !isDysco || err == nil {
		t.Error("truncated payload not rejected")
	}
}

// TestChainSYNLossRecovers drops the first chain SYN on the wire: the
// client stack retransmits, and the agent must re-attach the Dysco
// payload so establishment still succeeds (§2.1 SYN handling).
func TestChainSYNLossRecovers(t *testing.T) {
	env := newChainEnv(t, 1, netsim.LinkConfig{Delay: 200 * time.Microsecond}, 31)
	dropped := false
	env.client.AddEgressHook(func(p *packet.Packet, dir netsim.Direction) netsim.Verdict {
		if p.IsTCP() && p.Flags.Has(packet.FlagSYN) && !p.Flags.Has(packet.FlagACK) && !dropped {
			dropped = true
			return netsim.Drop
		}
		return netsim.Pass
	})
	var got bytes.Buffer
	env.sServer.Listen(80, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { got.Write(b) }
	})
	c := env.sClient.Connect(env.server.Addr, 80, tcp.Config{})
	c.OnEstablished = func() { c.Send([]byte("despite the lost SYN")) }
	env.runFor(30 * time.Second) // initial SYN RTO is ~1s
	if !dropped {
		t.Fatal("hook never dropped the SYN")
	}
	if got.String() != "despite the lost SYN" {
		t.Fatalf("chain did not recover from SYN loss: %q", got.String())
	}
	if env.apps[0].syns != 1 {
		t.Errorf("middlebox saw %d SYNs, want exactly 1 (retransmission dropped before the wire)", env.apps[0].syns)
	}
}

// TestReconfigIdleSession reconfigures a session with no data in flight:
// the §3.5 completion must come from the UDP FIN exchange alone.
func TestReconfigIdleSession(t *testing.T) {
	env := newChainEnv(t, 1, netsim.LinkConfig{Delay: 200 * time.Microsecond}, 32)
	env.sServer.Listen(80, func(c *tcp.Conn) {
		c.OnData = func(b []byte) {}
	})
	c := env.sClient.Connect(env.server.Addr, 80, tcp.Config{})
	env.runFor(100 * time.Millisecond)
	done := false
	var took sim.Time
	env.aClient.OnReconfigDone = func(_ packet.FiveTuple, ok bool, d sim.Time) { done, took = ok, d }
	env.aClient.StartReconfig(c.Tuple(), ReconfigOptions{
		RightAnchor: env.server.Addr,
	})
	env.runFor(10 * time.Second)
	if !done {
		t.Fatal("idle-session reconfiguration did not complete")
	}
	if took > 50*time.Millisecond {
		t.Errorf("idle reconfiguration took %v", took)
	}
	// The session still works afterwards.
	c.Send(make([]byte, 1000))
	env.runFor(2 * time.Second)
	if env.aClient.Stats.ReconfigsDone != 1 {
		t.Errorf("ReconfigsDone = %d", env.aClient.Stats.ReconfigsDone)
	}
}

// TestHeartbeatsKeepIdleSessionsAlive: §2.1 — idle sessions survive the
// idle timeout when heartbeats are enabled, and are collected without.
func TestHeartbeatsKeepIdleSessionsAlive(t *testing.T) {
	run := func(heartbeat bool) int {
		eng := sim.NewEngine(41)
		n := netsim.New(eng)
		cfg := Config{IdleTimeout: 2 * time.Second, GCInterval: time.Second}
		if heartbeat {
			cfg.HeartbeatInterval = 500 * time.Millisecond
		}
		router := n.AddHost("router", packet.MakeAddr(10, 0, 0, 254))
		router.Forwarding = true
		hc := n.AddHost("c", packet.MakeAddr(10, 0, 0, 1))
		hm := n.AddHost("m", packet.MakeAddr(10, 0, 0, 2))
		hs := n.AddHost("s", packet.MakeAddr(10, 0, 0, 3))
		for _, h := range []*netsim.Host{hc, hm, hs} {
			n.Connect(h, router, netsim.LinkConfig{Delay: 100 * time.Microsecond})
		}
		n.ComputeRoutes()
		sc := tcp.NewStack(hc)
		ss := tcp.NewStack(hs)
		ac := NewAgent(hc, cfg)
		am := NewAgent(hm, cfg)
		am.App = newCounterApp()
		NewAgent(hs, cfg)
		ac.Policy = func(p *packet.Packet) []packet.Addr { return []packet.Addr{hm.Addr} }
		ss.Listen(80, func(c *tcp.Conn) {})
		sc.Connect(hs.Addr, 80, tcp.Config{})
		eng.Run(10 * time.Second) // idle for 5x the timeout
		return am.Sessions()
	}
	if got := run(true); got != 1 {
		t.Errorf("with heartbeats the middlebox lost the session (%d)", got)
	}
	if got := run(false); got != 0 {
		t.Errorf("without heartbeats the idle session was not collected (%d)", got)
	}
}

// classifierApp steers port-80 sessions through an extra middlebox it
// picks itself (§2.2 application classifier).
type classifierApp struct {
	counterApp
	scrubber packet.Addr
}

func (m *classifierApp) NextHops(sess packet.FiveTuple, syn *packet.Packet) []packet.Addr {
	if sess.DstPort == 80 {
		return []packet.Addr{m.scrubber}
	}
	return nil
}

func TestClassifierSelectsNextMiddlebox(t *testing.T) {
	env := newChainEnv(t, 2, netsim.LinkConfig{Delay: 100 * time.Microsecond}, 61)
	// mbox[0] becomes a classifier that routes :80 through mbox[1];
	// the client policy only names mbox[0].
	cls := &classifierApp{counterApp: *newCounterApp(), scrubber: env.mboxes[1].Addr}
	cls.headers = make(map[packet.FiveTuple]bool)
	env.aMbox[0].App = cls
	env.aClient.Policy = func(p *packet.Packet) []packet.Addr {
		return []packet.Addr{env.mboxes[0].Addr} // classifier only
	}

	var got80, got81 bytes.Buffer
	env.sServer.Listen(80, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { got80.Write(b) }
	})
	env.sServer.Listen(81, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { got81.Write(b) }
	})
	c80 := env.sClient.Connect(env.server.Addr, 80, tcp.Config{})
	c80.OnEstablished = func() { c80.Send([]byte("classified")) }
	c81 := env.sClient.Connect(env.server.Addr, 81, tcp.Config{})
	c81.OnEstablished = func() { c81.Send([]byte("direct-ish")) }
	env.runFor(2 * time.Second)

	if got80.String() != "classified" || got81.String() != "direct-ish" {
		t.Fatalf("transfers: %q / %q", got80.String(), got81.String())
	}
	// The scrubber saw the port-80 session but not the port-81 one.
	for h := range env.apps[1].headers {
		if h.DstPort != 80 && h.SrcPort != 80 {
			t.Errorf("scrubber saw non-80 session %v", h)
		}
	}
	if env.apps[1].packets == 0 {
		t.Error("scrubber saw no packets; classifier did not inject it")
	}
}

// TestConcurrentDisjointReconfigs runs many sessions through one proxyless
// middlebox and reconfigures all of them at once: per-session locks are
// independent, so every reconfiguration must succeed concurrently.
func TestConcurrentDisjointReconfigs(t *testing.T) {
	env := newChainEnv(t, 1, netsim.LinkConfig{Delay: 100 * time.Microsecond, Bandwidth: netsim.Gbps(1)}, 71)
	env.sServer.Listen(80, func(c *tcp.Conn) {
		c.OnData = func(b []byte) {}
	})
	const sessions = 30
	var conns []*tcp.Conn
	for i := 0; i < sessions; i++ {
		c := env.sClient.Connect(env.server.Addr, 80, tcp.Config{})
		cc := c
		c.OnEstablished = func() { cc.Send(make([]byte, 20000)) }
		conns = append(conns, c)
	}
	env.runFor(200 * time.Millisecond)
	done := 0
	env.aClient.OnReconfigDone = func(_ packet.FiveTuple, ok bool, d sim.Time) {
		if ok {
			done++
		}
	}
	for _, c := range conns {
		err := env.aClient.StartReconfig(c.Tuple(), ReconfigOptions{
			RightAnchor: env.server.Addr,
		})
		if err != nil {
			t.Fatalf("StartReconfig: %v", err)
		}
	}
	env.runFor(20 * time.Second)
	if done != sessions {
		t.Fatalf("concurrent reconfigs done = %d of %d", done, sessions)
	}
	if env.aMbox[0].Sessions() != 0 {
		t.Errorf("middlebox retains %d sessions", env.aMbox[0].Sessions())
	}
	env.checkOwnership(t)
}

// TestReconfigureTwiceSequentially reconfigures the same session twice:
// insert a middlebox, then delete it again. Locks must be reusable.
func TestReconfigureTwiceSequentially(t *testing.T) {
	env := newChainEnv(t, 1, netsim.LinkConfig{Delay: 100 * time.Microsecond, Bandwidth: netsim.Gbps(1)}, 72)
	var got bytes.Buffer
	env.sServer.Listen(8080, func(c *tcp.Conn) { // plain session
		c.OnData = func(b []byte) { got.Write(b) }
	})
	c := env.sClient.Connect(env.server.Addr, 8080, tcp.Config{})
	c.OnEstablished = func() { c.Send(make([]byte, 100<<10)) }
	env.runFor(50 * time.Millisecond)

	do := func(opt ReconfigOptions) {
		t.Helper()
		ok := false
		env.aClient.OnReconfigDone = func(_ packet.FiveTuple, o bool, d sim.Time) { ok = o }
		if err := env.aClient.StartReconfig(c.Tuple(), opt); err != nil {
			t.Fatalf("StartReconfig: %v", err)
		}
		env.runFor(10 * time.Second)
		if !ok {
			t.Fatal("reconfiguration did not complete")
		}
	}
	do(ReconfigOptions{RightAnchor: env.server.Addr, NewMiddleboxes: []packet.Addr{env.mboxes[0].Addr}})
	sawWithMbox := env.apps[0].packets
	c.Send(make([]byte, 50<<10))
	env.runFor(5 * time.Second)
	if env.apps[0].packets <= sawWithMbox {
		t.Fatal("middlebox not on path after insertion")
	}
	do(ReconfigOptions{RightAnchor: env.server.Addr})
	before := env.apps[0].packets
	c.Send(make([]byte, 50<<10))
	env.runFor(5 * time.Second)
	if env.apps[0].packets != before {
		t.Error("middlebox still on path after second reconfiguration")
	}
	if got.Len() != 200<<10 {
		t.Fatalf("stream lost data across two reconfigurations: %d", got.Len())
	}
	env.checkOwnership(t)
}

func TestAPIErrorPaths(t *testing.T) {
	env := newChainEnv(t, 1, netsim.LinkConfig{Delay: 100 * time.Microsecond}, 81)
	env.sServer.Listen(80, func(c *tcp.Conn) {})
	c := env.sClient.Connect(env.server.Addr, 80, tcp.Config{})
	env.runFor(100 * time.Millisecond)

	bogus := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: packet.ProtoTCP}
	if err := env.aClient.ReportDelta(bogus, Deltas{}); err == nil {
		t.Error("ReportDelta on unknown session did not error")
	}
	if err := env.aClient.TriggerReplace(bogus, nil, 0, 0); err == nil {
		t.Error("TriggerReplace on unknown session did not error")
	}
	// An end-host cannot remove itself (no neighbors on both sides).
	if err := env.aClient.TriggerReplace(c.Tuple(), nil, 0, 0); err == nil {
		t.Error("TriggerReplace at an end did not error")
	}
	if err := env.aClient.StartReconfig(c.Tuple(), ReconfigOptions{}); err == nil {
		t.Error("StartReconfig without a right anchor did not error")
	}
	if err := env.aClient.StartReconfig(bogus, ReconfigOptions{RightAnchor: env.server.Addr}); err == nil {
		t.Error("StartReconfig on unknown session (FindConn miss) did not error")
	}
	// Double reconfiguration of the same session is refused while active.
	ok1 := false
	env.aClient.OnReconfigDone = func(_ packet.FiveTuple, o bool, d sim.Time) { ok1 = o }
	if err := env.aClient.StartReconfig(c.Tuple(), ReconfigOptions{
		RightAnchor: env.server.Addr,
	}); err != nil {
		t.Fatalf("first StartReconfig: %v", err)
	}
	if err := env.aClient.StartReconfig(c.Tuple(), ReconfigOptions{RightAnchor: env.server.Addr}); err == nil {
		t.Error("concurrent StartReconfig on same session accepted")
	}
	env.runFor(10 * time.Second)
	if !ok1 {
		t.Error("first reconfiguration did not complete")
	}
	// After completion, a new reconfiguration is fine (locks released) —
	// but the chain is now direct, so the right anchor is the same.
	if err := env.aClient.StartReconfig(c.Tuple(), ReconfigOptions{RightAnchor: env.server.Addr}); err != nil {
		t.Errorf("reconfig after completion refused: %v", err)
	}
}

func TestSpliceErrorPaths(t *testing.T) {
	env := newChainEnv(t, 1, netsim.LinkConfig{Delay: 100 * time.Microsecond}, 82)
	env.sServer.Listen(80, func(c *tcp.Conn) {})
	c := env.sClient.Connect(env.server.Addr, 80, tcp.Config{})
	env.runFor(100 * time.Millisecond)
	// Splice with an unknown client-side session errors.
	other := env.sClient.Connect(env.server.Addr, 9999, tcp.Config{})
	if err := env.aMbox[0].Splice(other, c); err == nil {
		t.Error("Splice with unknown session did not error")
	}
	env.checkOwnership(t)
}

// stuckConn is a spliced proxy connection whose send queue never drains:
// it holds one byte forever and keeps the drain callbacks it is given.
type stuckConn struct {
	tuple   packet.FiveTuple
	drained []func()
}

func (c *stuckConn) Tuple() packet.FiveTuple { return c.tuple }
func (c *stuckConn) SndNxt() uint32          { return 0 }
func (c *stuckConn) RcvNxt() uint32          { return 0 }
func (c *stuckConn) SndUna() uint32          { return 0 }
func (c *stuckConn) RcvWScale() int8         { return 0 }
func (c *stuckConn) SndWScale() int8         { return 0 }
func (c *stuckConn) TSRecent() uint32        { return 0 }
func (c *stuckConn) TSNow() uint32           { return 0 }
func (c *stuckConn) BufferedOut() int        { return 1 }
func (c *stuckConn) OnDrained(fn func())     { c.drained = append(c.drained, fn) }
func (c *stuckConn) Detach()                 {}

// TestHeldOldPathFINPostsNoEvents: an oldPathFIN held at a deleted hop
// behind a connection that never drains waits on the drain callback, not
// on a timer. The idle network stays empty; the FIN crosses the hop when
// the connection reports the drain.
func TestHeldOldPathFINPostsNoEvents(t *testing.T) {
	env := newChainEnv(t, 1, netsim.LinkConfig{Delay: 100 * time.Microsecond}, 84)
	env.sServer.Listen(80, func(c *tcp.Conn) {})
	c := env.sClient.Connect(env.server.Addr, 80, tcp.Config{})
	env.runFor(100 * time.Millisecond)
	hop := env.aMbox[0]
	left := &stuckConn{tuple: c.Tuple().Reverse()}
	right := &stuckConn{tuple: packet.FiveTuple{
		SrcIP: env.mboxes[0].Addr, DstIP: env.server.Addr, SrcPort: 5000, DstPort: 80, Proto: packet.ProtoTCP,
	}}
	if err := hop.splice(left, right); err != nil {
		t.Fatal(err)
	}
	if n := env.eng.Pending(); n != 0 {
		t.Fatalf("%d events pending on the idle network before the FIN", n)
	}
	hop.daemon.onOldPathFIN(&ctrlMsg{Type: msgOldPathFIN, ReqID: 1, Session: c.Tuple(), from: env.client.Addr})
	env.runFor(time.Second)
	if n := env.eng.Pending(); n != 0 {
		t.Fatalf("a held oldPathFIN left %d events pending", n)
	}
	if len(right.drained) != 1 || len(left.drained) != 0 {
		t.Fatalf("drain callbacks: %d on the right-facing conn, %d on the left-facing, want 1 and 0", len(right.drained), len(left.drained))
	}
	sess := hop.Session(c.Tuple())
	if sess.finSeen[0] {
		t.Fatal("the FIN crossed the hop before its connection drained")
	}
	right.drained[0]()
	if !sess.finSeen[0] || !sess.across().finSeen[0] {
		t.Fatal("the FIN did not cross the hop at the drain")
	}
}

// Satellite of the fault-injection work: §2.1 keepalives must distinguish
// a dead peer from a merely-lossy path. With every link dropping 15%
// of its packets, enough heartbeats still get through to keep the idle
// session alive everywhere; when the middlebox host actually dies, the
// client stops hearing anything for the session and collects it.
func TestKeepaliveUnderLossVsDeadPeer(t *testing.T) {
	run := func(killMbox bool) (clientSessions int) {
		eng := sim.NewEngine(83)
		n := netsim.New(eng)
		cfg := Config{
			IdleTimeout: 2 * time.Second, GCInterval: 500 * time.Millisecond,
			HeartbeatInterval: 250 * time.Millisecond,
		}
		router := n.AddHost("router", packet.MakeAddr(10, 0, 0, 254))
		router.Forwarding = true
		hc := n.AddHost("c", packet.MakeAddr(10, 0, 0, 1))
		hm := n.AddHost("m", packet.MakeAddr(10, 0, 0, 2))
		hs := n.AddHost("s", packet.MakeAddr(10, 0, 0, 3))
		for _, h := range []*netsim.Host{hc, hm, hs} {
			n.Connect(h, router, netsim.LinkConfig{Delay: 100 * time.Microsecond})
		}
		n.ComputeRoutes()
		sc := tcp.NewStack(hc)
		ss := tcp.NewStack(hs)
		ac := NewAgent(hc, cfg)
		am := NewAgent(hm, cfg)
		am.App = newCounterApp()
		NewAgent(hs, cfg)
		ac.Policy = func(p *packet.Packet) []packet.Addr { return []packet.Addr{hm.Addr} }
		ss.Listen(80, func(c *tcp.Conn) {})
		sc.Connect(hs.Addr, 80, tcp.Config{})
		eng.Run(time.Second) // establish cleanly, then degrade
		for _, h := range []*netsim.Host{hc, hm, hs, router} {
			for _, l := range h.Links() {
				l.SetLoss(0.15)
			}
		}
		if killMbox {
			hm.SetDown(true)
		}
		eng.Run(12 * time.Second)
		return ac.Sessions()
	}
	if got := run(false); got != 1 {
		t.Errorf("lossy but alive: client collected the session (%d left, want 1)", got)
	}
	if got := run(true); got != 0 {
		t.Errorf("dead middlebox: client kept the session (%d left, want 0)", got)
	}
}
