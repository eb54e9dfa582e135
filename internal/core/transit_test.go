package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// TestEdgeRouterChainsForNonDyscoClient exercises §2.4 partial deployment:
// the client runs no Dysco agent; its ISP edge router initiates the
// service chain on its behalf, and later reconfigures it as left anchor.
func TestEdgeRouterChainsForNonDyscoClient(t *testing.T) {
	eng := sim.NewEngine(51)
	n := netsim.New(eng)
	link := netsim.LinkConfig{Delay: 200 * time.Microsecond, Bandwidth: netsim.Gbps(1)}

	client := n.AddHost("client", packet.MakeAddr(10, 1, 0, 1)) // NO agent
	edge := n.AddHost("edge", packet.MakeAddr(10, 0, 0, 2))
	mb := n.AddHost("mbox", packet.MakeAddr(10, 0, 0, 3))
	server := n.AddHost("server", packet.MakeAddr(10, 0, 0, 4))
	router := n.AddHost("router", packet.MakeAddr(10, 0, 0, 254))
	router.Forwarding = true
	edge.Forwarding = true
	// The client reaches everything through its edge router.
	n.Connect(client, edge, link)
	for _, h := range []*netsim.Host{edge, mb, server} {
		n.Connect(h, router, link)
	}
	n.ComputeRoutes()

	clientStack := tcp.NewStack(client)
	serverStack := tcp.NewStack(server)
	edgeAgent := NewAgent(edge, Config{TransitChaining: true})
	mbAgent := NewAgent(mb, Config{})
	mbApp := newCounterApp()
	mbAgent.App = mbApp
	serverAgent := NewAgent(server, Config{})
	edgeAgent.Policy = func(p *packet.Packet) []packet.Addr {
		if p.Tuple.DstPort == 80 {
			return []packet.Addr{mb.Addr}
		}
		return nil
	}

	var got bytes.Buffer
	var serverConn *tcp.Conn
	serverStack.Listen(80, func(c *tcp.Conn) {
		serverConn = c
		c.OnData = func(b []byte) { got.Write(b) }
	})
	data := make([]byte, 256<<10)
	for i := range data {
		data[i] = byte(i * 3)
	}
	c := clientStack.Connect(server.Addr, 80, tcp.Config{})
	c.OnEstablished = func() { c.Send(data) }
	eng.Run(5 * time.Second)

	if !bytes.Equal(got.Bytes(), data) {
		t.Fatalf("transit-chained transfer: got %d of %d bytes", got.Len(), len(data))
	}
	// The server sees the CLIENT's original header even though the client
	// runs no Dysco.
	if serverConn.Tuple().DstIP != client.Addr {
		t.Errorf("server sees %v, want the client's address", serverConn.Tuple().DstIP)
	}
	if mbApp.bytes < len(data) {
		t.Errorf("middlebox saw %d bytes", mbApp.bytes)
	}
	if edgeAgent.Stats.SessionsOpened != 1 {
		t.Errorf("edge opened %d sessions", edgeAgent.Stats.SessionsOpened)
	}

	// Now the edge router — as left anchor — deletes the middlebox from
	// the live session. The client remains oblivious throughout.
	sess := edgeAgent.Session(c.Tuple())
	if sess == nil {
		t.Fatal("edge has no session record")
	}
	done := false
	edgeAgent.OnReconfigDone = func(_ packet.FiveTuple, ok bool, d sim.Time) { done = ok }
	err := edgeAgent.StartReconfig(c.Tuple(), ReconfigOptions{
		RightAnchor: server.Addr,
	})
	if err != nil {
		t.Fatalf("StartReconfig at edge: %v", err)
	}
	eng.Run(eng.Now() + 10*time.Second)
	if !done {
		t.Fatal("edge-anchored reconfiguration did not complete")
	}
	before := mbApp.packets
	c.Send([]byte("after deletion, still via the edge"))
	eng.Run(eng.Now() + 2*time.Second)
	if !bytes.HasSuffix(got.Bytes(), []byte("after deletion, still via the edge")) {
		t.Fatal("post-reconfig data lost")
	}
	if mbApp.packets != before {
		t.Error("middlebox still on the path after deletion")
	}
	// Reverse direction works too.
	var echo bytes.Buffer
	c.OnData = func(b []byte) { echo.Write(b) }
	serverConn.Send(make([]byte, 50<<10))
	eng.Run(eng.Now() + 3*time.Second)
	if echo.Len() != 50<<10 {
		t.Fatalf("reverse transfer after deletion: %d", echo.Len())
	}
	checkOwnership(t, edgeAgent, mbAgent, serverAgent)
}
