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

// TestReconfigDeleteNAT deletes a five-tuple-modifying middlebox from a
// live session. The session identity differs on the two sides of the NAT
// (IDLeft ≠ IDRight), so after deletion the anchors must keep presenting
// each stack its own header: the client still sees its original tuple,
// the server still sees the NATed one.
func TestReconfigDeleteNAT(t *testing.T) {
	env := newChainEnv(t, 1, netsim.LinkConfig{Delay: 200 * time.Microsecond, Bandwidth: netsim.Gbps(1)}, 21)
	nat := newNATApp(packet.MakeAddr(198, 51, 100, 9))
	env.aMbox[0].App = nat

	var got bytes.Buffer
	var serverConn *tcp.Conn
	env.sServer.Listen(80, func(c *tcp.Conn) {
		serverConn = c
		c.OnData = func(b []byte) { got.Write(b) }
	})
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i * 11)
	}
	c := env.sClient.Connect(env.server.Addr, 80, tcp.Config{})
	c.OnEstablished = func() { c.Send(data) }
	env.runFor(20 * time.Millisecond)
	if serverConn == nil {
		t.Fatal("not established")
	}
	natTuple := serverConn.Tuple()
	if natTuple.DstIP != nat.pub {
		t.Fatalf("server does not see the NATed header: %v", natTuple)
	}

	done := false
	env.aClient.OnReconfigDone = func(_ packet.FiveTuple, ok bool, d sim.Time) { done = ok }
	err := env.aClient.StartReconfig(c.Tuple(), ReconfigOptions{
		RightAnchor: env.server.Addr,
	})
	if err != nil {
		t.Fatalf("StartReconfig: %v", err)
	}
	env.runFor(30 * time.Second)
	if !done {
		t.Fatal("NAT deletion did not complete")
	}
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatalf("stream corrupted by NAT deletion: %d of %d", got.Len(), len(data))
	}
	// Post-deletion traffic still translates: client header in, NATed
	// header at the server, both directions.
	c.Send([]byte("after the NAT is gone"))
	env.runFor(2 * time.Second)
	if !bytes.HasSuffix(got.Bytes(), []byte("after the NAT is gone")) {
		t.Fatal("post-deletion data lost")
	}
	if serverConn.Tuple() != natTuple {
		t.Error("server-side session identity changed")
	}
	resp := make([]byte, 50<<10)
	var echo bytes.Buffer
	c.OnData = func(b []byte) { echo.Write(b) }
	serverConn.Send(resp)
	env.runFor(5 * time.Second)
	if echo.Len() != len(resp) {
		t.Fatalf("reverse direction after NAT deletion: %d of %d", echo.Len(), len(resp))
	}
	// The NAT's packet function must no longer be on the path.
	before := nat.seen
	c.Send(make([]byte, 10000))
	env.runFor(2 * time.Second)
	if nat.seen != before {
		t.Error("NAT still sees packets after deletion")
	}
	env.checkOwnership(t)
}
