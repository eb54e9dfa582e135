package lab_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/lab"
	"repro/internal/mbox"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/tcp"
)

func TestEnvWiring(t *testing.T) {
	env := lab.NewEnv(1)
	link := netsim.LinkConfig{Delay: 100 * time.Microsecond}
	a := env.AddNode("a", lab.HostOptions{Link: link, Stack: true, Agent: true})
	m := env.AddNode("m", lab.HostOptions{Link: link, App: &mbox.Forwarder{}})
	b := env.AddNode("b", lab.HostOptions{Link: link, Stack: true, Agent: true})
	env.Net.ComputeRoutes()
	env.ChainPolicy(a, 80, m)

	if env.Node("a") != a || env.Node("missing") != nil {
		t.Error("Node lookup broken")
	}
	if a.Agent == nil || a.Stack == nil || m.Agent == nil || m.Agent.App == nil {
		t.Fatal("node options not applied")
	}

	got := 0
	b.Stack.Listen(80, func(c *tcp.Conn) {
		c.OnData = func(p []byte) { got += len(p) }
	})
	c := a.Stack.Connect(b.Addr(), 80, tcp.Config{})
	c.OnEstablished = func() { c.Send(make([]byte, 5000)) }
	env.RunFor(time.Second)
	if got != 5000 {
		t.Fatalf("chained transfer delivered %d", got)
	}
	if m.Agent.Stats.PacketsRewritten == 0 {
		t.Error("chain did not traverse the middlebox")
	}
	if env.Eng.Now() != time.Second {
		t.Errorf("RunFor did not advance: %v", env.Eng.Now())
	}
}

// TestWireCarriesSubsessionTuples checks the paper's core data-plane
// property at the wire: between hosts the packets carry subsession
// five-tuples, never the original session header.
func TestWireCarriesSubsessionTuples(t *testing.T) {
	env := lab.NewEnv(1)
	link := netsim.LinkConfig{Delay: 100 * time.Microsecond}
	client := env.AddNode("client", lab.HostOptions{Link: link, Stack: true, Agent: true})
	mb := env.AddNode("mb", lab.HostOptions{Link: link, App: &mbox.Forwarder{}})
	server := env.AddNode("server", lab.HostOptions{Link: link, Stack: true, Agent: true})
	env.Net.ComputeRoutes()
	env.ChainPolicy(client, 80, mb)
	// The router sees every packet after all agents: the pure wire view.
	var wire []packet.FiveTuple
	env.Router.AddEgressHook(func(p *packet.Packet, _ netsim.Direction) netsim.Verdict {
		if p.IsTCP() {
			wire = append(wire, p.Tuple)
		}
		return netsim.Pass
	})

	server.Stack.Listen(80, func(c *tcp.Conn) {})
	c := client.Stack.Connect(server.Addr(), 80, tcp.Config{})
	c.OnEstablished = func() { c.Send(make([]byte, 10000)) }
	env.RunFor(time.Second)

	if len(wire) == 0 {
		t.Fatal("nothing seen on the wire")
	}
	session := c.Tuple()
	// Both chain hops appear: client→mb and mb→server subsessions.
	toMb, toSrv := false, false
	for _, tup := range wire {
		if tup == session || tup == session.Reverse() {
			t.Fatalf("original session header %v appeared on the wire", tup)
		}
		toMb = toMb || tup.DstIP == mb.Addr()
		toSrv = toSrv || tup.DstIP == server.Addr()
	}
	if !toMb || !toSrv {
		t.Errorf("wire misses a chain hop (client→mb %v, mb→server %v): %v", toMb, toSrv, wire)
	}
}

func TestChainPolicyStacks(t *testing.T) {
	env := lab.NewEnv(2)
	link := netsim.LinkConfig{Delay: 100 * time.Microsecond}
	a := env.AddNode("a", lab.HostOptions{Link: link, Stack: true, Agent: true})
	m1 := env.AddNode("m1", lab.HostOptions{Link: link, App: &mbox.Forwarder{}})
	m2 := env.AddNode("m2", lab.HostOptions{Link: link, App: &mbox.Forwarder{}})
	b := env.AddNode("b", lab.HostOptions{Link: link, Stack: true, Agent: true})
	env.Net.ComputeRoutes()
	// Two policies on the same agent: port 80 via m1, port 81 via m2.
	env.ChainPolicy(a, 80, m1)
	env.ChainPolicy(a, 81, m2)

	got80, got81 := 0, 0
	b.Stack.Listen(80, func(c *tcp.Conn) { c.OnData = func(p []byte) { got80 += len(p) } })
	b.Stack.Listen(81, func(c *tcp.Conn) { c.OnData = func(p []byte) { got81 += len(p) } })
	c80 := a.Stack.Connect(b.Addr(), 80, tcp.Config{})
	c80.OnEstablished = func() { c80.Send([]byte("eighty")) }
	c81 := a.Stack.Connect(b.Addr(), 81, tcp.Config{})
	c81.OnEstablished = func() { c81.Send([]byte("eighty-one")) }
	env.RunFor(time.Second)

	if got80 != 6 || got81 != 10 {
		t.Fatalf("transfers: %d/%d", got80, got81)
	}
	f1 := m1.Agent.App.(*mbox.Forwarder)
	f2 := m2.Agent.App.(*mbox.Forwarder)
	if f1.Packets == 0 || f2.Packets == 0 {
		t.Errorf("policies not routed distinctly: m1=%d m2=%d", f1.Packets, f2.Packets)
	}
}

// TestLine checks the overhead figures' testbed: both variants wire the
// same links in the same address order, and a short bulk run from every
// client to its server crosses every middlebox, never the router.
func TestLine(t *testing.T) {
	link := netsim.LinkConfig{Delay: 20 * time.Microsecond, Bandwidth: netsim.Gbps(1)}
	for _, size := range []struct{ pairs, n int }{{1, 1}, {1, 4}, {4, 1}} {
		var wiring [2][][][2]packet.Addr
		for v, dysco := range []bool{false, true} {
			name := fmt.Sprintf("pairs=%d n=%d dysco=%v", size.pairs, size.n, dysco)
			env := lab.NewEnv(1)
			clients, mids, servers := env.Line(link, dysco, size.pairs, size.n)
			line := slices.Concat(clients, mids, servers)
			for i, node := range line {
				if i > 0 && node.Addr() <= line[i-1].Addr() {
					t.Errorf("%s: %s is not after %s in address order", name, node.Host.Name, line[i-1].Host.Name)
				}
				var hops [][2]packet.Addr
				for _, l := range node.Host.Links() {
					hops = append(hops, [2]packet.Addr{l.From(), l.To()})
				}
				wiring[v] = append(wiring[v], hops)
			}
			if dysco {
				for _, c := range clients {
					env.ChainPolicy(c, 5001, mids...)
				}
			}
			for i, c := range clients {
				s := servers[i]
				app.NewSink(env.Eng, time.Second).Serve(s.Stack, 5001)
				app.NewSource(c.Stack.Connect(s.Addr(), 5001, tcp.Config{}), 64<<10)
			}
			env.RunFor(50 * time.Millisecond)
			for _, m := range mids {
				if dysco && m.Agent.Stats.PacketsRewritten == 0 {
					t.Errorf("%s: %s rewrote no packets", name, m.Host.Name)
				}
				if !dysco && m.Host.Stats.Forwarded == 0 {
					t.Errorf("%s: %s forwarded no packets", name, m.Host.Name)
				}
			}
			if got := len(env.Router.Links()); got != 0 {
				t.Errorf("%s: the router has %d links", name, got)
			}
			if got := env.Router.Stats.PacketsIn; got != 0 {
				t.Errorf("%s: %d packets crossed the router", name, got)
			}
		}
		if !reflect.DeepEqual(wiring[0], wiring[1]) {
			t.Errorf("pairs=%d n=%d: the variants' links differ:\nbaseline %v\ndysco    %v",
				size.pairs, size.n, wiring[0], wiring[1])
		}
	}
}
