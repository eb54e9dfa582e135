package steering_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/lab"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/steering"
	"repro/internal/tcp"
)

func link() netsim.LinkConfig {
	return netsim.LinkConfig{Delay: 100 * time.Microsecond, Bandwidth: netsim.Gbps(10)}
}

// TestRuleSteeringThroughMiddlebox verifies the baseline: the router
// becomes a rule-driven switch steering a session's packets through a
// forwarding middlebox host.
func TestRuleSteeringThroughMiddlebox(t *testing.T) {
	env := lab.NewEnv(1)
	client := env.AddNode("client", lab.HostOptions{Link: link(), Stack: true})
	mb := env.AddNode("mb", lab.HostOptions{Link: link()})
	server := env.AddNode("server", lab.HostOptions{Link: link(), Stack: true})
	mb.Host.Forwarding = true // baseline middlebox is a bump in the wire
	env.Net.ComputeRoutes()

	ctl := steering.NewController()
	sw := steering.NewSwitch(env.Router)
	ctl.AddSwitch(sw)

	var got bytes.Buffer
	server.Stack.Listen(80, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { got.Write(b) }
	})
	c := client.Stack.Connect(server.Addr(), 80, tcp.Config{})
	// Controller installs the per-session rules before the SYN flows —
	// the "real-time response from the central controller" of §1.
	n := ctl.InstallChain(c.Tuple(), []packet.Addr{mb.Addr()})
	if n == 0 {
		t.Fatal("no rules installed")
	}
	c.OnEstablished = func() { c.Send([]byte("steered")) }
	env.RunFor(2 * time.Second)

	if got.String() != "steered" {
		t.Fatalf("got %q", got.String())
	}
	if mb.Host.Stats.Forwarded == 0 {
		t.Error("middlebox saw no steered packets")
	}
	if sw.Hits == 0 {
		t.Error("switch rules never matched")
	}
	if ctl.TotalRules() != 2 {
		t.Errorf("rules = %d, want 2 (one per direction)", ctl.TotalRules())
	}
	ctl.RemoveChain(c.Tuple())
	if ctl.TotalRules() != 0 {
		t.Errorf("rules after removal = %d", ctl.TotalRules())
	}
}

// TestRuleStateGrowsPerSession demonstrates the §1 scaling argument: rule
// state grows with sessions, while Dysco agents keep state only at hosts.
func TestRuleStateGrowsPerSession(t *testing.T) {
	env := lab.NewEnv(2)
	client := env.AddNode("client", lab.HostOptions{Link: link(), Stack: true})
	mb := env.AddNode("mb", lab.HostOptions{Link: link()})
	server := env.AddNode("server", lab.HostOptions{Link: link(), Stack: true})
	mb.Host.Forwarding = true
	env.Net.ComputeRoutes()
	ctl := steering.NewController()
	ctl.AddSwitch(steering.NewSwitch(env.Router))

	const sessions = 50
	for i := 0; i < sessions; i++ {
		tup := packet.FiveTuple{
			Proto: packet.ProtoTCP, SrcIP: client.Addr(), DstIP: server.Addr(),
			SrcPort: packet.Port(10000 + i), DstPort: 80,
		}
		ctl.InstallChain(tup, []packet.Addr{mb.Addr()})
	}
	if ctl.TotalRules() != 2*sessions {
		t.Errorf("rules = %d, want %d", ctl.TotalRules(), 2*sessions)
	}
	if ctl.Events != sessions {
		t.Errorf("controller events = %d, want one per session", ctl.Events)
	}
}

// TestFiveTupleModifierBreaksRules shows the failure mode Dysco's tags
// solve (§1): a middlebox that rewrites the five-tuple makes the
// controller's egress-side rules useless.
func TestFiveTupleModifierBreaksRules(t *testing.T) {
	env := lab.NewEnv(3)
	client := env.AddNode("client", lab.HostOptions{Link: link(), Stack: true})
	server := env.AddNode("server", lab.HostOptions{Link: link(), Stack: true})
	env.Net.ComputeRoutes()
	sw := steering.NewSwitch(env.Router)

	// A rule matching the pre-NAT tuple never matches post-NAT packets.
	pre := packet.FiveTuple{
		Proto: packet.ProtoTCP, SrcIP: client.Addr(), DstIP: server.Addr(),
		SrcPort: 1111, DstPort: 80,
	}
	sw.Install(pre, server.Addr())
	post := pre
	post.SrcIP = packet.MakeAddr(198, 51, 100, 1) // rewritten by a NAT
	post.SrcPort = 30000

	p := packet.NewTCP(post, packet.FlagACK, 1, 1, nil)
	env.Router.InjectLocal(p)
	env.RunFor(time.Millisecond)
	if sw.Hits != 0 {
		t.Error("rule matched a NATed packet; it must not")
	}
	if sw.Misses == 0 {
		t.Error("miss not counted")
	}
}
