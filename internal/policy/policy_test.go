package policy_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/mbox"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/tcp"
)

func TestPredicateMatching(t *testing.T) {
	tup := packet.FiveTuple{
		Proto: packet.ProtoTCP,
		SrcIP: packet.MakeAddr(10, 0, 0, 1), DstIP: packet.MakeAddr(10, 0, 0, 2),
		SrcPort: 1234, DstPort: 80,
	}
	cases := []struct {
		pred policy.Predicate
		want bool
	}{
		{policy.Predicate{}, true},
		{policy.Predicate{DstPort: 80}, true},
		{policy.Predicate{DstPort: 443}, false},
		{policy.Predicate{Proto: packet.ProtoTCP, DstIP: tup.DstIP}, true},
		{policy.Predicate{SrcIP: packet.MakeAddr(9, 9, 9, 9)}, false},
		{policy.Predicate{SrcPort: 1234, DstPort: 80}, true},
	}
	for i, c := range cases {
		if got := c.pred.Matches(tup); got != c.want {
			t.Errorf("case %d (%v): Matches = %v, want %v", i, c.pred, got, c.want)
		}
	}
}

func TestPoolRoundRobinAndLeastLoad(t *testing.T) {
	a1, a2, a3 := packet.Addr(1), packet.Addr(2), packet.Addr(3)
	rr := policy.NewPool("fw", policy.RoundRobin, a1, a2, a3)
	var seq []packet.Addr
	for i := 0; i < 6; i++ {
		a, err := rr.Pick()
		if err != nil {
			t.Fatal(err)
		}
		seq = append(seq, a)
	}
	want := []packet.Addr{a1, a2, a3, a1, a2, a3}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("round robin = %v", seq)
		}
	}

	ll := policy.NewPool("dpi", policy.LeastLoad, a1, a2)
	ll.Pick() // a1 load 1
	ll.Pick() // a2 load 1
	ll.Pick() // tie → a1, load 2
	if got, _ := ll.Pick(); got != a2 {
		t.Errorf("least-load picked %v, want the less loaded a2", got)
	}
	if ll.Load(a1) != 2 || ll.Load(a2) != 2 {
		t.Errorf("loads = %d/%d", ll.Load(a1), ll.Load(a2))
	}

	empty := policy.NewPool("none", policy.RoundRobin)
	if _, err := empty.Pick(); err == nil {
		t.Error("empty pool Pick did not error")
	}
}

func TestServerCompilesChainsIntoAgents(t *testing.T) {
	env := lab.NewEnv(1)
	link := netsim.LinkConfig{Delay: 100 * time.Microsecond}
	client := env.AddNode("client", lab.HostOptions{Link: link, Stack: true, Agent: true})
	m1 := env.AddNode("fw1", lab.HostOptions{Link: link, App: &mbox.Forwarder{}})
	m2 := env.AddNode("fw2", lab.HostOptions{Link: link, App: &mbox.Forwarder{}})
	server := env.AddNode("server", lab.HostOptions{Link: link, Stack: true, Agent: true})
	env.Net.ComputeRoutes()

	ps := policy.NewServer()
	ps.AddPool(policy.NewPool("fw", policy.RoundRobin, m1.Addr(), m2.Addr()))
	ps.AddRule(policy.Rule{Pred: policy.Predicate{DstPort: 80}, Chain: []string{"fw"}})
	ps.Attach("client", client.Agent)

	got := 0
	server.Stack.Listen(80, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { got += len(b) }
	})
	// Two sessions: round robin spreads them across fw1 and fw2.
	for i := 0; i < 2; i++ {
		c := client.Stack.Connect(server.Addr(), 80, tcp.Config{})
		cc := c
		c.OnEstablished = func() { cc.Send([]byte("hi")) }
	}
	env.RunFor(2 * time.Second)
	if got != 4 {
		t.Fatalf("got %d bytes", got)
	}
	fw1 := m1.Agent.App.(*mbox.Forwarder)
	fw2 := m2.Agent.App.(*mbox.Forwarder)
	if fw1.Packets == 0 || fw2.Packets == 0 {
		t.Errorf("round robin did not spread: fw1=%d fw2=%d", fw1.Packets, fw2.Packets)
	}
	if ps.Selections != 2 {
		t.Errorf("Selections = %d, want one per session", ps.Selections)
	}
}

func TestExecCommands(t *testing.T) {
	ps := policy.NewServer()
	if _, err := ps.Exec("pool add fw rr 10.0.0.5 10.0.0.6"); err != nil {
		t.Fatalf("pool add: %v", err)
	}
	if _, err := ps.Exec("rule add dport 80 chain fw"); err != nil {
		t.Fatalf("rule add: %v", err)
	}
	out, err := ps.Exec("show rules")
	if err != nil || !strings.Contains(out, "dport 80") {
		t.Errorf("show rules = %q, %v", out, err)
	}
	out, err = ps.Exec("show pools")
	if err != nil || !strings.Contains(out, "10.0.0.5") {
		t.Errorf("show pools = %q, %v", out, err)
	}
	if _, err := ps.Exec("bogus"); err == nil {
		t.Error("unknown command accepted")
	}
	if _, err := ps.Exec("rule add dport x chain fw"); err == nil {
		t.Error("bad port accepted")
	}
	if _, err := ps.Exec("rule add dport 80"); err == nil {
		t.Error("rule without chain accepted")
	}
	if _, err := ps.Exec(""); err != nil {
		t.Error("empty line errored")
	}
	// Input from outside the program is taken whole or refused.
	for _, bad := range []string{
		"pool add bad rr 10.0.0.5x",
		"pool add bad rr 10.0.0.5.7",
		"pool add bad rr 10.0.0",
		"pool add bad rr 10.0.0.256",
		"pool add bad rr ::ffff:10.0.0.5",
		"pool add bad roundrobin 10.0.0.5",
		"rule add dst 10.0.0.5x chain fw",
		"rule add dport 70000 chain fw",
		"rule add sport -1 chain fw",
	} {
		if out, err := ps.Exec(bad); err == nil {
			t.Errorf("%q accepted: %q", bad, out)
		}
	}
	if ps.Pool("bad") != nil {
		t.Error("a refused pool was installed")
	}
	if n := len(ps.Rules()); n != 1 {
		t.Errorf("%d rules after refused rules, want 1", n)
	}
	// The compiled rule resolves through the pool.
	a := ps.Pool("fw")
	if a == nil || len(a.Instances) != 2 {
		t.Fatal("pool not installed")
	}
}

func TestInsertForMatchingLiveSessions(t *testing.T) {
	env := lab.NewEnv(2)
	link := netsim.LinkConfig{Delay: 100 * time.Microsecond, Bandwidth: netsim.Gbps(1)}
	client := env.AddNode("client", lab.HostOptions{Link: link, Stack: true, Agent: true})
	mon := env.AddNode("mon", lab.HostOptions{Link: link, App: &mbox.Forwarder{}})
	scrub := env.AddNode("scrub", lab.HostOptions{Link: link, App: &mbox.Forwarder{}})
	server := env.AddNode("server", lab.HostOptions{Link: link, Stack: true, Agent: true})
	env.Net.ComputeRoutes()
	env.ChainPolicy(client, 80, mon)

	got := 0
	server.Stack.Listen(80, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { got += len(b) }
	})
	c := client.Stack.Connect(server.Addr(), 80, tcp.Config{})
	c.OnEstablished = func() { c.Send(make([]byte, 200<<10)) }
	env.RunFor(20 * time.Millisecond)

	ps := policy.NewServer()
	n := ps.InsertForMatching(client.Agent, policy.Predicate{DstPort: 80}, scrub.Addr())
	if n != 1 {
		t.Fatalf("triggered %d insertions, want 1", n)
	}
	env.RunFor(10 * time.Second)
	if got != 200<<10 {
		t.Fatalf("data lost during insertion: %d", got)
	}
	// Traffic sent after the insertion must traverse the scrubber.
	c.Send(make([]byte, 50<<10))
	env.RunFor(5 * time.Second)
	if got != 250<<10 {
		t.Fatalf("post-insertion data lost: %d", got)
	}
	scrubApp := scrub.Agent.App.(*mbox.Forwarder)
	if scrubApp.Packets == 0 {
		t.Error("scrubber saw no packets after insertion")
	}
	// Non-matching predicate triggers nothing.
	if n := ps.InsertForMatching(client.Agent, policy.Predicate{DstPort: 443}, scrub.Addr()); n != 0 {
		t.Errorf("non-matching insert triggered %d", n)
	}
}

func TestExecInsertCommand(t *testing.T) {
	ps := policy.NewServer()
	if _, err := ps.Exec("insert nosuch 10.0.0.9"); err == nil {
		t.Error("insert with unknown agent accepted")
	}
	env := lab.NewEnv(9)
	link := netsim.LinkConfig{Delay: 100 * time.Microsecond}
	client := env.AddNode("client", lab.HostOptions{Link: link, Stack: true, Agent: true})
	ps.Attach("client", client.Agent)
	out, err := ps.Exec("insert client dport 80 10.0.0.9")
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	if out != "triggered 0 session insertions" {
		t.Errorf("out = %q", out)
	}
	if _, err := ps.Exec("insert client dport 80 bogus"); err == nil {
		t.Error("bad address accepted")
	}
}

// TestReplaceInstanceEverywhere drives the §2.2 maintenance command
// through the command interface: "replace m1 <m2>" moves every session m1
// carries onto m2 while the transfers run. No byte may be lost, and m1
// must see no packet afterwards. A stateful middlebox hands each session's
// state to the replacement, so the new firewall tracks the mid-stream
// sessions instead of dropping them (Figure 15).
func TestReplaceInstanceEverywhere(t *testing.T) {
	const sessions, first, second = 2, 200 << 10, 50 << 10
	cases := []struct {
		name   string
		newApp func(*lab.Env) core.App
	}{
		{"forwarder", func(*lab.Env) core.App { return &mbox.Forwarder{} }},
		{"firewall", func(env *lab.Env) core.App {
			return mbox.NewFirewall(env.Eng, mbox.FirewallRule{DstPort: 80})
		}},
	}
	packets := func(a core.App) uint64 {
		switch a := a.(type) {
		case *mbox.Forwarder:
			return a.Packets
		case *mbox.Firewall:
			return a.Passed + a.Dropped
		}
		panic(fmt.Sprintf("no packet count for %T", a))
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			link := netsim.LinkConfig{Delay: 200 * time.Microsecond, Bandwidth: netsim.Gbps(1)}
			env := lab.NewEnv(2)
			app1, app2 := tc.newApp(env), tc.newApp(env)
			client := env.AddNode("client", lab.HostOptions{Link: link, Stack: true, Agent: true})
			m1 := env.AddNode("m1", lab.HostOptions{Link: link, App: app1})
			m2 := env.AddNode("m2", lab.HostOptions{Link: link, App: app2})
			server := env.AddNode("server", lab.HostOptions{Link: link, Stack: true, Agent: true})
			env.Net.ComputeRoutes()

			ps := policy.NewServer()
			ps.Attach("client", client.Agent)
			ps.Attach("m1", m1.Agent)
			for _, cmd := range []string{
				fmt.Sprintf("pool add mb rr %v", m1.Addr()),
				"rule add dport 80 chain mb",
			} {
				if _, err := ps.Exec(cmd); err != nil {
					t.Fatalf("%s: %v", cmd, err)
				}
			}

			got := 0
			server.Stack.Listen(80, func(c *tcp.Conn) {
				c.OnData = func(b []byte) { got += len(b) }
			})
			var conns []*tcp.Conn
			for i := 0; i < sessions; i++ {
				c := client.Stack.Connect(server.Addr(), 80, tcp.Config{})
				c.OnEstablished = func() { c.Send(make([]byte, first)) }
				conns = append(conns, c)
			}
			env.RunFor(5 * time.Millisecond)
			if got == sessions*first {
				t.Fatal("transfers finished before the replace; it would not run mid-stream")
			}

			out, err := ps.Exec(fmt.Sprintf("replace m1 %v", m2.Addr()))
			if err != nil {
				t.Fatalf("replace: %v", err)
			}
			if want := fmt.Sprintf("triggered %d session reconfigurations", sessions); out != want {
				t.Fatalf("replace = %q, want %q", out, want)
			}
			env.RunFor(10 * time.Second)
			if got != sessions*first {
				t.Fatalf("data lost during replacement: %d of %d bytes", got, sessions*first)
			}

			seen1 := packets(app1)
			for _, c := range conns {
				c.Send(make([]byte, second))
			}
			env.RunFor(5 * time.Second)
			if want := sessions * (first + second); got != want {
				t.Fatalf("post-replacement transfer: %d of %d bytes", got, want)
			}
			if packets(app1) != seen1 {
				t.Errorf("m1 saw %d packets after the replacement", packets(app1)-seen1)
			}
			if packets(app2) == 0 {
				t.Error("m2 saw no packets after the replacement")
			}
			if fw2, ok := app2.(*mbox.Firewall); ok {
				if fw2.Imported != sessions {
					t.Errorf("state not migrated: imported=%d, want %d", fw2.Imported, sessions)
				}
				if fw2.Dropped != 0 {
					t.Errorf("new firewall dropped %d packets", fw2.Dropped)
				}
			}
		})
	}
}
