// State migration: replace a stateful firewall with another instance
// mid-session (§5.3, Figure 15). The left anchor locks the segment, sets
// up the new path through Firewall2, then waits while Firewall1's
// conntrack entry for the session is exported, shipped, and imported at
// Firewall2 — only then does data move to the new path, so the migrated
// session is never blocked.
//
//	go run ./examples/statemigration
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/mbox"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcp"
)

func main() {
	link := netsim.LinkConfig{Delay: 200 * time.Microsecond, Bandwidth: netsim.Gbps(1)}
	env := lab.NewEnv(15)
	client := env.AddNode("client", lab.HostOptions{Link: link, Stack: true, Agent: true})
	fw1App := mbox.NewFirewall(env.Eng, mbox.FirewallRule{DstPort: 80})
	fw2App := mbox.NewFirewall(env.Eng, mbox.FirewallRule{DstPort: 80})
	fw1 := env.AddNode("firewall1", lab.HostOptions{Link: link, App: fw1App})
	fw2 := env.AddNode("firewall2", lab.HostOptions{Link: link, App: fw2App})
	server := env.AddNode("server", lab.HostOptions{Link: link, Stack: true, Agent: true})
	env.Net.ComputeRoutes()
	env.ChainPolicy(client, 80, fw1)

	received := 0
	server.Stack.Listen(80, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { received += len(b) }
	})
	conn := client.Stack.Connect(server.Addr(), 80, tcp.Config{})
	conn.OnEstablished = func() {
		if err := conn.Send(make([]byte, 1<<20)); err != nil {
			fmt.Println("send:", err)
		}
	}
	env.RunFor(500 * time.Millisecond)
	fmt.Printf("running through firewall1: tracked=%d passed=%d\n", fw1App.Tracked(), fw1App.Passed)
	fmt.Printf("firewall2 before migration: tracked=%d\n", fw2App.Tracked())

	// Firewall1 goes down for maintenance: replace it with Firewall2,
	// migrating the conntrack state so the mid-stream session is accepted.
	done := false
	err := client.Agent.StartReconfig(conn.Tuple(), core.ReconfigOptions{
		RightAnchor:    server.Addr(),
		NewMiddleboxes: []packet.Addr{fw2.Addr()},
		StateFrom:      fw1.Addr(),
		StateTo:        fw2.Addr(),
		OnDone: func(ok bool, took sim.Time) {
			fmt.Printf("replacement done: ok=%v in %v (state transfer dominates)\n", ok, took)
			done = true
		},
	})
	if err != nil {
		fmt.Println("StartReconfig:", err)
		return
	}
	env.RunFor(5 * time.Second)
	if !done {
		fmt.Fprintln(os.Stderr, "statemigration: reconfiguration did not complete within 5 simulated seconds")
		os.Exit(1)
	}

	fmt.Printf("firewall2 after migration: tracked=%d imported=%d dropped=%d\n",
		fw2App.Tracked(), fw2App.Imported, fw2App.Dropped)
	if err := conn.Send(make([]byte, 100<<10)); err != nil {
		fmt.Println("send:", err)
	}
	env.RunFor(5 * time.Second)
	fmt.Printf("post-migration traffic flows through firewall2: passed=%d, dropped=%d\n",
		fw2App.Passed, fw2App.Dropped)
	fmt.Printf("server received %d bytes, no loss, no blocked packets\n", received)
}
