// Quickstart: a three-host Dysco deployment — client, one monitoring
// middlebox, server — showing service-chain establishment, the original
// session header at the application, and the subsession five-tuples on
// the wire. It exits 1 if the server did not receive every byte sent.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/lab"
	"repro/internal/mbox"
	"repro/internal/netsim"
	"repro/internal/tcp"
)

func main() {
	// Build a star testbed: every host hangs off a router (Figure 11
	// style). Each node gets a TCP stack and/or a Dysco agent.
	link := netsim.LinkConfig{Delay: 100 * time.Microsecond, Bandwidth: netsim.Gbps(1)}
	env := lab.NewEnv(1)
	client := env.AddNode("client", lab.HostOptions{Link: link, Stack: true, Agent: true})
	monitor := mbox.NewMonitor()
	mb := env.AddNode("monitor", lab.HostOptions{Link: link, App: monitor})
	server := env.AddNode("server", lab.HostOptions{Link: link, Stack: true, Agent: true})
	env.Net.ComputeRoutes()

	// Policy: sessions to port 80 are chained through the monitor. The
	// agent puts the session header and address list in the SYN payload;
	// every hop rewrites between session and subsession five-tuples.
	env.ChainPolicy(client, 80, mb)

	// A plain TCP server and client — no application changes.
	const sent = 256 << 10
	var received int
	server.Stack.Listen(80, func(c *tcp.Conn) {
		fmt.Printf("server accepted session %v (the ORIGINAL header)\n", c.Tuple())
		c.OnData = func(b []byte) { received += len(b) }
	})
	conn := client.Stack.Connect(server.Addr(), 80, tcp.Config{})
	conn.OnEstablished = func() {
		fmt.Printf("client established %v\n", conn.Tuple())
		if err := conn.Send(make([]byte, sent)); err != nil {
			fmt.Println("send:", err)
		}
	}

	env.RunFor(5 * time.Second)

	fmt.Printf("\nserver received %d bytes\n", received)
	fmt.Printf("middlebox saw the session with its original header:\n")
	var lines []string
	for tuple, e := range monitor.Sessions {
		lines = append(lines, fmt.Sprintf("  %v: %d packets, %d bytes", tuple, e.Packets, e.Bytes))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
	fmt.Printf("\nagent state:\n")
	for _, n := range []*lab.Node{client, mb, server} {
		fmt.Printf("  %-8s sessions=%d rewrites=%d\n",
			n.Host.Name, n.Agent.Sessions(), n.Agent.Stats.PacketsRewritten)
	}
	fmt.Println("\npackets between hosts carried subsession five-tuples;")
	fmt.Println("applications and the TCP stacks saw only the original session.")
	if received != sent {
		fmt.Fprintf(os.Stderr, "quickstart: server received %d of %d bytes\n", received, sent)
		os.Exit(1)
	}
}
