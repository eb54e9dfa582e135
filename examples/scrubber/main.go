// Scrubber insertion: the policy server redirects ongoing sessions through
// a packet scrubber when traffic looks suspicious (§1, §2.2) — no
// controller rules, no connection resets; the client-side agent anchors a
// reconfiguration that inserts the scrubber into the live chain. It exits 1
// unless one session was triggered, the signature was dropped, and the
// session is still ESTABLISHED.
//
//	go run ./examples/scrubber
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/lab"
	"repro/internal/mbox"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/tcp"
)

func main() {
	link := netsim.LinkConfig{Delay: 200 * time.Microsecond, Bandwidth: netsim.Gbps(1)}
	env := lab.NewEnv(11)
	client := env.AddNode("client", lab.HostOptions{Link: link, Stack: true, Agent: true})
	monitor := env.AddNode("monitor", lab.HostOptions{Link: link, App: mbox.NewMonitor()})
	scrubApp := &mbox.Scrubber{Signatures: [][]byte{[]byte("ATTACK")}}
	scrub := env.AddNode("scrubber", lab.HostOptions{Link: link, App: scrubApp})
	server := env.AddNode("server", lab.HostOptions{Link: link, Stack: true, Agent: true})
	env.Net.ComputeRoutes()
	env.ChainPolicy(client, 80, monitor) // initial chain: just the monitor

	received := 0
	server.Stack.Listen(80, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { received += len(b) }
	})
	conn := client.Stack.Connect(server.Addr(), 80, tcp.Config{})
	conn.OnEstablished = func() {
		if err := conn.Send(make([]byte, 100<<10)); err != nil {
			fmt.Println("send:", err)
		}
	}
	env.RunFor(2 * time.Second)
	fmt.Printf("before insertion: server has %d bytes; scrubber inspected %d packets\n",
		received, scrubApp.Inspected)

	// The measurement system flags this traffic; the policy server
	// commands insertion of the scrubber into all matching live sessions.
	ps := policy.NewServer()
	n := ps.InsertForMatching(client.Agent, policy.Predicate{DstPort: 80}, scrub.Addr())
	fmt.Printf("policy server triggered scrubber insertion into %d live session(s)\n", n)
	env.RunFor(2 * time.Second)

	// Clean traffic passes through the scrubber...
	if err := conn.Send(make([]byte, 50<<10)); err != nil {
		fmt.Println("send:", err)
	}
	env.RunFor(2 * time.Second)
	fmt.Printf("after insertion: server has %d bytes; scrubber inspected %d packets, dropped %d\n",
		received, scrubApp.Inspected, scrubApp.Dropped)

	// ...and malicious payloads are now dropped mid-session.
	before := received
	if err := conn.Send([]byte("data containing ATTACK signature")); err != nil {
		fmt.Println("send:", err)
	}
	env.RunFor(2 * time.Second)
	dropped := scrubApp.Dropped > 0 && received == before
	fmt.Printf("malicious payload dropped by scrubber: %v (dropped=%d)\n", dropped, scrubApp.Dropped)
	fmt.Printf("\nthe session was never reset: state=%v; the scrubber now sits\n", conn.State())
	fmt.Println("between the client and the monitor, inserted while the session ran.")
	if n != 1 || !dropped || conn.State() != tcp.StateEstablished {
		fmt.Fprintf(os.Stderr, "scrubber: triggered=%d (want 1), signature dropped=%v, state=%v\n", n, dropped, conn.State())
		os.Exit(1)
	}
}
