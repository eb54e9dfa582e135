// Package lab builds the simulated testbeds shared by the integration
// tests, the examples, and the benchmark harness: hosts with TCP stacks
// and Dysco agents in a star topology around a router (the shape of the
// paper's Figure 11 testbed), the client–middleboxes–server line of the
// overhead figures, plus line-chain policies.
package lab

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mbox"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// Node bundles a host with its optional stack and agent.
type Node struct {
	Host  *netsim.Host
	Stack *tcp.Stack
	Agent *core.Agent
}

// Addr is shorthand for the node's address.
func (n *Node) Addr() packet.Addr { return n.Host.Addr }

// Env is a simulated testbed.
type Env struct {
	Eng    *sim.Engine
	Net    *netsim.Network
	Router *netsim.Host
	nodes  map[string]*Node
	names  []string
	next   byte
	hub    *obs.Hub
}

// NewEnv creates an engine, a network, and a central forwarding router at
// 10.0.0.254.
func NewEnv(seed int64) *Env {
	eng := sim.NewEngine(seed)
	n := netsim.New(eng)
	router := n.AddHost("router", packet.MakeAddr(10, 0, 0, 254))
	router.Forwarding = true
	return &Env{
		Eng:    eng,
		Net:    n,
		Router: router,
		nodes:  make(map[string]*Node),
		next:   1,
	}
}

// HostOptions configures a new node.
type HostOptions struct {
	// Link is the access link to the router (both directions).
	Link netsim.LinkConfig
	// Stack attaches a TCP stack.
	Stack bool
	// Agent attaches a Dysco agent with the given config.
	Agent    bool
	AgentCfg core.Config
	// App is the packet-level middlebox application (implies Agent).
	App core.App
	// NoRouterLink skips the default access link to the router, for a
	// host wired otherwise (as Line wires its hosts).
	NoRouterLink bool
}

// AddNode creates a host connected to the router.
func (e *Env) AddNode(name string, opt HostOptions) *Node {
	if _, dup := e.nodes[name]; dup {
		panic(fmt.Sprintf("lab: duplicate node %q", name))
	}
	addr := packet.MakeAddr(10, 0, byte(e.next>>7), e.next)
	e.next++
	if e.next == 254 {
		e.next++
	}
	h := e.Net.AddHost(name, addr)
	if !opt.NoRouterLink {
		e.Net.Connect(h, e.Router, opt.Link)
	}
	node := &Node{Host: h}
	if opt.Stack {
		node.Stack = tcp.NewStack(h)
	}
	if opt.Agent || opt.App != nil {
		node.Agent = core.NewAgent(h, opt.AgentCfg)
		node.Agent.App = opt.App
		if node.Stack != nil {
			s := node.Stack
			node.Agent.SetFindConn(func(local packet.FiveTuple) core.ConnView {
				if c := s.Find(local); c != nil {
					return c
				}
				return nil
			})
		}
	}
	e.nodes[name] = node
	e.names = append(e.names, name)
	if e.hub != nil {
		e.attach(node)
	}
	return node
}

// Line adds pairs clients, n ≥ 1 middleboxes and pairs servers, in that
// address order, wires them clients–m1–…–mn–servers over link with no
// router links, and computes the routes: the testbed of the paper's
// overhead figures (§5.1–§5.2). With dysco, the clients and servers run
// agents and the middleboxes run mbox.Forwarder; the caller steers
// sessions through mids with ChainPolicy. Without dysco, the middleboxes
// forward by IP routing over the same links, the paper's baseline.
func (e *Env) Line(link netsim.LinkConfig, dysco bool, pairs, n int) (clients, mids, servers []*Node) {
	end := func(role string, i int) *Node {
		if pairs > 1 {
			role = fmt.Sprintf("%s%d", role, i)
		}
		return e.AddNode(role, HostOptions{Stack: true, Agent: dysco, NoRouterLink: true})
	}
	for i := range pairs {
		clients = append(clients, end("client", i))
	}
	for i := 1; i <= n; i++ {
		opt := HostOptions{NoRouterLink: true}
		if dysco {
			opt.App = &mbox.Forwarder{}
		}
		m := e.AddNode(fmt.Sprintf("m%d", i), opt)
		m.Host.Forwarding = !dysco
		mids = append(mids, m)
	}
	for i := range pairs {
		servers = append(servers, end("server", i))
	}
	for _, c := range clients {
		e.Net.Connect(c.Host, mids[0].Host, link)
	}
	for i := 1; i < n; i++ {
		e.Net.Connect(mids[i-1].Host, mids[i].Host, link)
	}
	for _, s := range servers {
		e.Net.Connect(mids[n-1].Host, s.Host, link)
	}
	e.Net.ComputeRoutes()
	return clients, mids, servers
}

// Observe turns on structured observability for the testbed: every node
// (existing and future) gets a per-host event recorder feeding one hub,
// whose merged event stream and metrics registry the caller inspects or
// hashes. Idempotent; returns the same hub on repeat calls.
func (e *Env) Observe() *obs.Hub {
	if e.hub == nil {
		e.hub = obs.NewHub(e.Eng)
		for _, name := range e.names {
			e.attach(e.nodes[name])
		}
	}
	return e.hub
}

// Hub returns the observability hub, or nil when Observe was never called.
func (e *Env) Hub() *obs.Hub { return e.hub }

func (e *Env) attach(n *Node) {
	r := e.hub.Recorder(n.Host.Name)
	if n.Agent != nil {
		n.Agent.SetRecorder(r)
	}
	if n.Stack != nil {
		n.Stack.SetRecorder(r)
	}
}

// Node returns a node by name (nil if absent).
func (e *Env) Node(name string) *Node { return e.nodes[name] }

// RunFor advances virtual time by d.
func (e *Env) RunFor(d sim.Time) { e.Eng.Run(e.Eng.Now() + d) }

// RunUntil advances virtual time to the absolute instant t.
func (e *Env) RunUntil(t sim.Time) { e.Eng.Run(t) }

// ChainPolicy installs a policy on the node's agent steering sessions to
// dstPort through the listed middlebox nodes, in order.
func (e *Env) ChainPolicy(n *Node, dstPort packet.Port, mboxes ...*Node) {
	var chain []packet.Addr
	for _, m := range mboxes {
		chain = append(chain, m.Addr())
	}
	prev := n.Agent.Policy
	n.Agent.Policy = func(p *packet.Packet) []packet.Addr {
		if p.Tuple.DstPort == dstPort {
			return chain
		}
		if prev != nil {
			return prev(p)
		}
		return nil
	}
}
