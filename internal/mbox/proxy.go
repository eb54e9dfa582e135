package mbox

import (
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// Proxy is a TCP-terminating middlebox (layer-7 load balancer, cache
// front-end): the local Dysco agent presents the client's session to the
// host TCP stack; the proxy accepts it, opens a second connection to a
// backend, and relays bytes both ways in user space.
//
// Splicing the two connections (the paper's intercepted splice() call,
// §4.2) computes the §3.4 deltas and triggers the proxy's removal from
// the chain; relaying continues through the TCP stacks until the old path
// drains, after which the agent detaches both connections.
type Proxy struct {
	Stack *tcp.Stack
	Agent *core.Agent
	// Backend selects the server address for a new client connection.
	Backend func(client *tcp.Conn) (packet.Addr, packet.Port)
	// AutoSpliceAfter, when positive, triggers splice-and-removal once
	// that many bytes have been relayed client→server on a session (a
	// load balancer splices right after the request); 0 disables.
	AutoSpliceAfter int
	// RelayCostPerKB is CPU charged per KB relayed in user space; this is
	// what makes the proxy the bottleneck of Figure 12. Default 0.
	RelayCostPerKB sim.Time

	// Accepted counts client connections; Spliced counts splice triggers.
	Accepted int
	Spliced  int
	Relayed  uint64

	pairs []*ProxyPair
}

// ProxyPair is one proxied session: the client-facing and backend-facing
// connections.
type ProxyPair struct {
	Client *tcp.Conn
	Server *tcp.Conn
	proxy  *Proxy
	right  uint64 // client→server bytes relayed
	left   uint64
	// wanted latches a Splice request until both connections are up;
	// spliced is set once it was carried out, err is what it returned.
	wanted  bool
	spliced bool
	err     error
}

// NewProxy wires a proxy onto a host's stack and agent, listening on port.
func NewProxy(stack *tcp.Stack, agent *core.Agent, port packet.Port, backend func(*tcp.Conn) (packet.Addr, packet.Port)) *Proxy {
	p := &Proxy{Stack: stack, Agent: agent, Backend: backend}
	stack.Listen(port, p.accept)
	return p
}

// Pairs returns the live proxied sessions.
func (p *Proxy) Pairs() []*ProxyPair { return p.pairs }

func (p *Proxy) accept(client *tcp.Conn) {
	p.Accepted++
	addr, port := p.Backend(client)
	server := p.Stack.Connect(addr, port, tcp.Config{})
	pair := &ProxyPair{Client: client, Server: server, proxy: p}
	p.pairs = append(p.pairs, pair)

	client.OnData = func(b []byte) { pair.relay(b, server, true) }
	server.OnData = func(b []byte) { pair.relay(b, client, false) }
	// Closing a connection still in SYN-SENT would drop it and the bytes
	// it holds, so a client FIN that beats the backend handshake is passed
	// on once the backend is up.
	client.OnPeerFIN = func() {
		if server.State() != tcp.StateSynSent {
			server.Close()
		}
	}
	server.OnPeerFIN = func() { client.Close() }
	// accept runs with the client connection already up: the backend is
	// the only side a Splice request can wait for. A client that
	// half-closed first is relayed to the end and never spliced.
	server.OnEstablished = func() {
		if client.State() == tcp.StateCloseWait {
			server.Close()
		} else if pair.wanted {
			pair.Splice()
		}
	}
	client.OnReset = func() { server.Abort() }
	server.OnReset = func() { client.Abort() }
}

func (pair *ProxyPair) relay(b []byte, to *tcp.Conn, rightward bool) {
	p := pair.proxy
	p.Relayed += uint64(len(b))
	if rightward {
		pair.right += uint64(len(b))
	} else {
		pair.left += uint64(len(b))
	}
	if p.RelayCostPerKB > 0 {
		p.Stack.Host.CPU.Acquire(sim.Time(int64(p.RelayCostPerKB) * int64(len(b)) / 1024))
	}
	//lint:ignore errdrop the outbound side may be closing mid-relay; the sender's TCP retransmission covers the gap
	to.Send(b)
	if rightward && !pair.wanted && p.AutoSpliceAfter > 0 && pair.right >= uint64(p.AutoSpliceAfter) {
		pair.Splice()
	}
}

// Spliced reports whether this session has been spliced out.
func (pair *ProxyPair) Spliced() bool { return pair.spliced }

// Splice requests this session's splice-and-removal. It is carried out at
// once if both connections are ESTABLISHED, else when the backend
// connection comes up; a session whose client half-closed before that is
// never spliced. Splice returns the error of the splice once it was
// carried out, nil before; repeated calls change nothing.
func (pair *ProxyPair) Splice() error {
	pair.wanted = true
	if !pair.spliced && pair.Server.State() == tcp.StateEstablished && pair.Client.State() == tcp.StateEstablished {
		pair.spliced = true
		pair.proxy.Spliced++
		pair.err = pair.proxy.Agent.Splice(pair.Client, pair.Server)
	}
	return pair.err
}
