// Package tcp is a userspace TCP implementation running over the netsim
// substrate. It provides what the paper's unmodified Linux host stacks
// provide underneath Dysco: the three-way handshake, cumulative
// acknowledgments, Reno congestion control with fast retransmit and RTO,
// selective acknowledgments (with the Linux behaviour of discarding
// packets whose SACK blocks carry invalid sequence numbers), timestamps
// (with PAWS-style rejection of stale values), window scaling, and
// per-direction FIN teardown.
//
// Dysco agents operate entirely below this package, rewriting packets at
// the host boundary; nothing in this package knows Dysco exists.
package tcp

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Config carries per-connection TCP parameters.
type Config struct {
	// DisableSACK turns off offering selective acknowledgments (on by
	// default).
	DisableSACK bool
}

// The fixed local parameters every connection uses, the Linux defaults:
// the SYN offers MSS 1460, window-scale shift 7, SACK (unless
// Config.DisableSACK) and timestamps, and Nagle's algorithm coalesces
// sub-MSS writes while data is in flight.
const (
	offerMSS    = 1460
	offerWScale = int8(7)
	// recvBuf is the receive buffer in bytes, which bounds the
	// advertised window.
	recvBuf = 4 << 20
	// minRTO/maxRTO bound the retransmission timeout.
	minRTO = 200 * time.Millisecond
	maxRTO = 60 * time.Second
	// initialCwndSegs is the initial congestion window in segments
	// (RFC 6928).
	initialCwndSegs = 10
)

// Stack is the per-host TCP instance. It registers itself as the host's
// TCP demultiplexer.
type Stack struct {
	Host *netsim.Host
	eng  *sim.Engine

	listeners map[packet.Port]func(*Conn)
	conns     map[packet.FiveTuple]*Conn // keyed by local tuple (Src=local)
	portConns map[packet.Port]int        // live connections per local port (addConn/removeConn)
	nextPort  packet.Port

	// tsOffset randomizes the timestamp clock per stack, as real hosts'
	// TS clocks are unsynchronized; Dysco's timestamp translation across
	// spliced sessions is meaningless without it.
	tsOffset uint32

	// Stats
	Accepted  uint64
	Connected uint64
	RSTsSent  uint64

	// obs receives retransmission/RTO events for every connection on this
	// stack (nil = observability off; emissions are then no-ops).
	obs *obs.Recorder
}

// SetRecorder attaches an event recorder to this stack: retransmissions
// and retransmission timeouts on every connection are then reported as
// structured events and counted in the hub's metrics registry. Pass nil
// to detach. Safe to call at any time.
func (s *Stack) SetRecorder(r *obs.Recorder) { s.obs = r }

// Recorder returns the stack's recorder (nil when not observed).
func (s *Stack) Recorder() *obs.Recorder { return s.obs }

// NewStack attaches a TCP stack to a host.
func NewStack(h *netsim.Host) *Stack {
	s := &Stack{
		Host:      h,
		eng:       h.Net.Eng,
		listeners: make(map[packet.Port]func(*Conn)),
		conns:     make(map[packet.FiveTuple]*Conn),
		portConns: make(map[packet.Port]int),
		nextPort:  32768,
		tsOffset:  h.Net.Eng.Rand().Uint32(),
	}
	h.SetTCPDeliver(s.deliver)
	return s
}

// Listen registers an accept callback for a local port. Each new inbound
// connection is announced through onAccept once established.
func (s *Stack) Listen(port packet.Port, onAccept func(*Conn)) {
	s.listeners[port] = onAccept
}

// allocPort returns an unused ephemeral port.
func (s *Stack) allocPort() packet.Port {
	for i := 0; i < 65536; i++ {
		p := s.nextPort
		s.nextPort++
		if s.nextPort == 0 {
			s.nextPort = 32768
		}
		if s.portConns[p] == 0 {
			return p
		}
	}
	panic("tcp: out of ephemeral ports")
}

// Connect opens a connection to dst:dstPort with the given config and
// returns the connection in SYN-SENT state. Completion is reported via
// conn.OnEstablished.
func (s *Stack) Connect(dst packet.Addr, dstPort packet.Port, cfg Config) *Conn {
	tuple := packet.FiveTuple{
		Proto:   packet.ProtoTCP,
		SrcIP:   s.Host.Addr,
		DstIP:   dst,
		SrcPort: s.allocPort(),
		DstPort: dstPort,
	}
	c := newConn(s, tuple, cfg)
	s.addConn(c)
	c.startActiveOpen()
	return c
}

// deliver demultiplexes an inbound TCP packet to its connection, or to a
// listener for SYNs, or answers with RST.
func (s *Stack) deliver(p *packet.Packet) {
	local := p.Tuple.Reverse() // key from our perspective
	if c, ok := s.conns[local]; ok {
		c.input(p)
		return
	}
	if p.Flags.Has(packet.FlagSYN) && !p.Flags.Has(packet.FlagACK) {
		if onAccept, ok := s.listeners[p.Tuple.DstPort]; ok {
			c := newConn(s, local, Config{})
			c.onAccept = onAccept
			s.addConn(c)
			c.startPassiveOpen(p)
			return
		}
	}
	if !p.Flags.Has(packet.FlagRST) {
		s.sendRST(p)
	}
}

func (s *Stack) sendRST(in *packet.Packet) {
	s.RSTsSent++
	rst := packet.NewTCP(in.Tuple.Reverse(), packet.FlagRST|packet.FlagACK, in.Ack, in.SeqEnd(), nil)
	s.Host.Send(rst)
}

// addConn and removeConn are the only places a connection enters and
// leaves the stack, so portConns is exact and allocPort never searches.
func (s *Stack) addConn(c *Conn) {
	s.conns[c.tuple] = c
	s.portConns[c.tuple.SrcPort]++
}

func (s *Stack) removeConn(c *Conn) {
	if s.conns[c.tuple] == c { // idempotent, as the bare delete was
		delete(s.conns, c.tuple)
		s.portConns[c.tuple.SrcPort]--
	}
}

// Conns returns the number of live connections (all states but CLOSED).
func (s *Stack) Conns() int { return len(s.conns) }

// tsNow returns the timestamp-option clock value: virtual milliseconds
// plus a per-host random offset.
func (s *Stack) tsNow() uint32 {
	return s.tsOffset + uint32(s.eng.Now()/time.Millisecond)
}

// TSNow exposes the stack's timestamp clock (Dysco splice needs it to
// compute timestamp deltas).
func (s *Stack) TSNow() uint32 { return s.tsNow() }

// Find returns the connection whose local five-tuple (Src = this host's
// side) matches, or nil.
func (s *Stack) Find(local packet.FiveTuple) *Conn { return s.conns[local] }

// String identifies the stack by host.
func (s *Stack) String() string { return fmt.Sprintf("tcp@%s", s.Host.Name) }
