// Package packet models the packets exchanged in the simulated network:
// an IPv4-like network header, TCP and UDP transport headers, TCP options
// (including the experimental option 253 used for Dysco SYN tags), and a
// wire format with full and incremental (RFC 1624) Internet checksums.
//
// Packets travel through the simulator as structs for speed, but the wire
// serialization is real, tested, and used wherever checksum behaviour
// matters (the checksum-offload experiments of Figure 8).
package packet

import "fmt"

// Addr is an IPv4-like 32-bit host address.
type Addr uint32

// MakeAddr builds an address from dotted-quad components.
func MakeAddr(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// String renders the address in dotted-quad form.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Port is a 16-bit transport port.
type Port uint16

// Proto identifies the transport protocol of a packet. The wire carries
// one byte; the type is 32 bits wide so that FiveTuple has no padding (see
// there).
type Proto uint32

// Transport protocol numbers (IANA values, for wire fidelity).
const (
	ProtoTCP Proto = 6
	ProtoUDP Proto = 17
)

// String names the protocol.
func (p Proto) String() string {
	switch p {
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return fmt.Sprintf("proto(%d)", uint32(p))
	}
}

// FiveTuple identifies a session or subsession, exactly as in the paper:
// protocol plus source/destination address and port.
//
// Its fields fill its 16 bytes with no padding (Proto is 32 bits wide for
// that alone), so Go hashes and compares it as one 16-byte word
// (memhash128, memequal128) instead of field by field; it keys the agent's
// session tables, the TCP demux and the middlebox tables, which every
// packet looks up. TestFiveTupleHasNoPadding pins the layout.
type FiveTuple struct {
	Proto   Proto
	SrcIP   Addr
	DstIP   Addr
	SrcPort Port
	DstPort Port
}

// Reverse returns the five-tuple of the opposite direction.
func (ft FiveTuple) Reverse() FiveTuple {
	return FiveTuple{
		Proto:   ft.Proto,
		SrcIP:   ft.DstIP,
		DstIP:   ft.SrcIP,
		SrcPort: ft.DstPort,
		DstPort: ft.SrcPort,
	}
}

// Less orders five-tuples lexicographically by field. It exists so code
// that walks per-session maps can visit sessions in a deterministic order
// (Go map iteration is randomized per run).
func (ft FiveTuple) Less(o FiveTuple) bool {
	switch {
	case ft.Proto != o.Proto:
		return ft.Proto < o.Proto
	case ft.SrcIP != o.SrcIP:
		return ft.SrcIP < o.SrcIP
	case ft.DstIP != o.DstIP:
		return ft.DstIP < o.DstIP
	case ft.SrcPort != o.SrcPort:
		return ft.SrcPort < o.SrcPort
	default:
		return ft.DstPort < o.DstPort
	}
}

// String renders "tcp 1.2.3.4:80 > 5.6.7.8:12345".
func (ft FiveTuple) String() string {
	return fmt.Sprintf("%s %s:%d > %s:%d", ft.Proto, ft.SrcIP, ft.SrcPort, ft.DstIP, ft.DstPort)
}

// TCPFlags is the TCP control-bit set.
type TCPFlags uint8

// TCP control bits.
const (
	FlagFIN TCPFlags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
)

// Has reports whether all bits in f are set.
func (fl TCPFlags) Has(f TCPFlags) bool { return fl&f == f }

// String renders flags compactly, e.g. "SYN|ACK".
func (fl TCPFlags) String() string {
	names := []struct {
		bit  TCPFlags
		name string
	}{
		{FlagSYN, "SYN"}, {FlagACK, "ACK"}, {FlagFIN, "FIN"},
		{FlagRST, "RST"}, {FlagPSH, "PSH"},
	}
	out := ""
	for _, n := range names {
		if fl.Has(n.bit) {
			if out != "" {
				out += "|"
			}
			out += n.name
		}
	}
	if out == "" {
		return "-"
	}
	return out
}
