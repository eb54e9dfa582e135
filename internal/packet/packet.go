package packet

import "fmt"

// SACKBlock is one selective-acknowledgment block [Start, End) in the
// receiver's sequence space.
type SACKBlock struct {
	Start uint32
	End   uint32
}

// Timestamp is the TCP timestamp option payload (RFC 7323): the sender's
// clock value and the echo of the peer's most recent timestamp.
type Timestamp struct {
	Val uint32
	Ecr uint32
}

// Options carries the TCP options Dysco must understand and, for spliced
// sessions, translate (§4.2): MSS, window scaling, SACK, timestamps, and
// the experimental option 253 used to tag SYN packets inside middlebox
// hosts (§2.1, §4.2). Zero values mean "option absent" except where a
// presence flag exists.
type Options struct {
	MSS           uint16 // 0 = absent
	WScale        int8   // -1 = absent; else shift count 0..14
	SACKPermitted bool
	SACK          []SACKBlock // nil = absent; max 4 blocks on the wire
	TS            *Timestamp  // nil = absent
	HasDyscoTag   bool
	DyscoTag      uint32 // option 253 payload: unique session id
}

// NoOptions returns an Options with every option absent (WScale must be -1,
// so the zero value is not suitable).
func NoOptions() Options { return Options{WScale: -1} }

// Clone deep-copies the options.
func (o Options) Clone() Options {
	c := o
	if o.SACK != nil {
		c.SACK = append([]SACKBlock(nil), o.SACK...)
	}
	if o.TS != nil {
		ts := *o.TS
		c.TS = &ts
	}
	return c
}

// Packet is one network packet in flight. TCP fields are meaningful only
// when Tuple.Proto == ProtoTCP; UDP packets use only Tuple and Payload.
//
// Payload bytes are never written in place: they may be shared with the
// sending stack's buffer, the packet's other copies and the receiver. Code
// that changes them builds a new slice.
type Packet struct {
	Tuple   FiveTuple
	TTL     uint8
	Seq     uint32
	Ack     uint32
	Flags   TCPFlags
	Window  uint16 // raw (unscaled) advertised window
	Opts    Options
	Payload []byte

	// Corrupted is simulator metadata: a fault injector damaged the packet
	// in flight. The receiving host's checksum verification detects it and
	// drops the packet, as real hardware/software checksumming would.
	Corrupted bool
}

// DefaultTTL is the initial hop limit for new packets.
const DefaultTTL = 64

// NewTCP builds a TCP packet with sensible defaults (TTL, empty options).
func NewTCP(t FiveTuple, flags TCPFlags, seq, ack uint32, payload []byte) *Packet {
	t.Proto = ProtoTCP
	return &Packet{Tuple: t, TTL: DefaultTTL, Seq: seq, Ack: ack, Flags: flags, Opts: NoOptions(), Payload: payload}
}

// NewUDP builds a UDP datagram.
func NewUDP(t FiveTuple, payload []byte) *Packet {
	t.Proto = ProtoUDP
	return &Packet{Tuple: t, TTL: DefaultTTL, Opts: NoOptions(), Payload: payload}
}

// IsTCP reports whether the packet is TCP.
func (p *Packet) IsTCP() bool { return p.Tuple.Proto == ProtoTCP }

// IsUDP reports whether the packet is UDP.
func (p *Packet) IsUDP() bool { return p.Tuple.Proto == ProtoUDP }

// DataLen returns the TCP payload length in bytes.
func (p *Packet) DataLen() int { return len(p.Payload) }

// SeqEnd returns Seq plus the sequence space the segment occupies
// (payload bytes, +1 for SYN, +1 for FIN).
func (p *Packet) SeqEnd() uint32 {
	n := int64(len(p.Payload))
	if p.Flags.Has(FlagSYN) {
		n++
	}
	if p.Flags.Has(FlagFIN) {
		n++
	}
	return SeqAdd(p.Seq, n)
}

// Clone deep-copies the packet. The payload is shared copy-on-write style
// only if share is requested via ShallowClone; Clone always copies it so a
// middlebox may rewrite bytes safely.
func (p *Packet) Clone() *Packet {
	c := *p
	c.Opts = p.Opts.Clone()
	if p.Payload != nil {
		c.Payload = append([]byte(nil), p.Payload...)
	}
	return &c
}

// ShallowClone copies the packet headers but shares the payload slice. Use
// when the payload is immutable along the path (the common fast path).
func (p *Packet) ShallowClone() *Packet {
	c := *p
	c.Opts = p.Opts.Clone()
	return &c
}

// Size returns the modeled on-wire size in bytes: 20 bytes of IP header,
// the transport header with options, and the payload. This is what link
// bandwidth and packet-size accounting use.
func (p *Packet) Size() int {
	const ipHeader = 20
	switch p.Tuple.Proto {
	case ProtoTCP:
		return ipHeader + tcpHeaderLen(&p.Opts) + len(p.Payload)
	case ProtoUDP:
		return ipHeader + 8 + len(p.Payload)
	default:
		return ipHeader + len(p.Payload)
	}
}

// String renders a compact one-line description for traces.
func (p *Packet) String() string {
	if p.IsTCP() {
		return fmt.Sprintf("%v %v seq=%d ack=%d len=%d win=%d",
			p.Tuple, p.Flags, p.Seq, p.Ack, len(p.Payload), p.Window)
	}
	return fmt.Sprintf("%v len=%d", p.Tuple, len(p.Payload))
}
