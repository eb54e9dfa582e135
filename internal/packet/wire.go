package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// TCP option kinds used on the wire.
const (
	optEnd           = 0
	optNOP           = 1
	optMSS           = 2
	optWScale        = 3
	optSACKPermitted = 4
	optSACK          = 5
	optTimestamp     = 8
	// OptDyscoTag is TCP option 253 (reserved for experimentation, RFC
	// 4727); Dysco uses it to tag SYN packets inside middlebox hosts so an
	// agent can match a SYN going into a five-tuple-modifying middlebox
	// with the SYN coming out (§2.1, §4.2). Tags never leave the host.
	OptDyscoTag = 253
)

// maxOptionBytes is the TCP limit: the 4-bit data offset caps the header at
// 60 bytes, leaving 40 for options.
const maxOptionBytes = 40

func fixedOptionsLen(o *Options) int {
	n := 0
	if o.MSS != 0 {
		n += 4
	}
	if o.WScale >= 0 {
		n += 3
	}
	if o.SACKPermitted {
		n += 2
	}
	if o.TS != nil {
		n += 10
	}
	if o.HasDyscoTag {
		n += 6
	}
	return n
}

// sackBlocksThatFit returns how many SACK blocks can go on the wire next to
// the other options, as a real stack trims them (Linux sends at most 3 with
// timestamps enabled).
func sackBlocksThatFit(o *Options) int {
	if len(o.SACK) == 0 {
		return 0
	}
	avail := maxOptionBytes - fixedOptionsLen(o)
	n := (avail - 2) / 8
	if n > 4 {
		n = 4
	}
	if n > len(o.SACK) {
		n = len(o.SACK)
	}
	if n < 0 {
		n = 0
	}
	return n
}

func optionsWireLen(o *Options) int {
	n := fixedOptionsLen(o)
	if blocks := sackBlocksThatFit(o); blocks > 0 {
		n += 2 + 8*blocks
	}
	return n
}

func tcpHeaderLen(o *Options) int {
	n := 20 + optionsWireLen(o)
	if rem := n % 4; rem != 0 {
		n += 4 - rem
	}
	return n
}

func appendOptions(b []byte, o *Options) []byte {
	if o.MSS != 0 {
		b = append(b, optMSS, 4)
		b = binary.BigEndian.AppendUint16(b, o.MSS)
	}
	if o.WScale >= 0 {
		b = append(b, optWScale, 3, byte(o.WScale))
	}
	if o.SACKPermitted {
		b = append(b, optSACKPermitted, 2)
	}
	if n := sackBlocksThatFit(o); n > 0 {
		blocks := o.SACK[:n]
		b = append(b, optSACK, byte(2+8*len(blocks)))
		for _, blk := range blocks {
			b = binary.BigEndian.AppendUint32(b, blk.Start)
			b = binary.BigEndian.AppendUint32(b, blk.End)
		}
	}
	if o.TS != nil {
		b = append(b, optTimestamp, 10)
		b = binary.BigEndian.AppendUint32(b, o.TS.Val)
		b = binary.BigEndian.AppendUint32(b, o.TS.Ecr)
	}
	if o.HasDyscoTag {
		b = append(b, OptDyscoTag, 6)
		b = binary.BigEndian.AppendUint32(b, o.DyscoTag)
	}
	for len(b)%4 != 0 {
		b = append(b, optNOP)
	}
	return b
}

func parseOptions(b []byte, o *Options) error {
	*o = NoOptions()
	for len(b) > 0 {
		kind := b[0]
		switch kind {
		case optEnd:
			return nil
		case optNOP:
			b = b[1:]
			continue
		}
		if len(b) < 2 {
			return errors.New("packet: truncated TCP option")
		}
		length := int(b[1])
		if length < 2 || length > len(b) {
			return fmt.Errorf("packet: bad TCP option length %d", length)
		}
		body := b[2:length]
		switch kind {
		case optMSS:
			if len(body) != 2 {
				return errors.New("packet: bad MSS option")
			}
			o.MSS = binary.BigEndian.Uint16(body)
		case optWScale:
			if len(body) != 1 {
				return errors.New("packet: bad window-scale option")
			}
			o.WScale = int8(body[0])
		case optSACKPermitted:
			o.SACKPermitted = true
		case optSACK:
			if len(body)%8 != 0 {
				return errors.New("packet: bad SACK option")
			}
			// Consume-from-front so each read is dominated by the loop's
			// own length guard.
			for len(body) >= 8 {
				o.SACK = append(o.SACK, SACKBlock{
					Start: binary.BigEndian.Uint32(body),
					End:   binary.BigEndian.Uint32(body[4:]),
				})
				body = body[8:]
			}
		case optTimestamp:
			if len(body) != 8 {
				return errors.New("packet: bad timestamp option")
			}
			o.TS = &Timestamp{
				Val: binary.BigEndian.Uint32(body),
				Ecr: binary.BigEndian.Uint32(body[4:]),
			}
		case OptDyscoTag:
			if len(body) != 4 {
				return errors.New("packet: bad Dysco tag option")
			}
			o.HasDyscoTag = true
			o.DyscoTag = binary.BigEndian.Uint32(body)
		default:
			// Unknown options are skipped, as a real stack would.
		}
		b = b[length:]
	}
	return nil
}

// Serialize renders the packet as wire bytes: 20-byte IPv4 header plus the
// transport header (with options) and payload. The transport checksum is
// computed over the pseudo-header as usual. One allocation: the exact-size
// frame buffer.
func (p *Packet) Serialize() []byte {
	return p.AppendTo(make([]byte, 0, p.Size()))
}

// AppendTo appends the packet's wire bytes to b and returns the extended
// slice, allocating only if b lacks capacity (Size() bytes are needed).
// Feeders that serialize per packet can reuse one scratch buffer with
// AppendTo(buf[:0]) and stop paying an allocation per frame.
func (p *Packet) AppendTo(b []byte) []byte {
	switch p.Tuple.Proto {
	case ProtoTCP:
		b = p.appendIP(b, tcpHeaderLen(&p.Opts)+len(p.Payload))
		return p.appendTCP(b)
	case ProtoUDP:
		b = p.appendIP(b, 8+len(p.Payload))
		return p.appendUDP(b)
	default:
		panic("packet: serialize of unknown protocol")
	}
}

// appendIP appends the 20-byte IPv4 header for a transport segment of
// transportLen bytes. The header is built in a fixed-size local first so
// its checksum covers the finished bytes.
func (p *Packet) appendIP(b []byte, transportLen int) []byte {
	total := 20 + transportLen
	hdr := make([]byte, 20)
	hdr[0] = 0x45 // version 4, IHL 5
	binary.BigEndian.PutUint16(hdr[2:], uint16(total))
	hdr[8] = p.TTL
	hdr[9] = byte(p.Tuple.Proto)
	binary.BigEndian.PutUint32(hdr[12:], uint32(p.Tuple.SrcIP))
	binary.BigEndian.PutUint32(hdr[16:], uint32(p.Tuple.DstIP))
	csum := Checksum(hdr)
	binary.BigEndian.PutUint16(hdr[10:], csum)
	return append(b, hdr...)
}

// appendTCP appends the TCP header (with options) and payload, then
// back-patches the transport checksum over the appended segment.
func (p *Packet) appendTCP(b []byte) []byte {
	hlen := tcpHeaderLen(&p.Opts)
	th := len(b)
	b = binary.BigEndian.AppendUint16(b, uint16(p.Tuple.SrcPort))
	b = binary.BigEndian.AppendUint16(b, uint16(p.Tuple.DstPort))
	b = binary.BigEndian.AppendUint32(b, p.Seq)
	b = binary.BigEndian.AppendUint32(b, p.Ack)
	b = append(b, byte(hlen/4)<<4, byte(p.Flags))
	b = binary.BigEndian.AppendUint16(b, p.Window)
	b = binary.BigEndian.AppendUint16(b, 0) // checksum, back-patched below
	b = append(b, 0, 0)                     // urgent pointer
	b = appendOptions(b, &p.Opts)
	b = append(b, p.Payload...)
	seg := b[th:]
	binary.BigEndian.PutUint16(seg[16:], Checksum(pseudoHeader(p.Tuple, len(seg)), seg))
	return b
}

// appendUDP appends the UDP header and payload, then back-patches the
// transport checksum over the appended segment.
func (p *Packet) appendUDP(b []byte) []byte {
	th := len(b)
	b = binary.BigEndian.AppendUint16(b, uint16(p.Tuple.SrcPort))
	b = binary.BigEndian.AppendUint16(b, uint16(p.Tuple.DstPort))
	b = binary.BigEndian.AppendUint16(b, uint16(8+len(p.Payload)))
	b = binary.BigEndian.AppendUint16(b, 0) // checksum, back-patched below
	b = append(b, p.Payload...)
	seg := b[th:]
	binary.BigEndian.PutUint16(seg[6:], Checksum(pseudoHeader(p.Tuple, len(seg)), seg))
	return b
}

// Parse decodes wire bytes produced by Serialize back into a Packet. It
// verifies the IP header and transport checksums and returns an error on
// mismatch. Parse never panics on truncated or malformed input: every
// byte read inside the sub-parsers is dominated by a length guard, and
// TestParseTruncationEveryBoundary re-frames each cut so the transport
// and option guards, not just the IP total length, see it.
func Parse(b []byte) (*Packet, error) {
	p := &Packet{Opts: NoOptions()}
	t, err := parseIP(b, p)
	if err != nil {
		return nil, err
	}
	switch p.Tuple.Proto {
	case ProtoTCP:
		if err := parseTCP(t, p); err != nil {
			return nil, err
		}
	case ProtoUDP:
		if err := parseUDP(t, p); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("packet: unknown protocol %d", byte(p.Tuple.Proto))
	}
	return p, nil
}

// parseIP decodes and validates the 20-byte IPv4 header written by
// serializeIP and returns the transport bytes it delimits.
func parseIP(b []byte, p *Packet) ([]byte, error) {
	if len(b) < 20 {
		return nil, errors.New("packet: short IP header")
	}
	if b[0]>>4 != 4 {
		return nil, errors.New("packet: not IPv4")
	}
	total := int(binary.BigEndian.Uint16(b[2:]))
	if total > len(b) || total < 20 {
		return nil, errors.New("packet: bad IP total length")
	}
	stored := binary.BigEndian.Uint16(b[10:])
	var hdr [20]byte
	copy(hdr[:], b)
	hdr[10], hdr[11] = 0, 0
	if got := Checksum(hdr[:]); got != stored {
		return nil, fmt.Errorf("packet: bad IP header checksum %#04x, want %#04x", stored, got)
	}
	p.TTL = b[8]
	p.Tuple.Proto = Proto(b[9])
	p.Tuple.SrcIP = Addr(binary.BigEndian.Uint32(b[12:]))
	p.Tuple.DstIP = Addr(binary.BigEndian.Uint32(b[16:]))
	return b[20:total], nil
}

// parseTCP decodes the transport bytes written by serializeTCP.
func parseTCP(t []byte, p *Packet) error {
	if len(t) < 20 {
		return errors.New("packet: short TCP header")
	}
	p.Tuple.SrcPort = Port(binary.BigEndian.Uint16(t[0:]))
	p.Tuple.DstPort = Port(binary.BigEndian.Uint16(t[2:]))
	p.Seq = binary.BigEndian.Uint32(t[4:])
	p.Ack = binary.BigEndian.Uint32(t[8:])
	hlen := int(t[12]>>4) * 4
	if hlen < 20 || hlen > len(t) {
		return errors.New("packet: bad TCP data offset")
	}
	p.Flags = TCPFlags(t[13])
	p.Window = binary.BigEndian.Uint16(t[14:])
	if err := parseOptions(t[20:hlen], &p.Opts); err != nil {
		return err
	}
	if hlen < len(t) {
		p.Payload = append([]byte(nil), t[hlen:]...)
	}
	return verifyTransportChecksum(p.Tuple, t, 16)
}

// parseUDP decodes the transport bytes written by serializeUDP.
func parseUDP(t []byte, p *Packet) error {
	if len(t) < 8 {
		return errors.New("packet: short UDP header")
	}
	p.Tuple.SrcPort = Port(binary.BigEndian.Uint16(t[0:]))
	p.Tuple.DstPort = Port(binary.BigEndian.Uint16(t[2:]))
	ulen := int(binary.BigEndian.Uint16(t[4:]))
	if ulen != len(t) {
		return fmt.Errorf("packet: bad UDP length %d, want %d", ulen, len(t))
	}
	if len(t) > 8 {
		p.Payload = append([]byte(nil), t[8:]...)
	}
	return verifyTransportChecksum(p.Tuple, t, 6)
}

func verifyTransportChecksum(t FiveTuple, transport []byte, csumOff int) error {
	stored := binary.BigEndian.Uint16(transport[csumOff:])
	cp := append([]byte(nil), transport...)
	cp[csumOff] = 0
	cp[csumOff+1] = 0
	want := Checksum(pseudoHeader(t, len(transport)), cp)
	if stored != want {
		return fmt.Errorf("packet: bad %s checksum %#04x, want %#04x", t.Proto, stored, want)
	}
	return nil
}

func pseudoHeader(t FiveTuple, transportLen int) []byte {
	b := make([]byte, 12)
	binary.BigEndian.PutUint32(b[0:], uint32(t.SrcIP))
	binary.BigEndian.PutUint32(b[4:], uint32(t.DstIP))
	b[9] = byte(t.Proto)
	binary.BigEndian.PutUint16(b[10:], uint16(transportLen))
	return b
}

// Checksum computes the Internet checksum (RFC 1071) over the
// concatenation of the given byte slices.
func Checksum(chunks ...[]byte) uint16 {
	var sum uint32
	odd := false
	var carryByte byte
	for _, b := range chunks {
		if odd && len(b) > 0 {
			sum += uint32(carryByte)<<8 | uint32(b[0])
			b = b[1:]
			odd = false
		}
		for len(b) >= 2 {
			sum += uint32(b[0])<<8 | uint32(b[1])
			b = b[2:]
		}
		if len(b) == 1 {
			carryByte = b[0]
			odd = true
		}
	}
	if odd {
		sum += uint32(carryByte) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

// ChecksumUpdate16 incrementally updates checksum old when a 16-bit field
// changes from oldVal to newVal (RFC 1624 equation 3: HC' = ~(~HC + ~m + m')).
// The raw frame path (dataplane.RawRule) folds every rewritten header
// word this way instead of recomputing the checksum of the whole frame
// (§4.2).
func ChecksumUpdate16(old uint16, oldVal, newVal uint16) uint16 {
	sum := uint32(^old&0xffff) + uint32(^oldVal&0xffff) + uint32(newVal)
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

// ChecksumUpdate32 incrementally updates a checksum for a 32-bit field
// change, treating it as two 16-bit updates.
func ChecksumUpdate32(old uint16, oldVal, newVal uint32) uint16 {
	old = ChecksumUpdate16(old, uint16(oldVal>>16), uint16(newVal>>16))
	return ChecksumUpdate16(old, uint16(oldVal), uint16(newVal))
}

// ChecksumUpdate32Odd is ChecksumUpdate32 for a 32-bit field that starts
// at an odd offset of the checksummed bytes. Its bytes a b c d then
// straddle three 16-bit words, and add up to the same sum as the aligned
// words bc and da (RFC 1071 §2(B): the sum does not depend on byte order),
// so the field folds as its value rotated left by 8 bits.
func ChecksumUpdate32Odd(old uint16, oldVal, newVal uint32) uint16 {
	return ChecksumUpdate32(old, oldVal<<8|oldVal>>24, newVal<<8|newVal>>24)
}

// RewriteTuple replaces the packet's addresses and ports with nt's and
// keeps its protocol. A struct packet carries no checksum: simulated hosts
// charge checksum cost (netsim.CostModel.ChecksumPerKB) instead of
// computing one, and Serialize computes it into the bytes.
func (p *Packet) RewriteTuple(nt FiveTuple) {
	nt.Proto = p.Tuple.Proto
	p.Tuple = nt
}
