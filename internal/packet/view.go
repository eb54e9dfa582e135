package packet

import "errors"

// Wire-format offsets, the single source of truth for the raw fast path.
// IP offsets are absolute frame offsets; TCP/UDP offsets are relative to
// the transport header (frame offset IPHeaderLen + OffTCP*/OffUDP*).
// They mirror what serializeIP/appendTCP/appendUDP lay down and what
// parseIP/parseTCP/parseUDP read back: TestViewMatchesParse reads and
// writes every field through View and through Parse, so a constant that
// drifts from the codec fails there.
const (
	// IPv4 header (fixed 20 bytes, IHL always 5 in this codebase).
	IPHeaderLen   = 20
	OffIPTotalLen = 2
	OffIPTTL      = 8
	OffIPProto    = 9
	OffIPCsum     = 10
	OffIPSrc      = 12
	OffIPDst      = 16

	// TCP fixed header (options follow at OffTCPOptions).
	TCPFixedLen   = 20
	OffTCPSrcPort = 0
	OffTCPDstPort = 2
	OffTCPSeq     = 4
	OffTCPAck     = 8
	OffTCPDataOff = 12
	OffTCPFlags   = 13
	OffTCPWindow  = 14
	OffTCPCsum    = 16
	OffTCPOptions = 20

	// UDP header.
	UDPHeaderLen  = 8
	OffUDPSrcPort = 0
	OffUDPDstPort = 2
	OffUDPLen     = 4
	OffUDPCsum    = 6
)

// Sentinel errors keep ParseView allocation-free on the reject path.
var (
	errViewShort   = errors.New("packet: view: truncated frame")
	errViewIPv4    = errors.New("packet: view: not an IPv4/IHL-5 header")
	errViewLen     = errors.New("packet: view: IP total length does not match frame")
	errViewDataOff = errors.New("packet: view: bad TCP data offset")
	errViewUDPLen  = errors.New("packet: view: bad UDP length")
	errViewProto   = errors.New("packet: view: unknown protocol")
	errViewOption  = errors.New("packet: view: bad TCP option")
)

// View is a zero-allocation lazy accessor over one serialized frame: the
// raw-path counterpart of Packet. ParseView validates every bound once up
// front (frame length against the IP total length, the TCP data offset,
// and a full walk of the TCP option region), so the accessors below can
// read and write at the named offset constants without re-checking.
// Mutators store bytes only — checksum maintenance is the caller's job
// (dataplane.RawRule folds every store into the checksums incrementally).
type View struct {
	b    []byte
	hlen int // transport header length: TCP data-offset bytes, UDPHeaderLen for UDP

	// Option geometry precomputed by the ParseView walk (TCP only).
	tsOff   int // absolute offset of the timestamp option kind byte; -1 if absent
	sackOff int // absolute offset of the SACK option kind byte; -1 if absent
	sackN   int // SACK block count
}

// ParseView validates b as one whole serialized frame and returns a view
// over it. It accepts exactly the frames Parse accepts structurally —
// same guards on the IP header, data offset, UDP length, and the same
// TCP option-walk acceptance — but does not verify checksums (the raw
// path preserves checksum validity by construction, folding every store
// into the stored sums) and rejects frames with trailing bytes past the
// IP total length, which Parse tolerates but cannot round-trip. Every
// byte read is dominated by a length guard (TestParseTruncationEveryBoundary
// cuts a re-framed frame at every byte), and the reject path performs no
// allocation and leaves b untouched.
func ParseView(b []byte) (View, error) {
	v := View{tsOff: -1, sackOff: -1}
	if len(b) < IPHeaderLen {
		return v, errViewShort
	}
	if b[0] != 0x45 {
		return v, errViewIPv4
	}
	total := int(be16(b, OffIPTotalLen))
	if total != len(b) {
		return v, errViewLen
	}
	t := b[IPHeaderLen:]
	switch Proto(b[OffIPProto]) {
	case ProtoTCP:
		if len(t) < TCPFixedLen {
			return v, errViewShort
		}
		hlen := int(t[OffTCPDataOff]>>4) * 4
		if hlen < TCPFixedLen || hlen > len(t) {
			return v, errViewDataOff
		}
		tsOff, sackOff, sackN, err := parseViewOptions(t[OffTCPOptions:hlen])
		if err != nil {
			return v, err
		}
		v.hlen = hlen
		if tsOff >= 0 {
			v.tsOff = IPHeaderLen + OffTCPOptions + tsOff
		}
		if sackOff >= 0 {
			v.sackOff = IPHeaderLen + OffTCPOptions + sackOff
			v.sackN = sackN
		}
	case ProtoUDP:
		if len(t) < UDPHeaderLen {
			return v, errViewShort
		}
		if int(be16(t, OffUDPLen)) != len(t) {
			return v, errViewUDPLen
		}
		v.hlen = UDPHeaderLen
	default:
		return v, errViewProto
	}
	v.b = b
	return v, nil
}

// parseViewOptions walks the TCP option region exactly as parseOptions
// does — END stops, NOP advances one byte, everything else needs a sane
// length byte, and the per-kind body sizes must match — but instead of
// materializing Options it records where the rewritable options sit:
// the timestamp and SACK option kind-byte offsets (relative to b) and
// the SACK block count. A region parseOptions rejects is rejected here
// with the same cut, so the raw and struct paths agree on which frames
// are malformed.
func parseViewOptions(b []byte) (tsOff, sackOff, sackN int, err error) {
	tsOff, sackOff = -1, -1
	off := 0
	for len(b) > 0 {
		kind := b[0]
		switch kind {
		case optEnd:
			return tsOff, sackOff, sackN, nil
		case optNOP:
			b = b[1:]
			off++
			continue
		}
		if len(b) < 2 {
			return -1, -1, 0, errViewOption
		}
		length := int(b[1])
		if length < 2 || length > len(b) {
			return -1, -1, 0, errViewOption
		}
		if !viewOptionSane(kind, length) {
			return -1, -1, 0, errViewOption
		}
		switch kind {
		case optSACK:
			sackOff = off
			sackN = (length - 2) / 8
		case optTimestamp:
			tsOff = off
		}
		b = b[length:]
		off += length
	}
	return tsOff, sackOff, sackN, nil
}

// viewOptionSane mirrors parseOptions' per-kind body-size checks: MSS is
// 4 bytes on the wire, window scale 3, timestamp 10, the Dysco tag 6,
// and SACK data a multiple of 8. Unknown kinds are skipped wholesale.
// TestParseOptionsTruncationNeverPanics holds the two walkers to the same
// verdict for every kind at every length.
func viewOptionSane(kind byte, length int) bool {
	switch kind {
	case optMSS:
		return length == 4
	case optWScale:
		return length == 3
	case optSACK:
		return (length-2)%8 == 0
	case optTimestamp:
		return length == 10
	case OptDyscoTag:
		return length == 6
	}
	return true
}

// Bytes returns the underlying frame (aliased, not copied).
func (v *View) Bytes() []byte { return v.b }

// Len returns the frame length.
func (v *View) Len() int { return len(v.b) }

// Proto returns the IP protocol.
func (v *View) Proto() Proto { return Proto(v.b[OffIPProto]) }

// IsTCP reports whether the frame carries TCP.
func (v *View) IsTCP() bool { return v.b[OffIPProto] == byte(ProtoTCP) }

// Tuple assembles the five-tuple from the header bytes.
func (v *View) Tuple() FiveTuple {
	return FiveTuple{
		Proto:   v.Proto(),
		SrcIP:   v.SrcIP(),
		DstIP:   v.DstIP(),
		SrcPort: v.SrcPort(),
		DstPort: v.DstPort(),
	}
}

// SrcIP returns the IP source address.
func (v *View) SrcIP() Addr { return Addr(be32(v.b, OffIPSrc)) }

// DstIP returns the IP destination address.
func (v *View) DstIP() Addr { return Addr(be32(v.b, OffIPDst)) }

// SetSrcIP stores the IP source address (bytes only; no checksum upkeep).
func (v *View) SetSrcIP(a Addr) { putBE32(v.b, OffIPSrc, uint32(a)) }

// SetDstIP stores the IP destination address.
func (v *View) SetDstIP(a Addr) { putBE32(v.b, OffIPDst, uint32(a)) }

// TTL returns the IP time-to-live.
func (v *View) TTL() uint8 { return v.b[OffIPTTL] }

// IPChecksum returns the stored IP header checksum.
func (v *View) IPChecksum() uint16 { return be16(v.b, OffIPCsum) }

// SetIPChecksum stores the IP header checksum.
func (v *View) SetIPChecksum(c uint16) { putBE16(v.b, OffIPCsum, c) }

// SrcPort returns the transport source port (same offset for TCP and UDP).
func (v *View) SrcPort() Port {
	return Port(be16(v.b, IPHeaderLen+OffTCPSrcPort))
}

// DstPort returns the transport destination port.
func (v *View) DstPort() Port {
	return Port(be16(v.b, IPHeaderLen+OffTCPDstPort))
}

// SetSrcPort stores the transport source port.
func (v *View) SetSrcPort(p Port) {
	putBE16(v.b, IPHeaderLen+OffTCPSrcPort, uint16(p))
}

// SetDstPort stores the transport destination port.
func (v *View) SetDstPort(p Port) {
	putBE16(v.b, IPHeaderLen+OffTCPDstPort, uint16(p))
}

// Seq returns the TCP sequence number. TCP frames only.
func (v *View) Seq() uint32 { return be32(v.b, IPHeaderLen+OffTCPSeq) }

// SetSeq stores the TCP sequence number.
func (v *View) SetSeq(s uint32) { putBE32(v.b, IPHeaderLen+OffTCPSeq, s) }

// Ack returns the TCP acknowledgment number.
func (v *View) Ack() uint32 { return be32(v.b, IPHeaderLen+OffTCPAck) }

// SetAck stores the TCP acknowledgment number.
func (v *View) SetAck(a uint32) { putBE32(v.b, IPHeaderLen+OffTCPAck, a) }

// Flags returns the TCP flags byte.
func (v *View) Flags() TCPFlags { return TCPFlags(v.b[IPHeaderLen+OffTCPFlags]) }

// Window returns the TCP advertised window.
func (v *View) Window() uint16 { return be16(v.b, IPHeaderLen+OffTCPWindow) }

// SetWindow stores the TCP advertised window.
func (v *View) SetWindow(w uint16) {
	putBE16(v.b, IPHeaderLen+OffTCPWindow, w)
}

// TransportChecksum returns the stored TCP or UDP checksum.
func (v *View) TransportChecksum() uint16 {
	if v.IsTCP() {
		return be16(v.b, IPHeaderLen+OffTCPCsum)
	}
	return be16(v.b, IPHeaderLen+OffUDPCsum)
}

// SetTransportChecksum stores the TCP or UDP checksum.
func (v *View) SetTransportChecksum(c uint16) {
	if v.IsTCP() {
		putBE16(v.b, IPHeaderLen+OffTCPCsum, c)
		return
	}
	putBE16(v.b, IPHeaderLen+OffUDPCsum, c)
}

// HasTS reports whether the frame carries a TCP timestamp option.
func (v *View) HasTS() bool { return v.tsOff >= 0 }

// TSOdd reports whether the timestamp option sits at an odd frame offset
// (it follows an odd-length option, as window scale is). A checksum fold
// of TSVal or TSEcr must then use ChecksumUpdate32Odd.
func (v *View) TSOdd() bool { return v.tsOff%2 != 0 }

// TSVal returns the timestamp option's TSval. Only valid when HasTS.
func (v *View) TSVal() uint32 { return be32(v.b, v.tsOff+2) }

// SetTSVal stores the timestamp option's TSval.
func (v *View) SetTSVal(ts uint32) { putBE32(v.b, v.tsOff+2, ts) }

// TSEcr returns the timestamp option's TSecr. Only valid when HasTS.
func (v *View) TSEcr() uint32 { return be32(v.b, v.tsOff+6) }

// SetTSEcr stores the timestamp option's TSecr.
func (v *View) SetTSEcr(ts uint32) { putBE32(v.b, v.tsOff+6, ts) }

// SACKCount returns the number of SACK blocks (0 when the option is absent).
func (v *View) SACKCount() int { return v.sackN }

// SACKOdd reports whether the SACK option sits at an odd frame offset; see
// TSOdd.
func (v *View) SACKOdd() bool { return v.sackOff%2 != 0 }

// SACKStart returns block i's left edge. i must be < SACKCount.
func (v *View) SACKStart(i int) uint32 {
	return be32(v.b, v.sackOff+2+8*i)
}

// SACKEnd returns block i's right edge.
func (v *View) SACKEnd(i int) uint32 {
	return be32(v.b, v.sackOff+6+8*i)
}

// SetSACKStart stores block i's left edge.
func (v *View) SetSACKStart(i int, s uint32) {
	putBE32(v.b, v.sackOff+2+8*i, s)
}

// SetSACKEnd stores block i's right edge.
func (v *View) SetSACKEnd(i int, e uint32) {
	putBE32(v.b, v.sackOff+6+8*i, e)
}

// be16/be32/putBE16/putBE32 are local big-endian codecs: plain index
// arithmetic on the frame, which ParseView has already bounds-checked.
func be16(b []byte, off int) uint16 {
	return uint16(b[off])<<8 | uint16(b[off+1])
}

func be32(b []byte, off int) uint32 {
	return uint32(b[off])<<24 | uint32(b[off+1])<<16 | uint32(b[off+2])<<8 | uint32(b[off+3])
}

func putBE16(b []byte, off int, x uint16) {
	b[off] = byte(x >> 8)
	b[off+1] = byte(x)
}

func putBE32(b []byte, off int, x uint32) {
	b[off] = byte(x >> 24)
	b[off+1] = byte(x >> 16)
	b[off+2] = byte(x >> 8)
	b[off+3] = byte(x)
}
