package packet

import "testing"

// viewField is one rewritable header field as View and Parse each see it.
type viewField struct {
	name   string
	bits   int  // 16 or 32
	inIP   bool // also covered by the IP header checksum
	odd    bool // starts at an odd frame offset (a TCP option word)
	get    func(v *View) uint32
	set    func(v *View, x uint32)
	parsed func(p *Packet) uint32
}

// viewFields lists the fields v can rewrite: addresses and ports always,
// sequencing and window on TCP, and the timestamp and SACK words the
// option walk found.
func viewFields(v *View) []viewField {
	fs := []viewField{
		{"SrcIP", 32, true, false,
			func(v *View) uint32 { return uint32(v.SrcIP()) },
			func(v *View, x uint32) { v.SetSrcIP(Addr(x)) },
			func(p *Packet) uint32 { return uint32(p.Tuple.SrcIP) }},
		{"DstIP", 32, true, false,
			func(v *View) uint32 { return uint32(v.DstIP()) },
			func(v *View, x uint32) { v.SetDstIP(Addr(x)) },
			func(p *Packet) uint32 { return uint32(p.Tuple.DstIP) }},
		{"SrcPort", 16, false, false,
			func(v *View) uint32 { return uint32(v.SrcPort()) },
			func(v *View, x uint32) { v.SetSrcPort(Port(x)) },
			func(p *Packet) uint32 { return uint32(p.Tuple.SrcPort) }},
		{"DstPort", 16, false, false,
			func(v *View) uint32 { return uint32(v.DstPort()) },
			func(v *View, x uint32) { v.SetDstPort(Port(x)) },
			func(p *Packet) uint32 { return uint32(p.Tuple.DstPort) }},
	}
	if !v.IsTCP() {
		return fs
	}
	fs = append(fs,
		viewField{"Seq", 32, false, false,
			func(v *View) uint32 { return v.Seq() },
			func(v *View, x uint32) { v.SetSeq(x) },
			func(p *Packet) uint32 { return p.Seq }},
		viewField{"Ack", 32, false, false,
			func(v *View) uint32 { return v.Ack() },
			func(v *View, x uint32) { v.SetAck(x) },
			func(p *Packet) uint32 { return p.Ack }},
		viewField{"Window", 16, false, false,
			func(v *View) uint32 { return uint32(v.Window()) },
			func(v *View, x uint32) { v.SetWindow(uint16(x)) },
			func(p *Packet) uint32 { return uint32(p.Window) }},
	)
	if v.HasTS() {
		fs = append(fs,
			viewField{"TSVal", 32, false, v.TSOdd(),
				func(v *View) uint32 { return v.TSVal() },
				func(v *View, x uint32) { v.SetTSVal(x) },
				func(p *Packet) uint32 { return p.Opts.TS.Val }},
			viewField{"TSEcr", 32, false, v.TSOdd(),
				func(v *View) uint32 { return v.TSEcr() },
				func(v *View, x uint32) { v.SetTSEcr(x) },
				func(p *Packet) uint32 { return p.Opts.TS.Ecr }},
		)
	}
	for i := 0; i < v.SACKCount(); i++ {
		fs = append(fs,
			viewField{"SACKStart", 32, false, v.SACKOdd(),
				func(v *View) uint32 { return v.SACKStart(i) },
				func(v *View, x uint32) { v.SetSACKStart(i, x) },
				func(p *Packet) uint32 { return p.Opts.SACK[i].Start }},
			viewField{"SACKEnd", 32, false, v.SACKOdd(),
				func(v *View) uint32 { return v.SACKEnd(i) },
				func(v *View, x uint32) { v.SetSACKEnd(i, x) },
				func(p *Packet) uint32 { return p.Opts.SACK[i].End }},
		)
	}
	return fs
}

// checkViewMatchesPacket requires every View getter over frame b to read
// the value Parse decoded from the same bytes into p.
func checkViewMatchesPacket(t *testing.T, v *View, p *Packet, b []byte) {
	t.Helper()
	if v.Len() != len(b) || v.Proto() != p.Tuple.Proto || v.Tuple() != p.Tuple {
		t.Fatalf("view len %d tuple %v, Parse len %d tuple %v", v.Len(), v.Tuple(), len(b), p.Tuple)
	}
	if v.TTL() != p.TTL {
		t.Errorf("view TTL %d, Parse %d", v.TTL(), p.TTL)
	}
	// RFC 791 puts the header checksum at bytes 10-11, and RFC 793 and
	// RFC 768 put the transport checksum at bytes 16-17 of the TCP header
	// and 6-7 of the UDP header; Parse verifies both there but returns
	// neither.
	if got, want := v.IPChecksum(), uint16(b[10])<<8|uint16(b[11]); got != want {
		t.Errorf("view IP checksum %#04x, header bytes 10-11 %#04x", got, want)
	}
	csumOff := IPHeaderLen + 6
	if p.IsTCP() {
		csumOff = IPHeaderLen + 16
	}
	if got, want := v.TransportChecksum(), uint16(b[csumOff])<<8|uint16(b[csumOff+1]); got != want {
		t.Errorf("view transport checksum %#04x, frame bytes %d-%d %#04x", got, csumOff, csumOff+1, want)
	}
	if v.IsTCP() {
		if v.Flags() != p.Flags {
			t.Errorf("view flags %v, Parse %v", v.Flags(), p.Flags)
		}
		if v.HasTS() != (p.Opts.TS != nil) || v.SACKCount() != len(p.Opts.SACK) {
			t.Fatalf("view HasTS=%v SACKCount=%d, Parse TS=%v SACK=%v", v.HasTS(), v.SACKCount(), p.Opts.TS, p.Opts.SACK)
		}
	}
	for _, f := range viewFields(v) {
		if got, want := f.get(v), f.parsed(p); got != want {
			t.Errorf("view %s = %#x, Parse %#x", f.name, got, want)
		}
	}
}

// TestViewMatchesParse ties the raw path's offset constants to the codec:
// on a SYN carrying every option, a data segment with timestamps and
// three SACK blocks, and a UDP datagram, every View getter must read what
// Parse decodes, and every setter, with its change folded into the
// checksums as the raw path does it, must write a frame Parse accepts and
// reads the new value back from. The SYN's window-scale option puts its
// SACK and timestamp options at odd offsets, so the odd fold is covered.
func TestViewMatchesParse(t *testing.T) {
	ack := NewTCP(testTuple, FlagACK, 500, 600, []byte("data"))
	ack.Opts.TS = &Timestamp{Val: 9, Ecr: 8}
	ack.Opts.SACK = []SACKBlock{{100, 200}, {300, 400}, {500, 600}}
	udp := NewUDP(FiveTuple{
		SrcIP: MakeAddr(10, 0, 0, 1), DstIP: MakeAddr(10, 0, 0, 2),
		SrcPort: 5353, DstPort: 53,
	}, []byte("payload"))
	for _, pkt := range []*Packet{fullSynPacket(), ack, udp} {
		b := pkt.Serialize()
		p, err := Parse(b)
		if err != nil {
			t.Fatal(err)
		}
		v, err := ParseView(b)
		if err != nil {
			t.Fatal(err)
		}
		checkViewMatchesPacket(t, &v, p, b)

		for _, f := range viewFields(&v) {
			c := append([]byte(nil), b...)
			cv, _ := ParseView(c)
			old := f.get(&cv)
			x := old ^ 0x5a5a5a5a
			if f.bits == 16 {
				x &= 0xffff
			}
			f.set(&cv, x)
			switch {
			case f.bits == 16:
				cv.SetTransportChecksum(ChecksumUpdate16(cv.TransportChecksum(), uint16(old), uint16(x)))
			case f.odd:
				cv.SetTransportChecksum(ChecksumUpdate32Odd(cv.TransportChecksum(), old, x))
			default:
				cv.SetTransportChecksum(ChecksumUpdate32(cv.TransportChecksum(), old, x))
			}
			if f.inIP {
				cv.SetIPChecksum(ChecksumUpdate32(cv.IPChecksum(), old, x))
			}
			q, err := Parse(c)
			if err != nil {
				t.Errorf("%v Set%s: Parse rejects the folded frame: %v", p.Tuple.Proto, f.name, err)
				continue
			}
			if got := f.parsed(q); got != x {
				t.Errorf("%v Set%s(%#x): Parse reads %#x", p.Tuple.Proto, f.name, x, got)
			}
			checkViewMatchesPacket(t, &cv, q, c)
		}
	}
}
