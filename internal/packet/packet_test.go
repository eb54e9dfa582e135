package packet

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

var testTuple = FiveTuple{
	Proto:   ProtoTCP,
	SrcIP:   MakeAddr(10, 0, 0, 1),
	DstIP:   MakeAddr(10, 0, 0, 2),
	SrcPort: 40000,
	DstPort: 80,
}

func TestAddrString(t *testing.T) {
	if s := MakeAddr(192, 168, 1, 20).String(); s != "192.168.1.20" {
		t.Errorf("Addr.String() = %q", s)
	}
}

func TestFiveTupleReverse(t *testing.T) {
	r := testTuple.Reverse()
	if r.SrcIP != testTuple.DstIP || r.DstPort != testTuple.SrcPort {
		t.Errorf("Reverse() = %v", r)
	}
	if r.Reverse() != testTuple {
		t.Error("Reverse is not an involution")
	}
}

// TestFiveTupleHasNoPadding: the fields fill the struct, so Go hashes and
// compares a FiveTuple map key as one 16-byte word rather than field by
// field. Narrowing Proto back to a byte would leave three padding bytes.
func TestFiveTupleHasNoPadding(t *testing.T) {
	var ft FiveTuple
	fields := unsafe.Sizeof(ft.Proto) + unsafe.Sizeof(ft.SrcIP) + unsafe.Sizeof(ft.DstIP) +
		unsafe.Sizeof(ft.SrcPort) + unsafe.Sizeof(ft.DstPort)
	if size := unsafe.Sizeof(ft); size != 16 || fields != 16 {
		t.Errorf("FiveTuple is %d bytes, its fields %d; want 16 and 16", size, fields)
	}
}

func TestFlagsString(t *testing.T) {
	fl := FlagSYN | FlagACK
	if s := fl.String(); s != "SYN|ACK" {
		t.Errorf("String() = %q", s)
	}
	if !fl.Has(FlagSYN) || fl.Has(FlagFIN) {
		t.Error("Has misbehaves")
	}
	if TCPFlags(0).String() != "-" {
		t.Error("empty flags string")
	}
}

func TestSeqArithmetic(t *testing.T) {
	if !SeqLT(0xffffff00, 0x10) {
		t.Error("SeqLT across wrap failed")
	}
	if !SeqGT(0x10, 0xffffff00) {
		t.Error("SeqGT across wrap failed")
	}
	if SeqAdd(0xffffffff, 2) != 1 {
		t.Errorf("SeqAdd wrap = %d", SeqAdd(0xffffffff, 2))
	}
	if SeqAdd(5, -10) != 0xfffffffb {
		t.Errorf("SeqAdd negative = %d", SeqAdd(5, -10))
	}
	if SeqMax(10, 20) != 20 || SeqMin(10, 20) != 10 {
		t.Error("SeqMax/SeqMin")
	}
	if SeqDiff(10, 25) != 15 || SeqDiff(25, 10) != -15 {
		t.Error("SeqDiff")
	}
}

func TestSeqOrderingProperty(t *testing.T) {
	f := func(a uint32, dRaw int32) bool {
		d := dRaw % (1 << 30) // keep |distance| well inside half the space
		b := SeqAdd(a, int64(d))
		switch {
		case d > 0:
			return SeqLT(a, b) && SeqGT(b, a) && SeqLEQ(a, b) && !SeqGEQ(a, b)
		case d < 0:
			return SeqGT(a, b) && SeqLT(b, a)
		default:
			return SeqLEQ(a, b) && SeqGEQ(a, b) && !SeqLT(a, b)
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeqEnd(t *testing.T) {
	p := NewTCP(testTuple, FlagSYN, 100, 0, nil)
	if p.SeqEnd() != 101 {
		t.Errorf("SYN SeqEnd = %d, want 101", p.SeqEnd())
	}
	p = NewTCP(testTuple, FlagACK, 100, 0, make([]byte, 10))
	if p.SeqEnd() != 110 {
		t.Errorf("data SeqEnd = %d, want 110", p.SeqEnd())
	}
	p = NewTCP(testTuple, FlagFIN|FlagACK, 100, 0, make([]byte, 5))
	if p.SeqEnd() != 106 {
		t.Errorf("FIN+data SeqEnd = %d, want 106", p.SeqEnd())
	}
}

func TestCloneIndependence(t *testing.T) {
	p := NewTCP(testTuple, FlagACK, 1, 2, []byte{1, 2, 3})
	p.Opts.SACK = []SACKBlock{{10, 20}}
	p.Opts.TS = &Timestamp{Val: 5, Ecr: 6}
	c := p.Clone()
	c.Payload[0] = 99
	c.Opts.SACK[0].Start = 999
	c.Opts.TS.Val = 999
	if p.Payload[0] != 1 || p.Opts.SACK[0].Start != 10 || p.Opts.TS.Val != 5 {
		t.Error("Clone shares state with original")
	}
}

func TestChecksumRFC1071Vector(t *testing.T) {
	// Classic example from RFC 1071 §3.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != ^uint16(0xddf2) {
		t.Errorf("Checksum = %#04x, want %#04x", got, ^uint16(0xddf2))
	}
}

func TestChecksumOddLengthAndChunking(t *testing.T) {
	data := []byte{1, 2, 3, 4, 5}
	whole := Checksum(data)
	split := Checksum(data[:1], data[1:3], data[3:])
	if whole != split {
		t.Errorf("chunked checksum %#04x != whole %#04x", split, whole)
	}
}

func TestSerializeParseRoundTripSYN(t *testing.T) {
	// Realistic SYN option set: MSS, window scale, SACK-permitted,
	// timestamps, Dysco tag (inside a middlebox host).
	p := NewTCP(testTuple, FlagSYN|FlagACK, 12345, 67890, []byte("hello dysco"))
	p.Opts.MSS = 1460
	p.Opts.WScale = 7
	p.Opts.SACKPermitted = true
	p.Opts.TS = &Timestamp{Val: 111, Ecr: 222}
	p.Opts.HasDyscoTag = true
	p.Opts.DyscoTag = 0xdeadbeef
	p.Window = 65535

	wire := p.Serialize()
	q, err := Parse(wire)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Tuple != p.Tuple || q.Seq != p.Seq || q.Ack != p.Ack || q.Flags != p.Flags || q.Window != p.Window {
		t.Errorf("header mismatch: %+v vs %+v", q, p)
	}
	if !bytes.Equal(q.Payload, p.Payload) {
		t.Errorf("payload mismatch")
	}
	if q.Opts.MSS != 1460 || q.Opts.WScale != 7 || !q.Opts.SACKPermitted {
		t.Errorf("options mismatch: %+v", q.Opts)
	}
	if q.Opts.TS == nil || *q.Opts.TS != (Timestamp{111, 222}) {
		t.Errorf("TS mismatch: %v", q.Opts.TS)
	}
	if !q.Opts.HasDyscoTag || q.Opts.DyscoTag != 0xdeadbeef {
		t.Errorf("Dysco tag mismatch: %+v", q.Opts)
	}
}

func TestSerializeParseRoundTripDataWithSACK(t *testing.T) {
	// Realistic data-packet option set: timestamps + SACK blocks.
	p := NewTCP(testTuple, FlagACK, 500, 600, nil)
	p.Opts.TS = &Timestamp{Val: 9, Ecr: 8}
	p.Opts.SACK = []SACKBlock{{100, 200}, {300, 400}, {500, 600}}
	q, err := Parse(p.Serialize())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Opts.SACK) != 3 || q.Opts.SACK[1] != (SACKBlock{300, 400}) {
		t.Errorf("SACK mismatch: %v", q.Opts.SACK)
	}
}

func TestSACKBlocksTrimmedToHeaderLimit(t *testing.T) {
	// TCP headers max out at 60 bytes; with every other option present only
	// one SACK block fits, and serialization must trim rather than emit an
	// unparseable data offset.
	p := NewTCP(testTuple, FlagACK, 1, 2, nil)
	p.Opts.MSS = 1460
	p.Opts.WScale = 7
	p.Opts.SACKPermitted = true
	p.Opts.TS = &Timestamp{}
	p.Opts.HasDyscoTag = true
	p.Opts.SACK = []SACKBlock{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	wire := p.Serialize()
	if len(wire) > 20+60 {
		t.Fatalf("TCP header overflow: wire = %d bytes", len(wire))
	}
	q, err := Parse(wire)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Opts.SACK) != 1 || q.Opts.SACK[0] != (SACKBlock{1, 2}) {
		t.Errorf("trimmed SACK = %v, want first block only", q.Opts.SACK)
	}
}

func TestSerializeParseRoundTripUDP(t *testing.T) {
	tup := testTuple
	tup.Proto = ProtoUDP
	p := NewUDP(tup, []byte("control"))
	q, err := Parse(p.Serialize())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Tuple != tup || !bytes.Equal(q.Payload, []byte("control")) {
		t.Errorf("UDP round trip mismatch: %+v", q)
	}
}

func TestParseDetectsCorruption(t *testing.T) {
	p := NewTCP(testTuple, FlagACK, 1, 2, []byte("payload"))
	wire := p.Serialize()
	wire[len(wire)-1] ^= 0xff
	if _, err := Parse(wire); err == nil {
		t.Error("Parse accepted corrupted payload")
	}
}

func TestParseShortInput(t *testing.T) {
	if _, err := Parse([]byte{0x45, 0}); err == nil {
		t.Error("Parse accepted truncated header")
	}
}

func TestRewriteTupleKeepsProto(t *testing.T) {
	p := NewTCP(testTuple, FlagACK|FlagPSH, 5000, 6000, []byte("data data data"))
	nt := FiveTuple{
		Proto: ProtoUDP,
		SrcIP: MakeAddr(172, 16, 0, 9), DstIP: MakeAddr(172, 16, 0, 10),
		SrcPort: 1111, DstPort: 2222,
	}
	p.RewriteTuple(nt)
	if p.Tuple.Proto != ProtoTCP {
		t.Error("RewriteTuple clobbered protocol")
	}
	if nt.Proto = ProtoTCP; p.Tuple != nt {
		t.Errorf("RewriteTuple wrote %v, want %v", p.Tuple, nt)
	}
}

// Property: an RFC 1624 fold of a changed 16- or 32-bit word equals the
// RFC 1071 checksum recomputed over the changed bytes, at even and odd
// offsets of random buffers of even and odd length.
func TestIncrementalChecksumProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		buf := make([]byte, 4+rng.Intn(64))
		rng.Read(buf)
		sum := Checksum(buf)
		off := rng.Intn(len(buf) - 3)
		var got uint16
		if i%2 == 0 {
			old := uint16(buf[off])<<8 | uint16(buf[off+1])
			nw := uint16(rng.Uint32())
			buf[off], buf[off+1] = byte(nw>>8), byte(nw)
			if off%2 != 0 {
				// An odd-offset 16-bit field folds byte-swapped.
				old, nw = old<<8|old>>8, nw<<8|nw>>8
			}
			got = ChecksumUpdate16(sum, old, nw)
		} else {
			old := uint32(buf[off])<<24 | uint32(buf[off+1])<<16 | uint32(buf[off+2])<<8 | uint32(buf[off+3])
			nw := rng.Uint32()
			buf[off], buf[off+1], buf[off+2], buf[off+3] = byte(nw>>24), byte(nw>>16), byte(nw>>8), byte(nw)
			if off%2 != 0 {
				got = ChecksumUpdate32Odd(sum, old, nw)
			} else {
				got = ChecksumUpdate32(sum, old, nw)
			}
		}
		if want := Checksum(buf); got != want {
			t.Fatalf("iteration %d: len %d off %d: folded %#04x != recomputed %#04x", i, len(buf), off, got, want)
		}
	}
}

func TestSizeAccounting(t *testing.T) {
	p := NewTCP(testTuple, FlagACK, 0, 0, make([]byte, 100))
	if p.Size() != 20+20+100 {
		t.Errorf("plain TCP Size = %d, want 140", p.Size())
	}
	p.Opts.TS = &Timestamp{}
	// 10 bytes of TS pad to 12.
	if p.Size() != 20+32+100 {
		t.Errorf("TS TCP Size = %d, want 152", p.Size())
	}
	u := NewUDP(testTuple, make([]byte, 50))
	if u.Size() != 20+8+50 {
		t.Errorf("UDP Size = %d, want 78", u.Size())
	}
}

func TestWireSizeMatchesSize(t *testing.T) {
	p := NewTCP(testTuple, FlagSYN, 1, 0, []byte("abc"))
	p.Opts.MSS = 1460
	p.Opts.WScale = 7
	p.Opts.SACKPermitted = true
	if got := len(p.Serialize()); got != p.Size() {
		t.Errorf("wire length %d != Size() %d", got, p.Size())
	}
}

func BenchmarkSerializeTCP(b *testing.B) {
	p := NewTCP(testTuple, FlagACK, 1, 2, make([]byte, 1400))
	p.Opts.TS = &Timestamp{1, 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Serialize()
	}
}

func BenchmarkChecksumFull1400(b *testing.B) {
	data := make([]byte, 1400)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Checksum(data)
	}
}

// Property: Parse never panics and never misinterprets random garbage as a
// valid packet (the checksum gate).
func TestParseRandomGarbageProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(120))
		rng.Read(b)
		p, err := Parse(b)
		if err == nil && p != nil && len(b) >= 28 {
			// Astronomically unlikely: a random buffer with a valid
			// checksum. Treat as failure to keep the gate honest.
			t.Fatalf("random garbage parsed as %v", p)
		}
	}
}

// Property: serialize→parse round trip preserves every header field for
// random packets with realistic option sets.
func TestSerializeParseRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		tup := FiveTuple{
			SrcIP: Addr(rng.Uint32()), DstIP: Addr(rng.Uint32()),
			SrcPort: Port(rng.Uint32()), DstPort: Port(rng.Uint32()),
		}
		var p *Packet
		if rng.Intn(2) == 0 {
			p = NewTCP(tup, TCPFlags(rng.Intn(32)), rng.Uint32(), rng.Uint32(), make([]byte, rng.Intn(64)))
			rng.Read(p.Payload)
			if rng.Intn(2) == 0 {
				p.Opts.TS = &Timestamp{Val: rng.Uint32(), Ecr: rng.Uint32()}
			}
			if rng.Intn(2) == 0 {
				p.Opts.SACK = []SACKBlock{{Start: rng.Uint32(), End: rng.Uint32()}}
			}
			p.Window = uint16(rng.Uint32())
		} else {
			p = NewUDP(tup, make([]byte, rng.Intn(64)))
			rng.Read(p.Payload)
		}
		q, err := Parse(p.Serialize())
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if q.Tuple != p.Tuple || q.Seq != p.Seq || q.Ack != p.Ack ||
			q.Flags != p.Flags || q.Window != p.Window || !bytes.Equal(q.Payload, p.Payload) {
			t.Fatalf("iteration %d: round trip mismatch", i)
		}
	}
}
