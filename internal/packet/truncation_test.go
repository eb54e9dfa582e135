package packet

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fullSynPacket builds a SYN carrying every option the codec knows plus a
// payload — the widest wire image Serialize can produce, so its prefixes
// cross every parser boundary (IP header, TCP fixed header, each option,
// padding, payload).
func fullSynPacket() *Packet {
	tpl := FiveTuple{
		SrcIP: MakeAddr(10, 0, 0, 1), DstIP: MakeAddr(10, 0, 0, 2),
		SrcPort: 1234, DstPort: 80,
	}
	p := NewTCP(tpl, FlagSYN, 100, 0, []byte("hello"))
	p.Opts = Options{
		MSS:           1460,
		WScale:        7,
		SACKPermitted: true,
		SACK:          []SACKBlock{{Start: 10, End: 20}},
		TS:            &Timestamp{Val: 1, Ecr: 2},
		HasDyscoTag:   true,
		DyscoTag:      0xdeadbeef,
	}
	p.Window = 65535
	return p
}

// TestParseTruncationEveryBoundary cuts the serialized SYN-with-options at
// every byte boundary (see checkEveryCut).
func TestParseTruncationEveryBoundary(t *testing.T) {
	p := fullSynPacket()
	checkEveryCut(t, p.Serialize(), IPHeaderLen+tcpHeaderLen(&p.Opts))
}

func TestParseTruncationEveryBoundaryUDP(t *testing.T) {
	p := NewUDP(FiveTuple{
		SrcIP: MakeAddr(10, 0, 0, 1), DstIP: MakeAddr(10, 0, 0, 2),
		SrcPort: 5353, DstPort: 53,
	}, []byte("payload"))
	b := p.Serialize()
	checkEveryCut(t, b, len(b))
}

// checkEveryCut cuts frame b at every byte boundary, three ways, and no
// decoder may panic on any of them:
//   - the bare prefix: its IP total length still claims the whole frame,
//     so Parse must reject it at the IP header;
//   - the re-framed prefix (see reframe): it passes the IP header, so
//     Parse's transport and option guards see the cut and must reject it;
//   - ParseView of the re-framed prefix, which checks no checksum: it must
//     reject every cut that ends before viewFrom (inside the headers, or
//     anywhere while the UDP length field is stale) and accept the rest.
func checkEveryCut(t *testing.T, b []byte, viewFrom int) {
	t.Helper()
	if _, err := Parse(b); err != nil {
		t.Fatalf("full frame does not parse: %v", err)
	}
	for n := 0; n < len(b); n++ {
		if _, err := Parse(b[:n]); err == nil {
			t.Errorf("Parse accepted a %d-byte prefix of a %d-byte frame", n, len(b))
		}
		c := reframe(b, n)
		if _, err := Parse(c); err == nil {
			t.Errorf("Parse accepted the %d-byte re-framed prefix of a %d-byte frame", n, len(b))
		}
		if _, err := ParseView(c); (err == nil) != (n >= viewFrom) {
			t.Errorf("ParseView of the %d-byte re-framed prefix: err=%v, want accept=%v", n, err, n >= viewFrom)
		}
	}
}

// reframe copies the first n bytes of frame b and makes them a frame of
// their own: the IP total length says n and the IP header checksum is
// recomputed (each as far as the cut still holds the field). The transport
// header keeps its stale lengths and checksum, which is what the inner
// guards must catch.
func reframe(b []byte, n int) []byte {
	c := append([]byte(nil), b[:n]...)
	if n >= OffIPTotalLen+2 {
		binary.BigEndian.PutUint16(c[OffIPTotalLen:], uint16(n))
	}
	if n >= IPHeaderLen {
		c[OffIPCsum], c[OffIPCsum+1] = 0, 0
		binary.BigEndian.PutUint16(c[OffIPCsum:], Checksum(c[:IPHeaderLen]))
	}
	return c
}

func TestParseChecksumMismatch(t *testing.T) {
	// Transport checksum: flip a payload bit.
	b := fullSynPacket().Serialize()
	b[len(b)-1] ^= 0x01
	if _, err := Parse(b); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("flipped payload bit: got %v, want transport checksum error", err)
	}

	// IP header checksum: flip the TTL.
	b = fullSynPacket().Serialize()
	b[8] ^= 0x01
	if _, err := Parse(b); err == nil || !strings.Contains(err.Error(), "IP header checksum") {
		t.Errorf("flipped TTL: got %v, want IP header checksum error", err)
	}
}

// TestParseOddLengthPayloadChecksum pins the RFC 1071 odd-length padding
// path through a full serialize/parse round trip for both transports.
func TestParseOddLengthPayloadChecksum(t *testing.T) {
	tpl := FiveTuple{
		SrcIP: MakeAddr(10, 0, 0, 1), DstIP: MakeAddr(10, 0, 0, 2),
		SrcPort: 9000, DstPort: 9001,
	}
	for _, payload := range [][]byte{[]byte("x"), []byte("odd"), []byte("12345")} {
		u, err := Parse(NewUDP(tpl, payload).Serialize())
		if err != nil {
			t.Errorf("UDP odd payload %q: %v", payload, err)
		} else if string(u.Payload) != string(payload) {
			t.Errorf("UDP payload %q round-tripped to %q", payload, u.Payload)
		}
		c, err := Parse(NewTCP(tpl, FlagACK, 1, 2, payload).Serialize())
		if err != nil {
			t.Errorf("TCP odd payload %q: %v", payload, err)
		} else if string(c.Payload) != string(payload) {
			t.Errorf("TCP payload %q round-tripped to %q", payload, c.Payload)
		}
	}
}

func TestParseRejectsBadDataOffset(t *testing.T) {
	b := fullSynPacket().Serialize()
	// Data offset nibble < 5 words: header shorter than the fixed part.
	b[20+12] = 4 << 4
	if _, err := Parse(b); err == nil || !strings.Contains(err.Error(), "data offset") {
		t.Errorf("hlen 16: got %v, want data-offset error", err)
	}
	// Data offset past the end of the segment: a bare ACK's transport is
	// only 20 bytes, so claiming a 60-byte header overruns it.
	b = NewTCP(FiveTuple{
		SrcIP: MakeAddr(10, 0, 0, 1), DstIP: MakeAddr(10, 0, 0, 2),
		SrcPort: 1234, DstPort: 80,
	}, FlagACK, 1, 2, nil).Serialize()
	b[20+12] = 15 << 4
	if _, err := Parse(b); err == nil || !strings.Contains(err.Error(), "data offset") {
		t.Errorf("hlen 60 > segment: got %v, want data-offset error", err)
	}
}

// TestParseOptionsMalformed is the per-option negative table: every
// malformed encoding errors with a specific message, and unknown options
// are skipped like a real stack.
func TestParseOptionsMalformed(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		want string // "" = must parse clean
	}{
		{"kind without length", []byte{optMSS}, "truncated TCP option"},
		{"length below minimum", []byte{optMSS, 1}, "bad TCP option length"},
		{"length past end", []byte{optMSS, 5, 0, 0}, "bad TCP option length"},
		{"mss wrong body", []byte{optMSS, 3, 9}, "bad MSS option"},
		{"wscale wrong body", []byte{optWScale, 4, 0, 0}, "bad window-scale option"},
		{"sack ragged body", []byte{optSACK, 6, 0, 0, 0, 0}, "bad SACK option"},
		{"timestamp wrong body", []byte{optTimestamp, 4, 0, 0}, "bad timestamp option"},
		{"dysco tag wrong body", []byte{OptDyscoTag, 3, 9}, "bad Dysco tag option"},
		{"unknown option skipped", []byte{200, 3, 9, optEnd}, ""},
		{"end stops parsing", []byte{optEnd, optMSS}, ""},
		{"nop padding only", []byte{optNOP, optNOP, optNOP}, ""},
	}
	for _, tc := range cases {
		var o Options
		err := parseOptions(tc.in, &o)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestParseOptionsTruncationNeverPanics cuts a full option block at every
// boundary and feeds each cut to both option walkers, parseOptions (Parse)
// and parseViewOptions (ParseView). A cut can land between options (legal,
// shorter list) but must never panic, a cut inside an option body must
// error, and the two walkers must agree on which regions are malformed.
// Every option kind at every length from 2 to 12 must agree the same way.
func TestParseOptionsTruncationNeverPanics(t *testing.T) {
	p := fullSynPacket()
	full := appendOptions(nil, &p.Opts)
	for i := 0; i <= len(full); i++ {
		checkOptionWalkersAgree(t, full[:i])
	}
	// One byte into the MSS body (kind+len present, body short).
	var o Options
	if err := parseOptions(full[:3], &o); err == nil {
		t.Error("option cut inside its body parsed clean")
	}
	for _, kind := range []byte{optMSS, optWScale, optSACKPermitted, optSACK, optTimestamp, OptDyscoTag, 200} {
		for length := 2; length <= 12; length++ {
			opt := make([]byte, length)
			opt[0], opt[1] = kind, byte(length)
			checkOptionWalkersAgree(t, opt)
		}
	}
}

func checkOptionWalkersAgree(t *testing.T, region []byte) {
	t.Helper()
	var o Options
	err := parseOptions(region, &o)
	_, _, _, verr := parseViewOptions(region)
	if (err == nil) != (verr == nil) {
		t.Errorf("option region % x: parseOptions err=%v, parseViewOptions err=%v", region, err, verr)
	}
}

func FuzzPacketParse(f *testing.F) {
	f.Add(fullSynPacket().Serialize())
	f.Add(NewUDP(FiveTuple{SrcIP: MakeAddr(1, 2, 3, 4), DstIP: MakeAddr(5, 6, 7, 8), SrcPort: 1, DstPort: 2}, []byte("odd")).Serialize())
	f.Add([]byte{})
	f.Add([]byte{0x45})
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Parse(b)
		if err != nil {
			return
		}
		// ParseView takes what Parse takes, less the IHL > 5 headers and
		// trailing bytes it rejects by design, and reads the same fields.
		if b[0] == 0x45 && int(binary.BigEndian.Uint16(b[OffIPTotalLen:])) == len(b) {
			v, err := ParseView(b)
			if err != nil {
				t.Fatalf("ParseView rejects a frame Parse accepts: %v", err)
			}
			checkViewMatchesPacket(t, &v, p, b)
		}
		// Anything Parse accepts must survive a serialize/parse round trip
		// with its addressing and sequencing intact.
		p2, err := Parse(p.Serialize())
		if err != nil {
			t.Fatalf("re-parse of accepted packet failed: %v", err)
		}
		if p2.Tuple != p.Tuple || p2.Seq != p.Seq || p2.Ack != p.Ack || p2.Flags != p.Flags {
			t.Fatalf("round trip changed packet: %+v -> %+v", p, p2)
		}
		if string(p2.Payload) != string(p.Payload) {
			t.Fatalf("round trip changed payload: %q -> %q", p.Payload, p2.Payload)
		}
	})
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus from the real
// encoder. Run with WRITE_FUZZ_CORPUS=1 after a wire-format change.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("corpus generator; set WRITE_FUZZ_CORPUS=1 to rewrite testdata/fuzz seeds")
	}
	syn := fullSynPacket().Serialize()
	udp := NewUDP(FiveTuple{
		SrcIP: MakeAddr(10, 0, 0, 1), DstIP: MakeAddr(10, 0, 0, 2),
		SrcPort: 5353, DstPort: 53,
	}, []byte("odd")).Serialize()
	writeFuzzCorpus(t, "FuzzPacketParse", map[string][]byte{
		"tcp_syn_all_options": syn,
		"udp_odd_payload":     udp,
		"tcp_truncated":       syn[:len(syn)/2],
		"garbage":             []byte{0x45, 0x00, 0xff, 0xfe, 0x01},
	})
}

// writeFuzzCorpus emits seeds in the native `go test fuzz v1` format.
func writeFuzzCorpus(t *testing.T, fuzzName string, seeds map[string][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", fuzzName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
