package core

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/packet"
)

func testTuple(seed byte) packet.FiveTuple {
	return packet.FiveTuple{
		Proto: packet.ProtoTCP,
		SrcIP: packet.MakeAddr(10, 0, seed, 1), DstIP: packet.MakeAddr(10, 0, seed, 2),
		SrcPort: packet.Port(1000 + uint16(seed)), DstPort: 80,
	}
}

// fullCtrlMsg populates every wire field, including both variable-length
// tails and negative delta values (they cross the int64/uint64 cast).
func fullCtrlMsg() *ctrlMsg {
	return &ctrlMsg{
		Type:        msgReqLock,
		ReqID:       0xfeedfacecafe,
		Session:     testTuple(1),
		LeftAnchor:  packet.MakeAddr(10, 0, 0, 10),
		RightAnchor: packet.MakeAddr(10, 0, 0, 20),
		NewList:     []packet.Addr{packet.MakeAddr(10, 0, 0, 30), packet.MakeAddr(10, 0, 0, 40), packet.MakeAddr(10, 0, 0, 20)},
		NewSub:      testTuple(2),
		D: Deltas{
			Right: -5, Left: 7, RightTS: -100, LeftTS: 100,
			RightWinFrom: -2, RightWinTo: 3, LeftWinFrom: 4, LeftWinTo: -6,
		},
		StateFrom: packet.MakeAddr(10, 0, 0, 30),
		StateTo:   packet.MakeAddr(10, 0, 0, 40),
		State:     []byte("nat-table-entry"),
		LC:        0x123456789ab,
	}
}

// patchCtrlChecksum recomputes the header checksum of an (edited) encoded
// control message so decoding reaches the check under test.
func patchCtrlChecksum(b []byte) {
	cp := append([]byte(nil), b...)
	cp[2], cp[3] = 0, 0
	binary.BigEndian.PutUint16(b[2:], packet.Checksum(cp))
}

func TestCtrlMsgRoundTrip(t *testing.T) {
	m := fullCtrlMsg()
	got, err := decodeCtrlMsg(encodeCtrlMsg(m))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Errorf("round trip changed message:\nsent %+v\ngot  %+v", m, got)
	}

	// Empty tails round-trip too (n=0, stateLen=0).
	m = &ctrlMsg{Type: msgHeartbeat, ReqID: 1, Session: testTuple(3)}
	got, err = decodeCtrlMsg(encodeCtrlMsg(m))
	if err != nil {
		t.Fatalf("decode empty tails: %v", err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Errorf("empty-tail round trip changed message:\nsent %+v\ngot  %+v", m, got)
	}
}

// TestCtrlMsgTruncationEveryBoundary cuts a full control message (both
// tails non-empty) at every byte boundary. The bare prefix fails the
// whole-message checksum; the same prefix with its checksum re-stamped
// passes it, so the fixed-header, address-list and state-length guards
// see the cut. Either way the decoder must error and never panic.
func TestCtrlMsgTruncationEveryBoundary(t *testing.T) {
	m := fullCtrlMsg()
	if len(m.NewList) == 0 || len(m.State) == 0 {
		t.Fatal("fullCtrlMsg must carry both variable-length tails")
	}
	b := encodeCtrlMsg(m)
	for i := 0; i < len(b); i++ {
		if _, err := decodeCtrlMsg(b[:i]); err == nil {
			t.Errorf("decodeCtrlMsg accepted a %d-byte prefix of a %d-byte message", i, len(b))
		}
		if i < 4 {
			continue // no checksum field to re-stamp
		}
		c := append([]byte(nil), b[:i]...)
		patchCtrlChecksum(c)
		if _, err := decodeCtrlMsg(c); err == nil {
			t.Errorf("decodeCtrlMsg accepted the re-stamped %d-byte prefix of a %d-byte message", i, len(b))
		}
	}
}

func TestCtrlMsgRejectsMalformed(t *testing.T) {
	base := encodeCtrlMsg(fullCtrlMsg())

	mut := func(edit func(b []byte)) error {
		b := append([]byte(nil), base...)
		edit(b)
		_, err := decodeCtrlMsg(b)
		return err
	}

	if err := mut(func(b []byte) { b[0] = 0x00 }); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: got %v", err)
	}
	if err := mut(func(b []byte) { b[len(b)-1] ^= 0x01 }); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("flipped state bit: got %v, want checksum error", err)
	}
	if err := mut(func(b []byte) { b[1] = 200; patchCtrlChecksum(b) }); err == nil || !strings.Contains(err.Error(), "unknown control message type") {
		t.Errorf("unknown type: got %v", err)
	}
	// Trailing junk: checksummed so it reaches the exact-length check.
	b := append(append([]byte(nil), base...), 0xaa)
	patchCtrlChecksum(b)
	if _, err := decodeCtrlMsg(b); err == nil || !strings.Contains(err.Error(), "length mismatch") {
		t.Errorf("trailing junk: got %v, want length mismatch", err)
	}
	// Address-list count larger than the bytes present.
	b = append([]byte(nil), base...)
	b[98]++
	patchCtrlChecksum(b)
	if _, err := decodeCtrlMsg(b); err == nil {
		t.Error("inflated address-list count decoded clean")
	}
}

// TestCtrlMsgClockField pins the Lamport-clock wire slot: offset 90,
// 8 bytes big endian, round-tripping the full uint64 range and absent
// (zero) when unset, with truncation at both edges of the field rejected.
func TestCtrlMsgClockField(t *testing.T) {
	for _, lc := range []uint64{0, 1, 0xdeadbeef, ^uint64(0)} {
		m := fullCtrlMsg()
		m.LC = lc
		b := encodeCtrlMsg(m)
		if got := binary.BigEndian.Uint64(b[90:]); got != lc {
			t.Errorf("wire bytes [90:98] carry %#x, want %#x", got, lc)
		}
		got, err := decodeCtrlMsg(b)
		if err != nil {
			t.Fatalf("lc=%#x: %v", lc, err)
		}
		if got.LC != lc {
			t.Errorf("round trip: lc=%#x decoded as %#x", lc, got.LC)
		}
	}
	// A message cut anywhere inside or at the end of the clock field is a
	// short fixed header, not a partial clock read.
	m := &ctrlMsg{Type: msgHeartbeat, ReqID: 1, Session: testTuple(6), LC: 42}
	b := encodeCtrlMsg(m)
	for cut := 90; cut <= 98; cut++ {
		if _, err := decodeCtrlMsg(b[:cut]); err == nil {
			t.Errorf("cut at %d inside the clock field decoded clean", cut)
		}
	}
}

func TestSynPayloadTruncationEveryBoundary(t *testing.T) {
	sp := &synPayload{
		Session:  testTuple(4),
		List:     []packet.Addr{packet.MakeAddr(10, 0, 0, 8), packet.MakeAddr(10, 0, 0, 9)},
		Reconfig: true,
	}
	b := encodeSynPayload(sp)
	got, ok, err := decodeSynPayload(b)
	if !ok || err != nil {
		t.Fatalf("full payload: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(sp, got) {
		t.Fatalf("round trip changed payload:\nsent %+v\ngot  %+v", sp, got)
	}
	for i := 0; i < len(b); i++ {
		sp2, ok, err := decodeSynPayload(b[:i])
		if i < 4 {
			// Too short to carry the magic: opaque application data.
			if ok || err != nil || sp2 != nil {
				t.Errorf("prefix %d: ok=%v err=%v, want opaque", i, ok, err)
			}
			continue
		}
		if !ok || err == nil {
			t.Errorf("prefix %d of %d: ok=%v err=%v, want truncation error", i, len(b), ok, err)
		}
		if sp2 != nil {
			t.Errorf("prefix %d: partial decode escaped: %+v", i, sp2)
		}
	}
}

func TestReadTupleBounds(t *testing.T) {
	b := appendTuple(nil, testTuple(5))
	if _, _, err := readTuple(b, -1); err == nil {
		t.Error("negative offset accepted")
	}
	if _, _, err := readTuple(b, 1); err == nil {
		t.Error("offset past end accepted")
	}
	if _, _, err := readTuple(b[:tupleWireLen-1], 0); err == nil {
		t.Error("short buffer accepted")
	}
	tp, next, err := readTuple(b, 0)
	if err != nil || next != tupleWireLen || tp != testTuple(5) {
		t.Errorf("valid tuple: %+v next=%d err=%v", tp, next, err)
	}
}

func TestReadDeltasBounds(t *testing.T) {
	d := Deltas{Right: -1, Left: 2, RightTS: 3, LeftTS: -4, RightWinFrom: 5, RightWinTo: -6, LeftWinFrom: 7, LeftWinTo: 8}
	b := appendDeltas(nil, d)
	if _, _, err := readDeltas(b, -1); err == nil {
		t.Error("negative offset accepted")
	}
	if _, _, err := readDeltas(b, 1); err == nil {
		t.Error("offset past end accepted")
	}
	if _, _, err := readDeltas(b[:deltasWireLen-1], 0); err == nil {
		t.Error("short buffer accepted")
	}
	got, next, err := readDeltas(b, 0)
	if err != nil || next != deltasWireLen || got != d {
		t.Errorf("valid deltas: %+v next=%d err=%v", got, next, err)
	}
}

func FuzzSynPayload(f *testing.F) {
	f.Add(encodeSynPayload(&synPayload{Session: testTuple(1), List: []packet.Addr{packet.MakeAddr(1, 2, 3, 4)}}))
	f.Add([]byte{0xd7, 0x5c, 0x00, 0x01})
	f.Add([]byte("not dysco"))
	f.Fuzz(func(t *testing.T, b []byte) {
		sp, ok, err := decodeSynPayload(b)
		if !ok || err != nil {
			return
		}
		// Anything the decoder accepts must re-encode and decode to the
		// same metadata.
		sp2, ok2, err2 := decodeSynPayload(encodeSynPayload(sp))
		if !ok2 || err2 != nil {
			t.Fatalf("re-decode of accepted payload failed: ok=%v err=%v", ok2, err2)
		}
		if !reflect.DeepEqual(sp, sp2) {
			t.Fatalf("round trip changed payload: %+v -> %+v", sp, sp2)
		}
	})
}

func FuzzCtrlMsg(f *testing.F) {
	f.Add(encodeCtrlMsg(fullCtrlMsg()))
	f.Add(encodeCtrlMsg(&ctrlMsg{Type: msgHeartbeat, Session: testTuple(2)}))
	f.Add([]byte{ctrlMagic})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeCtrlMsg(b)
		if err != nil {
			return
		}
		m2, err := decodeCtrlMsg(encodeCtrlMsg(m))
		if err != nil {
			t.Fatalf("re-decode of accepted message failed: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip changed message: %+v -> %+v", m, m2)
		}
	})
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus from the real
// encoders. Run with WRITE_FUZZ_CORPUS=1 after a wire-format change.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("corpus generator; set WRITE_FUZZ_CORPUS=1 to rewrite testdata/fuzz seeds")
	}
	syn := encodeSynPayload(&synPayload{
		Session:  testTuple(4),
		List:     []packet.Addr{packet.MakeAddr(10, 0, 0, 8), packet.MakeAddr(10, 0, 0, 9)},
		Reconfig: true,
	})
	writeFuzzCorpus(t, "FuzzSynPayload", map[string][]byte{
		"valid_reconfig_two_hops": syn,
		"magic_only":              syn[:4],
		"truncated_list":          syn[:len(syn)-2],
	})
	ctrl := encodeCtrlMsg(fullCtrlMsg())
	writeFuzzCorpus(t, "FuzzCtrlMsg", map[string][]byte{
		"valid_full":      ctrl,
		"fixed_head_only": ctrl[:ctrlFixedLen],
		"bad_magic":       append([]byte{0x00}, ctrl[1:]...),
	})
}

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
