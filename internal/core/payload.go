package core

import (
	"encoding/binary"
	"errors"

	"repro/internal/packet"
)

// synPayloadMagic marks a SYN payload as Dysco metadata. A SYN whose
// payload does not start with it is treated as opaque application data.
const synPayloadMagic = 0xd75c0001

// synPayload is the metadata Dysco carries in the payload of a subsession
// SYN (§2.1): the original session five-tuple and the address list of the
// remaining service chain (middleboxes then destination).
type synPayload struct {
	Session packet.FiveTuple
	List    []packet.Addr
	// Reconfig marks new-path SYNs of a reconfiguration: the receiving
	// agents must not expect an end-host TCP handshake behind it.
	Reconfig bool
}

// encodeSynPayload renders the metadata. Layout (big endian):
//
//	u32 magic | u8 flags | five-tuple (13 bytes) | u8 n | n × u32 addr
func encodeSynPayload(sp *synPayload) []byte {
	b := make([]byte, 0, 4+1+13+1+4*len(sp.List))
	b = binary.BigEndian.AppendUint32(b, synPayloadMagic)
	var flags byte
	if sp.Reconfig {
		flags |= 1
	}
	b = append(b, flags)
	b = appendTuple(b, sp.Session)
	b = append(b, byte(len(sp.List)))
	for _, a := range sp.List {
		b = binary.BigEndian.AppendUint32(b, uint32(a))
	}
	return b
}

// decodeSynPayload parses a SYN payload; ok is false when the payload is
// not Dysco metadata. Every read is dominated by a length guard: the
// payload comes off the wire, so the decoder must return an error — never
// panic — on truncated input (TestSynPayloadTruncationEveryBoundary and
// FuzzSynPayload).
func decodeSynPayload(b []byte) (*synPayload, bool, error) {
	if len(b) < 4 || binary.BigEndian.Uint32(b) != synPayloadMagic {
		return nil, false, nil
	}
	if len(b) < 4+1+13+1 {
		return nil, true, errors.New("core: truncated Dysco SYN payload")
	}
	sp := &synPayload{Reconfig: b[4]&1 != 0}
	var off int
	var err error
	sp.Session, off, err = readTuple(b, 5)
	if err != nil {
		return nil, true, err
	}
	if len(b) < off+1 {
		return nil, true, errors.New("core: truncated Dysco SYN payload")
	}
	n := int(b[off])
	off++
	rest := b[off:]
	for i := 0; i < n; i++ {
		if len(rest) < 4 {
			return nil, true, errors.New("core: truncated Dysco address list")
		}
		sp.List = append(sp.List, packet.Addr(binary.BigEndian.Uint32(rest)))
		rest = rest[4:]
	}
	return sp, true, nil
}

// appendTuple renders a five-tuple. Layout (big endian):
//
//	u8 proto | u32 srcIP | u32 dstIP | u16 srcPort | u16 dstPort
func appendTuple(b []byte, t packet.FiveTuple) []byte {
	b = append(b, byte(t.Proto))
	b = binary.BigEndian.AppendUint32(b, uint32(t.SrcIP))
	b = binary.BigEndian.AppendUint32(b, uint32(t.DstIP))
	b = binary.BigEndian.AppendUint16(b, uint16(t.SrcPort))
	b = binary.BigEndian.AppendUint16(b, uint16(t.DstPort))
	return b
}

// tupleWireLen is the encoded size of a five-tuple.
const tupleWireLen = 13

// readTuple decodes the five-tuple at offset off. The bytes come from the
// network, so the caller's length math is not trusted: a tuple that does
// not fit in b is an error, never a panic.
func readTuple(b []byte, off int) (packet.FiveTuple, int, error) {
	var t packet.FiveTuple
	if off < 0 || len(b) < off+tupleWireLen {
		return t, 0, errors.New("core: truncated five-tuple")
	}
	t.Proto = packet.Proto(b[off])
	t.SrcIP = packet.Addr(binary.BigEndian.Uint32(b[off+1:]))
	t.DstIP = packet.Addr(binary.BigEndian.Uint32(b[off+5:]))
	t.SrcPort = packet.Port(binary.BigEndian.Uint16(b[off+9:]))
	t.DstPort = packet.Port(binary.BigEndian.Uint16(b[off+11:]))
	return t, off + tupleWireLen, nil
}
