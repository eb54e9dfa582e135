package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/packet"
)

// This file is the binary wire codec of the reconfiguration control
// protocol (§3.3, §4.1: the daemons exchange UDP datagrams through a
// simple shared serialization library) plus the read-only view fault
// injectors (internal/fault) use to classify daemon datagrams on the wire
// — "drop the 2nd requestLock" — without core exposing its message
// structs.
//
// Layout of a control message (big endian), fixed header then the two
// variable-length tails:
//
//	off  0  u8   magic (0xdc)
//	off  1  u8   type
//	off  2  u16  checksum (RFC 1071 over the whole message, field zeroed)
//	off  4  u64  reqID
//	off 12  five-tuple session (13 bytes)
//	off 25  u32  leftAnchor
//	off 29  u32  rightAnchor
//	off 33  five-tuple newSub (13 bytes)
//	off 46  deltas (36 bytes)
//	off 82  u32  stateFrom
//	off 86  u32  stateTo
//	off 90  u64  lc (sender's Lamport clock at this transmission)
//	off 98  u8   n (address-list length)
//	off 99  u16  stateLen
//	off 101 n × u32 addr, then stateLen bytes of state
//
// The lc field is observability piggybacking (§ DESIGN 7): the sending
// daemon stamps its Lamport clock per transmission, the receiver merges
// it, and the obs hub matches send→recv happens-before edges on it. A
// retransmission is re-stamped, so every transmission has a distinct
// clock value. With observability off both sides carry zero and the
// field is causally inert.
//
// The checksum rejects damaged input at the decoder. The fault
// injector's linkCorrupt op never reaches it: it marks the datagram
// corrupted, and the receiving host drops it (netsim.Host.receive).

const (
	ctrlMagic    = 0xdc
	ctrlFixedLen = 101
	// ctrlMaxList / ctrlMaxState bound the variable-length tails to what
	// their length fields can carry.
	ctrlMaxList  = 255
	ctrlMaxState = 65535
)

// encodeCtrlMsg renders a control message. It panics when the message is
// unencodable (address list or state blob exceeding its length field) —
// both are bounded by construction, so this is a programming error, as a
// failed marshal was before.
func encodeCtrlMsg(m *ctrlMsg) []byte {
	if len(m.NewList) > ctrlMaxList {
		panic(fmt.Sprintf("core: control message address list too long (%d)", len(m.NewList)))
	}
	if len(m.State) > ctrlMaxState {
		panic(fmt.Sprintf("core: control message state too large (%d)", len(m.State)))
	}
	b := make([]byte, 0, ctrlFixedLen+4*len(m.NewList)+len(m.State))
	b = append(b, ctrlMagic, byte(m.Type))
	b = append(b, 0, 0) // checksum, patched below
	b = binary.BigEndian.AppendUint64(b, m.ReqID)
	b = appendTuple(b, m.Session)
	b = binary.BigEndian.AppendUint32(b, uint32(m.LeftAnchor))
	b = binary.BigEndian.AppendUint32(b, uint32(m.RightAnchor))
	b = appendTuple(b, m.NewSub)
	b = appendDeltas(b, m.D)
	b = binary.BigEndian.AppendUint32(b, uint32(m.StateFrom))
	b = binary.BigEndian.AppendUint32(b, uint32(m.StateTo))
	b = binary.BigEndian.AppendUint64(b, m.LC)
	b = append(b, byte(len(m.NewList)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.State)))
	for _, a := range m.NewList {
		b = binary.BigEndian.AppendUint32(b, uint32(a))
	}
	b = append(b, m.State...)
	binary.BigEndian.PutUint16(b[2:], packet.Checksum(b))
	return b
}

// decodeCtrlMsg parses a control message. The bytes are
// attacker-controllable wire input: every read is dominated by a length
// guard (TestCtrlMsgTruncationEveryBoundary re-stamps the checksum of each
// cut so those guards see it), and the message length must match the
// header's counts exactly — trailing junk is rejected, so each message
// has one canonical encoding.
func decodeCtrlMsg(b []byte) (*ctrlMsg, error) {
	if len(b) < ctrlFixedLen {
		return nil, errors.New("core: short control message")
	}
	if b[0] != ctrlMagic {
		return nil, errors.New("core: bad control magic")
	}
	stored := binary.BigEndian.Uint16(b[2:])
	cp := append([]byte(nil), b...)
	cp[2], cp[3] = 0, 0
	if got := packet.Checksum(cp); got != stored {
		return nil, fmt.Errorf("core: bad control checksum %#04x, want %#04x", stored, got)
	}
	m := &ctrlMsg{Type: msgType(b[1])}
	if !m.Type.known() {
		return nil, fmt.Errorf("core: unknown control message type %d", b[1])
	}
	m.ReqID = binary.BigEndian.Uint64(b[4:])
	var err error
	m.Session, _, err = readTuple(b, 12)
	if err != nil {
		return nil, err
	}
	m.LeftAnchor = packet.Addr(binary.BigEndian.Uint32(b[25:]))
	m.RightAnchor = packet.Addr(binary.BigEndian.Uint32(b[29:]))
	m.NewSub, _, err = readTuple(b, 33)
	if err != nil {
		return nil, err
	}
	m.D, _, err = readDeltas(b, 46)
	if err != nil {
		return nil, err
	}
	m.StateFrom = packet.Addr(binary.BigEndian.Uint32(b[82:]))
	m.StateTo = packet.Addr(binary.BigEndian.Uint32(b[86:]))
	m.LC = binary.BigEndian.Uint64(b[90:])
	n := int(b[98])
	stateLen := int(binary.BigEndian.Uint16(b[99:]))
	rest := b[ctrlFixedLen:]
	for i := 0; i < n; i++ {
		if len(rest) < 4 {
			return nil, errors.New("core: truncated control address list")
		}
		m.NewList = append(m.NewList, packet.Addr(binary.BigEndian.Uint32(rest)))
		rest = rest[4:]
	}
	if len(rest) != stateLen {
		return nil, errors.New("core: control message length mismatch")
	}
	if stateLen > 0 {
		m.State = append([]byte(nil), rest...)
	}
	return m, nil
}

// appendDeltas renders the §3.4 delta block. Layout (big endian):
//
//	i64 right | i64 left | i64 rightTS | i64 leftTS |
//	u8 rightWinFrom | u8 rightWinTo | u8 leftWinFrom | u8 leftWinTo
func appendDeltas(b []byte, d Deltas) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(d.Right))
	b = binary.BigEndian.AppendUint64(b, uint64(d.Left))
	b = binary.BigEndian.AppendUint64(b, uint64(d.RightTS))
	b = binary.BigEndian.AppendUint64(b, uint64(d.LeftTS))
	b = append(b, byte(d.RightWinFrom), byte(d.RightWinTo))
	b = append(b, byte(d.LeftWinFrom), byte(d.LeftWinTo))
	return b
}

// deltasWireLen is the encoded size of a Deltas block.
const deltasWireLen = 36

// readDeltas decodes the delta block at offset off, bounds-checked like
// readTuple.
func readDeltas(b []byte, off int) (Deltas, int, error) {
	var d Deltas
	if off < 0 || len(b) < off+deltasWireLen {
		return d, 0, errors.New("core: truncated deltas")
	}
	d.Right = int64(binary.BigEndian.Uint64(b[off:]))
	d.Left = int64(binary.BigEndian.Uint64(b[off+8:]))
	d.RightTS = int64(binary.BigEndian.Uint64(b[off+16:]))
	d.LeftTS = int64(binary.BigEndian.Uint64(b[off+24:]))
	d.RightWinFrom = int8(b[off+32])
	d.RightWinTo = int8(b[off+33])
	d.LeftWinFrom = int8(b[off+34])
	d.LeftWinTo = int8(b[off+35])
	return d, off + deltasWireLen, nil
}

// CtrlTypeName decodes a daemon UDP payload and returns its control
// message type name, or "" when the payload is not a control message.
func CtrlTypeName(payload []byte) string {
	m, err := decodeCtrlMsg(payload)
	if err != nil {
		return ""
	}
	return m.Type.String()
}

// IsCtrlTypeName reports whether name is a control message type's name as
// CtrlTypeName returns it.
func IsCtrlTypeName(name string) bool {
	return name != "" && slices.Contains(msgNames[:], name)
}
