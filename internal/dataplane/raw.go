package dataplane

import (
	"repro/internal/core"
	"repro/internal/packet"
)

// RawRule is a core.Rule compiled for the zero-copy wire fast path: the
// replacement five-tuple broken out into plain integer fields (one
// conversion at install time instead of per packet), the §3.4 deltas,
// and fast flags that let the kernel skip whole translation stages —
// has-ack-delta gates the ack and SACK rewrites, has-TS-delta the
// timestamp rewrites — without re-deriving them from the deltas each
// packet. A RawRule is immutable after CompileRaw, exactly like the
// Entry that carries it.
type RawRule struct {
	srcIP, dstIP     packet.Addr
	srcPort, dstPort packet.Port

	// Deltas keep core.Rule's int64 form and flow through packet.SeqAdd,
	// so the mod-2^32 wrap behavior is the same code path the struct
	// kernel uses.
	seqAdd, tsAdd    int64 // ingress side
	ackAdd, tsEcrAdd int64 // egress side
	winFrom, winTo   int8
	hasSeqAdd        bool
	hasTSAdd         bool
	hasAckAdd        bool
	hasTSEcrAdd      bool
	rescale          bool
}

// CompileRaw lowers r into its raw-path form. dir is accepted for
// symmetry with Entry (both sides are compiled; the direction picks
// which Apply method runs).
func CompileRaw(r *core.Rule, dir Dir) RawRule {
	_ = dir
	return RawRule{
		srcIP:       r.To.SrcIP,
		dstIP:       r.To.DstIP,
		srcPort:     r.To.SrcPort,
		dstPort:     r.To.DstPort,
		seqAdd:      r.SeqAdd,
		tsAdd:       r.TSAdd,
		ackAdd:      r.AckAdd,
		tsEcrAdd:    r.TSEcrAdd,
		winFrom:     r.WinFrom,
		winTo:       r.WinTo,
		hasSeqAdd:   r.SeqAdd != 0,
		hasTSAdd:    r.TSAdd != 0,
		hasAckAdd:   r.AckAdd != 0,
		hasTSEcrAdd: r.TSEcrAdd != 0,
		rescale:     r.WinFrom != r.WinTo,
	}
}

// ApplyEgress is the in-place form of core.Rule.ApplyEgress: the ack
// delta (ACK-flagged packets only), the SACK-block and TS-echo
// translations and the window rescale under the option-translation flag,
// then the tuple substitution. Every store folds into the transport
// checksum via RFC 1624 (packet.ChecksumUpdate16/32) instead of a
// recompute, and the tuple substitution patches the IP header checksum
// the same way — which is why the result is byte-identical to
// Parse → ApplyEgress → Serialize (the equivalence the differential
// oracle and FuzzRawRewrite pin): both sides compute the same one's-complement
// residue, and neither representation of zero can arise because the
// pseudo-header's protocol byte keeps every full sum nonzero.
func (r *RawRule) ApplyEgress(v *packet.View, translateOptions bool) {
	csum := v.TransportChecksum()
	if v.IsTCP() {
		if r.hasAckAdd && v.Flags().Has(packet.FlagACK) {
			old := v.Ack()
			nw := packet.SeqAdd(old, r.ackAdd)
			v.SetAck(nw)
			csum = packet.ChecksumUpdate32(csum, old, nw)
		}
		if translateOptions {
			if r.hasAckAdd {
				for i := 0; i < v.SACKCount(); i++ {
					os, oe := v.SACKStart(i), v.SACKEnd(i)
					ns, ne := packet.SeqAdd(os, r.ackAdd), packet.SeqAdd(oe, r.ackAdd)
					v.SetSACKStart(i, ns)
					v.SetSACKEnd(i, ne)
					csum = foldOption(csum, v.SACKOdd(), os, ns)
					csum = foldOption(csum, v.SACKOdd(), oe, ne)
				}
			}
			if r.hasTSEcrAdd && v.HasTS() {
				old := v.TSEcr()
				nw := packet.SeqAdd(old, r.tsEcrAdd)
				v.SetTSEcr(nw)
				csum = foldOption(csum, v.TSOdd(), old, nw)
			}
			if r.rescale {
				oldW := v.Window()
				actual := uint32(oldW) << r.winFrom
				scaled := actual >> r.winTo
				if scaled > 65535 {
					scaled = 65535
				}
				v.SetWindow(uint16(scaled))
				csum = packet.ChecksumUpdate16(csum, oldW, uint16(scaled))
			}
		}
	}
	v.SetTransportChecksum(r.rewriteTuple(v, csum))
}

// ApplyIngress is the in-place form of core.Rule.ApplyIngress: the seq
// delta, the TS-val translation under the option flag, then the tuple
// substitution, with the same incremental checksum folding as egress.
func (r *RawRule) ApplyIngress(v *packet.View, translateOptions bool) {
	csum := v.TransportChecksum()
	if v.IsTCP() {
		if r.hasSeqAdd {
			old := v.Seq()
			nw := packet.SeqAdd(old, r.seqAdd)
			v.SetSeq(nw)
			csum = packet.ChecksumUpdate32(csum, old, nw)
		}
		if translateOptions && r.hasTSAdd && v.HasTS() {
			old := v.TSVal()
			nw := packet.SeqAdd(old, r.tsAdd)
			v.SetTSVal(nw)
			csum = foldOption(csum, v.TSOdd(), old, nw)
		}
	}
	v.SetTransportChecksum(r.rewriteTuple(v, csum))
}

// foldOption folds the change of a 32-bit TCP option word into the
// transport checksum csum. An odd-length option before it (window scale)
// leaves the word at an odd offset, where the aligned fold is wrong.
func foldOption(csum uint16, odd bool, old, nw uint32) uint16 {
	if odd {
		return packet.ChecksumUpdate32Odd(csum, old, nw)
	}
	return packet.ChecksumUpdate32(csum, old, nw)
}

// rewriteTuple substitutes the compiled five-tuple, folding the address
// and port stores into the transport checksum csum (addresses sit in the
// pseudo-header, so they affect it even for UDP) and folding the address
// stores into the IP header checksum in place. Returns the updated
// transport checksum for the caller to store.
func (r *RawRule) rewriteTuple(v *packet.View, csum uint16) uint16 {
	oldSrc, oldDst := v.SrcIP(), v.DstIP()
	oldSP, oldDP := v.SrcPort(), v.DstPort()
	v.SetSrcIP(r.srcIP)
	v.SetDstIP(r.dstIP)
	v.SetSrcPort(r.srcPort)
	v.SetDstPort(r.dstPort)
	csum = packet.ChecksumUpdate32(csum, uint32(oldSrc), uint32(r.srcIP))
	csum = packet.ChecksumUpdate32(csum, uint32(oldDst), uint32(r.dstIP))
	csum = packet.ChecksumUpdate16(csum, uint16(oldSP), uint16(r.srcPort))
	csum = packet.ChecksumUpdate16(csum, uint16(oldDP), uint16(r.dstPort))
	ipc := v.IPChecksum()
	ipc = packet.ChecksumUpdate32(ipc, uint32(oldSrc), uint32(r.srcIP))
	ipc = packet.ChecksumUpdate32(ipc, uint32(oldDst), uint32(r.dstIP))
	v.SetIPChecksum(ipc)
	return csum
}
