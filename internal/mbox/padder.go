package mbox

import (
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/packet"
)

// Padder is a size-changing middlebox: it inserts a banner at the start of
// the rightward byte stream (an ad-inserting proxy at packet level). It
// translates sequence numbers rightward and acknowledgment and SACK
// numbers leftward, and reports its delta to the local Dysco agent so
// that deleting it fixes sequence numbers elsewhere (§3.4).
//
// The banner goes at a stream offset, not into a particular packet: every
// rightward data segment that starts at the stream's first byte (the
// SYN's sequence number + 1) carries it, so a retransmission of a lost
// banner-carrying segment carries it again and the padder keeps no packet.
// The stream's first byte is known only from its SYN, so the padder pads
// only sessions it saw open: one inserted by reconfiguration into a live
// session passes that session through unchanged. It keeps one entry per
// session it saw open, and never removes it.
type Padder struct {
	Banner []byte
	// Report, when set, is called with the accumulated deltas whenever
	// they change (wired to core.Agent.ReportDelta).
	Report func(sess packet.FiveTuple, d core.Deltas)

	// streams maps each rightward session tuple to its stream's state.
	streams map[packet.FiveTuple]padStream
	// Insertions counts sessions that received the banner.
	Insertions int
}

// padStream is one rightward stream: where the banner goes, and whether
// its delta has been reported.
type padStream struct {
	first    uint32 // the SYN's sequence number + 1
	reported bool
}

// NewPadder builds a padder inserting the given banner once per session.
func NewPadder(banner []byte) *Padder {
	return &Padder{Banner: banner, streams: make(map[packet.FiveTuple]padStream)}
}

// Process implements core.App.
func (pd *Padder) Process(p *packet.Packet, dir netsim.Direction) []*packet.Packet {
	if p.Flags.Has(packet.FlagSYN) {
		if !p.Flags.Has(packet.FlagACK) {
			pd.streams[p.Tuple] = padStream{first: packet.SeqAdd(p.Seq, 1)}
		}
		return []*packet.Packet{p}
	}
	delta := int64(len(pd.Banner))
	if st, ok := pd.streams[p.Tuple]; ok {
		if p.Seq != st.first {
			// Rightward bytes after the banner's offset: shift them.
			p.Seq = packet.SeqAdd(p.Seq, delta)
			return []*packet.Packet{p}
		}
		if p.DataLen() == 0 {
			return []*packet.Packet{p}
		}
		// A segment at the stream's first byte: the banner goes in front.
		if !st.reported {
			st.reported = true
			pd.streams[p.Tuple] = st
			pd.Insertions++
			if pd.Report != nil {
				pd.Report(p.Tuple, core.Deltas{Right: delta})
			}
		}
		np := p.Clone()
		np.Payload = append(append([]byte(nil), pd.Banner...), p.Payload...)
		return []*packet.Packet{np}
	}
	if st, ok := pd.streams[p.Tuple.Reverse()]; ok {
		// Leftward packet: acknowledgments (and SACK blocks) refer to the
		// shifted rightward stream; shift them back.
		p.Ack = unshift(p.Ack, st.first, delta)
		for i := range p.Opts.SACK {
			p.Opts.SACK[i].Start = unshift(p.Opts.SACK[i].Start, st.first, delta)
			p.Opts.SACK[i].End = unshift(p.Opts.SACK[i].End, st.first, delta)
		}
	}
	return []*packet.Packet{p}
}

// unshift maps a position in the padded stream back to the original one;
// positions at or inside the banner map to the stream's first byte.
func unshift(n, first uint32, delta int64) uint32 {
	if packet.SeqLEQ(n, packet.SeqAdd(first, delta)) {
		return first
	}
	return packet.SeqAdd(n, -delta)
}
