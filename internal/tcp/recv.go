package tcp

import (
	"repro/internal/packet"
)

// recvWindow returns the free receive buffer in bytes. Applications in this
// simulator consume delivered data immediately (the OnData callback), so
// only out-of-order bytes occupy the buffer.
func (c *Conn) recvWindow() int {
	w := recvBuf - c.oooBytes
	if w < 0 {
		return 0
	}
	return w
}

// processData handles the payload and FIN of an inbound segment, updating
// the reassembly queue and emitting an ACK.
func (c *Conn) processData(p *packet.Packet) {
	seq := p.Seq
	data := p.Payload
	fin := p.Flags.Has(packet.FlagFIN)
	end := packet.SeqAdd(seq, int64(len(data)))

	// Entirely old segment (retransmission already received): ACK again.
	if packet.SeqLEQ(end, c.rcvNxt) && !fin {
		c.sendAck()
		return
	}
	if fin && packet.SeqLT(packet.SeqAdd(end, 1), c.rcvNxt) {
		c.sendAck()
		return
	}

	// Trim the prefix we already have.
	if packet.SeqLT(seq, c.rcvNxt) {
		skip := int(packet.SeqDiff(seq, c.rcvNxt))
		if skip >= len(data) {
			data = nil
		} else {
			data = data[skip:]
		}
		seq = c.rcvNxt
	}

	if seq == c.rcvNxt {
		// In-order: deliver immediately.
		c.deliver(data, fin)
		c.drainOOO()
	} else {
		// Out of order: queue if it fits, advertise SACK.
		if len(data) > 0 && c.oooBytes+len(data) <= recvBuf && len(c.ooo) < 1024 {
			c.insertOOO(oooSeg{seq: seq, data: data, fin: fin})
		} else if fin && len(data) == 0 {
			c.insertOOO(oooSeg{seq: seq, fin: fin})
		}
	}
	c.sendAck()
}

// deliver hands in-order bytes to the application and consumes a FIN.
func (c *Conn) deliver(data []byte, fin bool) {
	if len(data) > 0 {
		c.rcvNxt = packet.SeqAdd(c.rcvNxt, int64(len(data)))
		c.Stats.BytesRcvd += uint64(len(data))
		if c.OnData != nil {
			c.OnData(data)
		}
	}
	if fin && !c.peerFIN {
		c.rcvNxt = packet.SeqAdd(c.rcvNxt, 1)
		c.peerFIN = true
		if c.state == StateEstablished {
			c.state = StateCloseWait
		}
		if c.OnPeerFIN != nil {
			c.OnPeerFIN()
		}
	}
}

// insertOOO adds a segment to the out-of-order queue, keeping the queue
// sorted by sequence number and disjoint. Overlap with existing segments
// is trimmed from the new segment; an existing segment strictly inside the
// new one splits it into two pieces, each inserted recursively.
func (c *Conn) insertOOO(s oooSeg) {
	sEnd := packet.SeqAdd(s.seq, int64(len(s.data)))
	for i := range c.ooo {
		e := &c.ooo[i]
		eEnd := packet.SeqAdd(e.seq, int64(len(e.data)))
		if len(s.data) == 0 {
			// Zero-length FIN marker: only duplicate suppression applies.
			if s.seq == eEnd && e.fin {
				return
			}
			continue
		}
		if packet.SeqLEQ(eEnd, s.seq) || packet.SeqLEQ(sEnd, e.seq) {
			continue // disjoint
		}
		// Overlap: keep the pieces of s outside e.
		if packet.SeqLT(s.seq, e.seq) {
			n := int(packet.SeqDiff(s.seq, e.seq))
			c.insertOOO(oooSeg{seq: s.seq, data: s.data[:n:n]})
		}
		switch {
		case packet.SeqGT(sEnd, eEnd):
			off := int(packet.SeqDiff(s.seq, eEnd))
			c.insertOOO(oooSeg{seq: eEnd, data: s.data[off:], fin: s.fin})
		case s.fin && sEnd == eEnd:
			e.fin = true
		case s.fin && packet.SeqLT(sEnd, eEnd):
			// Peer claims FIN at sEnd yet previously sent data beyond it:
			// contradictory; ignore the FIN (a correct peer never does this).
		}
		return
	}
	// No overlap: insert sorted by seq.
	pos := len(c.ooo)
	for i, e := range c.ooo {
		if packet.SeqLT(s.seq, e.seq) {
			pos = i
			break
		}
	}
	c.ooo = append(c.ooo, oooSeg{})
	copy(c.ooo[pos+1:], c.ooo[pos:])
	c.ooo[pos] = s
	c.oooBytes += len(s.data)
	// Remember the most recent arrival for SACK block ordering.
	c.lastOOO = packet.SACKBlock{Start: s.seq, End: sEnd}
}

// drainOOO delivers any queued segments made in-order by rcvNxt advancing.
func (c *Conn) drainOOO() {
	for len(c.ooo) > 0 {
		s := c.ooo[0]
		sEnd := packet.SeqAdd(s.seq, int64(len(s.data)))
		if packet.SeqGT(s.seq, c.rcvNxt) {
			return
		}
		c.ooo = c.ooo[1:]
		c.oooBytes -= len(s.data)
		if packet.SeqLEQ(sEnd, c.rcvNxt) && !s.fin {
			continue // stale
		}
		if packet.SeqLT(s.seq, c.rcvNxt) {
			s.data = s.data[int(packet.SeqDiff(s.seq, c.rcvNxt)):]
		}
		c.deliver(s.data, s.fin)
	}
}

// sackAdvertisement builds up to 3 SACK blocks from the out-of-order queue,
// most recent arrival first (RFC 2018).
func (c *Conn) sackAdvertisement() []packet.SACKBlock {
	if len(c.ooo) == 0 {
		return nil
	}
	// Coalesce adjacent segments into blocks.
	var blocks []packet.SACKBlock
	for _, s := range c.ooo {
		sEnd := packet.SeqAdd(s.seq, int64(len(s.data)))
		if n := len(blocks); n > 0 && blocks[n-1].End == s.seq {
			blocks[n-1].End = sEnd
			continue
		}
		blocks = append(blocks, packet.SACKBlock{Start: s.seq, End: sEnd})
	}
	// Most recent block first.
	out := make([]packet.SACKBlock, 0, 3)
	for _, b := range blocks {
		if packet.SeqLEQ(b.Start, c.lastOOO.Start) && packet.SeqGEQ(b.End, c.lastOOO.Start) {
			out = append(out, b)
			break
		}
	}
	for _, b := range blocks {
		if len(out) >= 3 {
			break
		}
		if len(out) > 0 && b == out[0] {
			continue
		}
		out = append(out, b)
	}
	// Drop degenerate zero-length blocks (pure-FIN placeholders).
	final := out[:0]
	for _, b := range out {
		if b.Start != b.End {
			final = append(final, b)
		}
	}
	if len(final) == 0 {
		return nil
	}
	return final
}
