package tcp

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
)

// obsRetransmit reports one retransmitted segment (nil-safe no-op when
// the stack is unobserved).
func (c *Conn) obsRetransmit(detail string, bytes int) {
	if r := c.stack.obs; r != nil {
		r.Emit(obs.Event{Kind: obs.KRetransmit, Sess: c.tuple, Detail: detail, Bytes: bytes})
		r.Metrics().Add(obs.MTCPRetransmits, 1)
	}
}

// obsRTO reports one retransmission-timeout firing.
func (c *Conn) obsRTO(detail string) {
	if r := c.stack.obs; r != nil {
		r.Emit(obs.Event{Kind: obs.KRTO, Sess: c.tuple, Detail: detail})
		r.Metrics().Add(obs.MTCPTimeouts, 1)
	}
}

// flight returns bytes in flight (sent, unacknowledged).
func (c *Conn) flight() int { return int(packet.SeqDiff(c.sndUna, c.sndNxt)) }

// sendWindow is how many more bytes may enter the network now.
func (c *Conn) sendWindow() int {
	w := min(c.cwnd, c.peerWnd) - c.flight()
	if w < 0 {
		return 0
	}
	return w
}

// dataOptions builds the option set for a non-SYN segment.
func (c *Conn) dataOptions() packet.Options {
	o := packet.NoOptions()
	if c.tsOK {
		o.TS = &packet.Timestamp{Val: c.stack.tsNow(), Ecr: c.tsRecent}
	}
	if c.sackOK {
		o.SACK = c.sackAdvertisement()
	}
	return o
}

func (c *Conn) advertisedWindow() uint16 {
	w := c.recvWindow() >> c.rcvWScale
	if w > 65535 {
		w = 65535
	}
	return uint16(w)
}

// emit sends a segment with the standard options/window and counts it.
func (c *Conn) emit(flags packet.TCPFlags, seq uint32, payload []byte) {
	p := packet.NewTCP(c.tuple, flags, seq, c.rcvNxt, payload)
	p.Opts = c.dataOptions()
	p.Window = c.advertisedWindow()
	c.Stats.SegsSent++
	c.stack.Host.Send(p)
}

func (c *Conn) sendAck() {
	c.emit(packet.FlagACK, c.sndNxt, nil)
}

// trySend pushes as much new data (and finally FIN) as windows allow.
func (c *Conn) trySend() {
	switch c.state {
	case StateEstablished, StateCloseWait, StateFinWait1, StateLastAck, StateClosing:
		// States with an open or draining send side.
	case StateClosed, StateSynSent, StateSynRcvd, StateFinWait2, StateTimeWait:
		return
	default:
		panic(fmt.Sprintf("tcp: trySend in unknown state %v", c.state))
	}
	sent := false
	for {
		unsentOff := c.flight() // offset of the first unsent byte in snd
		unsent := c.snd.n - unsentOff
		if unsent > 0 {
			n := min(min(unsent, c.mss), c.sendWindow())
			if n <= 0 {
				break
			}
			if n < c.mss && c.flight() > 0 {
				// Nagle: sub-MSS data waits while anything is outstanding,
				// coalescing into fuller segments on the next ACK.
				break
			}
			payload := c.snd.read(&c.sndCur, unsentOff, n)
			flags := packet.FlagACK
			if n == unsent {
				flags |= packet.FlagPSH
			}
			seq := c.sndNxt
			c.armRTTSample(seq, n)
			c.sndNxt = packet.SeqAdd(c.sndNxt, int64(n))
			c.Stats.BytesSent += uint64(n)
			c.emit(flags, seq, payload)
			sent = true
			continue
		}
		// All data sent: maybe FIN.
		if c.finQueued && !c.finSent {
			c.finSent = true
			seq := c.sndNxt
			c.sndNxt = packet.SeqAdd(c.sndNxt, 1)
			c.emit(packet.FlagFIN|packet.FlagACK, seq, nil)
			sent = true
			if c.state == StateEstablished {
				c.state = StateFinWait1
			} else if c.state == StateCloseWait {
				c.state = StateLastAck
			}
		}
		break
	}
	if c.flight() > 0 {
		if sent || !c.rtxTimer.Armed() {
			c.rtxTimer.Reset(c.rto)
		}
		c.persistTimer.Stop()
	} else if c.snd.n > 0 && c.peerWnd == 0 {
		// Zero-window: arm the persist timer to probe.
		if !c.persistTimer.Armed() {
			c.persistTimer.Reset(c.rto)
		}
	}
}

// armRTTSample starts a non-timestamp RTT measurement on this segment if
// none is outstanding (Karn's algorithm: samples void on retransmission).
func (c *Conn) armRTTSample(seq uint32, n int) {
	if c.rttArmed || c.tsOK {
		return
	}
	c.rttArmed = true
	c.rttClean = true
	c.rttSeq = packet.SeqAdd(seq, int64(n))
	c.rttAt = c.eng.Now()
}

// processAck handles the ACK field of an inbound segment.
func (c *Conn) processAck(p *packet.Packet) {
	ack := p.Ack
	if packet.SeqGT(ack, c.sndNxt) {
		// Acks something never sent; ignore (the peer of a reconfigured
		// session never does this once deltas are applied).
		return
	}
	// Window update (scaled except on SYN, which never reaches here).
	c.peerWnd = int(p.Window) << c.sndWScale
	if c.peerWnd > 0 {
		c.persistTimer.Stop()
	}

	if c.sackOK && len(p.Opts.SACK) > 0 {
		c.scoreboard.merge(p.Opts.SACK, c.sndUna)
	}

	switch {
	case packet.SeqGT(ack, c.sndUna):
		c.ackAdvance(ack, p)
	case ack == c.sndUna && c.flight() > 0 && len(p.Payload) == 0 && !p.Flags.Has(packet.FlagSYN) && !p.Flags.Has(packet.FlagFIN):
		c.dupAcks++
		if c.inRecovery {
			// Each dup ACK signals a segment left the network: conservation
			// admits one hole retransmission (the cursor guarantees each
			// hole is sent at most once per episode) plus cwnd inflation
			// for new data (RFC 6675 flavour).
			c.cwnd += c.mss
			c.retransmitHole()
			c.trySend()
		} else if c.dupAcks == 3 {
			c.enterFastRecovery()
		}
	}
}

func (c *Conn) ackAdvance(ack uint32, p *packet.Packet) {
	acked := int(packet.SeqDiff(c.sndUna, ack))
	// FIN occupies sequence space but not buffer space.
	bufAcked := acked
	if c.finSent && ack == c.sndNxt {
		bufAcked--
	}
	if bufAcked > c.snd.n {
		bufAcked = c.snd.n
	}
	c.snd.drop(bufAcked)
	c.sndUna = ack
	c.dupAcks = 0
	c.scoreboard.trim(c.sndUna)
	c.sampleRTT(ack, p)

	if c.inRecovery {
		if packet.SeqGEQ(ack, c.recoverPt) {
			// Full acknowledgment: leave recovery, deflate.
			c.inRecovery = false
			c.lossMode = false
			c.cwnd = c.ssthresh
		} else if c.lossMode {
			// RTO recovery (CA_Loss): slow-start the window back up and
			// let every acknowledged byte clock out further
			// retransmissions of the lost window.
			c.cwnd += min(acked, c.mss)
			budget := acked
			for budget > 0 {
				n := c.retransmitHole()
				if n <= 0 {
					break
				}
				budget -= n
			}
		} else {
			// Partial ACK in fast recovery: retransmit the next hole.
			c.retransmitHole()
		}
	} else if c.flight()+acked >= c.cwnd-c.mss {
		// Congestion avoidance / slow start — but only when the window was
		// actually limiting (RFC 2861 congestion-window validation keeps
		// app-limited flows from inflating cwnd without evidence).
		if c.cwnd < c.ssthresh {
			c.cwnd += min(acked, c.mss)
		} else {
			c.cwnd += max(1, c.mss*c.mss/c.cwnd)
		}
	}

	if c.flight() > 0 {
		c.rtxTimer.Reset(c.rto)
	} else {
		c.rtxTimer.Stop()
	}
	if c.OnSendBufferLow != nil && c.snd.n < 128<<10 {
		c.OnSendBufferLow()
	}
	if c.snd.n == 0 && c.onDrained != nil {
		fns := c.onDrained
		c.onDrained = nil
		for _, fn := range fns {
			fn()
		}
	}
}

func (c *Conn) sampleRTT(ack uint32, p *packet.Packet) {
	var rtt sim.Time
	have := false
	if c.tsOK && p.Opts.TS != nil && p.Opts.TS.Ecr != 0 {
		nowMS := c.stack.tsNow()
		if d := packet.SeqDiff(p.Opts.TS.Ecr, nowMS); d >= 0 {
			rtt = sim.Time(d) * 1e6 // ms → Duration
			have = true
		}
	} else if c.rttArmed && c.rttClean && packet.SeqGEQ(ack, c.rttSeq) {
		rtt = c.eng.Now() - c.rttAt
		c.rttArmed = false
		have = true
	}
	if !have {
		return
	}
	if !c.hasRTT {
		c.srtt = rtt
		c.rttvar = rtt / 2
		c.hasRTT = true
	} else {
		d := c.srtt - rtt
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + rtt) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < minRTO {
		c.rto = minRTO
	}
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
}

// RTO returns the current retransmission timeout.
func (c *Conn) RTO() sim.Time { return c.rto }

func (c *Conn) enterFastRecovery() {
	c.Stats.FastRetransmits++
	c.ssthresh = max(c.flight()/2, 2*c.mss)
	c.cwnd = c.ssthresh + 3*c.mss
	c.inRecovery = true
	c.recoverPt = c.sndNxt
	c.rtxCursor = c.sndUna
	c.retransmitHole()
}

// retransmitHole retransmits the first unsacked range at/after the
// retransmission cursor, advancing the cursor so each hole is resent at
// most once per recovery episode (without the cursor every dup ACK would
// resend the same segment — a retransmission storm). A hole beyond sndUna
// is retransmitted only once it is deemed lost per the RFC 6675
// heuristic: at least 3 MSS of SACKed data above it (otherwise it is
// probably just in flight).
func (c *Conn) retransmitHole() int {
	if packet.SeqLT(c.rtxCursor, c.sndUna) {
		c.rtxCursor = c.sndUna
	}
	start, okLen := c.scoreboard.firstHole(c.rtxCursor, c.sndNxt)
	if okLen <= 0 {
		return 0
	}
	if c.lossMode {
		// After an RTO everything unsacked below recoverPt is lost.
		if packet.SeqGEQ(start, c.recoverPt) {
			return 0
		}
	} else if start != c.sndUna && c.scoreboard.sackedAbove(start) < 3*c.mss {
		return 0
	}
	n := min(okLen, c.mss)
	c.retransmitRange(start, n)
	c.rtxCursor = packet.SeqAdd(start, int64(n))
	return n
}

// retransmitRange resends [seq, seq+n) from the buffer (or the FIN). Only
// data already transmitted — below sndNxt — may be resent.
func (c *Conn) retransmitRange(seq uint32, n int) {
	off := int(packet.SeqDiff(c.sndUna, seq))
	if off < 0 {
		return
	}
	c.rttClean = false // Karn: void timing sample
	if off >= c.snd.n {
		// Beyond data: must be the FIN.
		if c.finSent {
			c.Stats.Retransmits++
			c.obsRetransmit("fin", 0)
			c.emit(packet.FlagFIN|packet.FlagACK, seq, nil)
		}
		return
	}
	sent := int(packet.SeqDiff(seq, c.sndNxt)) // bytes of sequence space sent from seq
	if c.finSent && sent > 0 {
		sent-- // the FIN occupies the last unit
	}
	if n > sent {
		n = sent
	}
	if n <= 0 {
		return
	}
	if off+n > c.snd.n {
		n = c.snd.n - off
	}
	payload := c.snd.read(&c.rtxCur, off, n)
	c.Stats.Retransmits++
	c.obsRetransmit("data", n)
	flags := packet.FlagACK
	if c.finSent && off+n == c.snd.n {
		// The FIN directly follows this data: retransmit it together.
		flags |= packet.FlagFIN
	}
	c.emit(flags, seq, payload)
}

func (c *Conn) onRetransmitTimeout() {
	switch c.state {
	case StateSynSent:
		c.Stats.Timeouts++
		c.obsRTO("syn-sent")
		c.sndNxt = c.iss
		c.sendSYN(false)
		c.backoffRTO()
		c.rtxTimer.Reset(c.rto)
		return
	case StateSynRcvd:
		c.Stats.Timeouts++
		c.obsRTO("syn-rcvd")
		c.sndNxt = c.iss
		c.sendSYN(true)
		c.backoffRTO()
		c.rtxTimer.Reset(c.rto)
		return
	case StateClosed, StateTimeWait:
		return
	case StateEstablished, StateFinWait1, StateFinWait2, StateCloseWait, StateClosing, StateLastAck:
		// Data/FIN retransmission below.
	}
	if c.flight() == 0 {
		return
	}
	c.Stats.Timeouts++
	c.obsRTO("data")
	c.ssthresh = max(c.flight()/2, 2*c.mss)
	c.cwnd = c.mss
	// Enter RTO-driven loss recovery (CA_Loss): returning ACKs clock out
	// retransmission of the whole lost window. SACK information is kept
	// so already-received ranges are not resent.
	c.inRecovery = true
	c.lossMode = true
	c.recoverPt = c.sndNxt
	c.dupAcks = 0
	c.rtxCursor = c.sndUna
	c.retransmitRange(c.sndUna, c.mss)
	c.backoffRTO()
	c.rtxTimer.Reset(c.rto)
}

func (c *Conn) backoffRTO() {
	c.rto *= 2
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
}

func (c *Conn) onPersistTimeout() {
	if c.peerWnd > 0 || c.snd.n == 0 {
		return
	}
	// Send a 1-byte window probe: the next unsent byte, beyond the
	// advertised window. It occupies sequence space so the probe's ACK
	// (carrying the reopened window) is processed normally.
	off := c.flight()
	if off < c.snd.n {
		payload := c.snd.read(&c.sndCur, off, 1)
		seq := c.sndNxt
		c.sndNxt = packet.SeqAdd(c.sndNxt, 1)
		c.Stats.BytesSent++
		c.emit(packet.FlagACK, seq, payload)
		c.rtxTimer.Reset(c.rto)
	}
	c.persistTimer.Reset(c.rto)
}

// sackScoreboard tracks ranges the peer has selectively acknowledged.
type sackScoreboard struct {
	ranges []packet.SACKBlock // sorted, disjoint
}

// merge folds advertised blocks into the scoreboard, ignoring stale ones
// below una.
func (sb *sackScoreboard) merge(blocks []packet.SACKBlock, una uint32) {
	for _, b := range blocks {
		if packet.SeqLEQ(b.End, una) {
			continue
		}
		if packet.SeqLT(b.Start, una) {
			b.Start = una
		}
		sb.insert(b)
	}
}

func (sb *sackScoreboard) insert(b packet.SACKBlock) {
	out := sb.ranges[:0]
	merged := b
	for _, r := range sb.ranges {
		if packet.SeqLT(r.End, merged.Start) || packet.SeqLT(merged.End, r.Start) {
			out = append(out, r)
		} else {
			merged.Start = packet.SeqMin(merged.Start, r.Start)
			merged.End = packet.SeqMax(merged.End, r.End)
		}
	}
	// Insert keeping sort order.
	pos := len(out)
	for i, r := range out {
		if packet.SeqLT(merged.Start, r.Start) {
			pos = i
			break
		}
	}
	out = append(out, packet.SACKBlock{})
	copy(out[pos+1:], out[pos:])
	out[pos] = merged
	sb.ranges = out
}

// trim drops sacked ranges at/below una.
func (sb *sackScoreboard) trim(una uint32) {
	out := sb.ranges[:0]
	for _, r := range sb.ranges {
		if packet.SeqGT(r.End, una) {
			if packet.SeqLT(r.Start, una) {
				r.Start = una
			}
			out = append(out, r)
		}
	}
	sb.ranges = out
}

// isSacked reports whether seq is covered by a sacked range.
func (sb *sackScoreboard) isSacked(seq uint32) bool {
	for _, r := range sb.ranges {
		if packet.SeqGEQ(seq, r.Start) && packet.SeqLT(seq, r.End) {
			return true
		}
	}
	return false
}

// sackedAbove returns the number of sacked bytes at or above seq.
func (sb *sackScoreboard) sackedAbove(seq uint32) int {
	total := 0
	for _, r := range sb.ranges {
		if packet.SeqGEQ(r.Start, seq) {
			total += int(packet.SeqDiff(r.Start, r.End))
		} else if packet.SeqGT(r.End, seq) {
			total += int(packet.SeqDiff(seq, r.End))
		}
	}
	return total
}

// firstHole returns the first unsacked position in [una, nxt) and the hole
// length, or (0, 0) if fully covered.
func (sb *sackScoreboard) firstHole(una, nxt uint32) (uint32, int) {
	cur := una
	for _, r := range sb.ranges {
		if packet.SeqGT(r.Start, cur) {
			return cur, int(packet.SeqDiff(cur, packet.SeqMin(r.Start, nxt)))
		}
		if packet.SeqGT(r.End, cur) {
			cur = r.End
		}
	}
	if packet.SeqLT(cur, nxt) {
		return cur, int(packet.SeqDiff(cur, nxt))
	}
	return 0, 0
}
