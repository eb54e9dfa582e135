package core

import (
	"repro/internal/packet"
)

// steerEgress implements the §3.5 packet-handling rules during two-path
// operation at an anchor. The packet p carries the session header as
// emitted by the local stack (or application); this function decides which
// path each byte and acknowledgment travels, splitting the packet when the
// rules demand it, and transmits the results directly (bypassing egress
// hooks, which already ran).
func (a *Agent) steerEgress(p *packet.Packet, oldE *rewriteEntry) {
	sess := oldE.sess
	rc := sess.Reconfig
	newE := rc.newEgressEntry
	a.track(p, oldE, false)

	dataLen := p.DataLen()
	seq := p.Seq
	fin := p.Flags.Has(packet.FlagFIN)

	// Split the payload at the oldSent cutoff: bytes below it belong to
	// the old path, bytes at/after it to the new path.
	oldBytes := 0
	if dataLen > 0 && packet.SeqLT(seq, rc.oldSent) {
		oldBytes = int(packet.SeqDiff(seq, rc.oldSent))
		if oldBytes > dataLen {
			oldBytes = dataLen
		}
	}
	newBytes := dataLen - oldBytes
	// The FIN occupies the sequence position right after the data.
	finSeq := packet.SeqAdd(seq, int64(dataLen))
	finOld := fin && packet.SeqLT(finSeq, rc.oldSent)
	finNew := fin && !finOld

	// Acknowledgment routing (§3.5 second table). Old-path packets carry
	// at most oldRcvd to avoid acknowledging data old middleboxes never
	// saw; anything beyond travels on the new path.
	ackForOld := packet.SeqMin(p.Ack, rc.oldRcvd)
	oldAckAdvances := p.Flags.Has(packet.FlagACK) && packet.SeqGT(ackForOld, rc.oldRcvdAcked)

	sentOld, sentNew := false, false

	if oldBytes > 0 || finOld {
		op := p.ShallowClone()
		if oldBytes > 0 {
			op.Payload = p.Payload[:oldBytes:oldBytes]
		} else {
			op.Payload = nil
		}
		if !finOld {
			op.Flags &^= packet.FlagFIN
		}
		op.Ack = ackForOld
		a.prepareOldPathPacket(op, rc)
		a.applyEgress(op, oldE)
		a.Host.SendDirect(op)
		sentOld = true
		a.Stats.OldPathPackets++
		if packet.SeqGT(ackForOld, rc.oldRcvdAcked) {
			rc.oldRcvdAcked = ackForOld
		}
	}
	if newBytes > 0 || finNew {
		np := p.ShallowClone()
		if newBytes > 0 {
			np.Seq = packet.SeqAdd(seq, int64(oldBytes))
			np.Payload = p.Payload[oldBytes:dataLen:dataLen]
		} else {
			np.Seq = finSeq
			np.Payload = nil
		}
		if !finNew {
			np.Flags &^= packet.FlagFIN
		}
		a.applyEgress(np, newE)
		a.Host.SendDirect(np)
		sentNew = true
		a.Stats.NewPathPackets++
	}
	if sentOld && sentNew {
		a.Stats.SplitPackets++
	}

	if dataLen == 0 && !fin {
		// Pure acknowledgment: route per the ack table.
		if p.Flags.Has(packet.FlagACK) && packet.SeqGT(p.Ack, rc.oldRcvd) {
			np := p.ShallowClone()
			a.applyEgress(np, newE)
			a.Host.SendDirect(np)
			a.Stats.NewPathPackets++
			if oldAckAdvances {
				// Third row: also acknowledge oldRcvd on the old path.
				op := p.ShallowClone()
				op.Ack = rc.oldRcvd
				op.Payload = nil
				a.prepareOldPathPacket(op, rc)
				a.applyEgress(op, oldE)
				a.Host.SendDirect(op)
				rc.oldRcvdAcked = rc.oldRcvd
				a.Stats.SplitPackets++
				a.Stats.OldPathPackets++
			}
		} else {
			op := p.ShallowClone()
			op.Ack = ackForOld
			a.prepareOldPathPacket(op, rc)
			a.applyEgress(op, oldE)
			a.Host.SendDirect(op)
			a.Stats.OldPathPackets++
			if packet.SeqGT(ackForOld, rc.oldRcvdAcked) {
				rc.oldRcvdAcked = ackForOld
			}
		}
	} else if !sentOld && oldAckAdvances {
		// Data went entirely to the new path but the ack still advances
		// the old path: emit a pure ack there.
		op := p.ShallowClone()
		op.Payload = nil
		op.Flags &^= packet.FlagFIN
		op.Ack = ackForOld
		a.prepareOldPathPacket(op, rc)
		a.applyEgress(op, oldE)
		a.Host.SendDirect(op)
		rc.oldRcvdAcked = ackForOld
		a.Stats.OldPathPackets++
	}

	a.daemon.checkOldPathDone(rc)
}

// prepareOldPathPacket clamps the advertised window (§5.3: the strategy
// that worked best was min(advertised, 64 KB)) and trims SACK blocks that
// refer to bytes old-path middleboxes never saw.
func (a *Agent) prepareOldPathPacket(p *packet.Packet, rc *Reconfig) {
	a.clampWindow(p, rc.Sess.wsOfferLocal)
	if len(p.Opts.SACK) > 0 {
		kept := p.Opts.SACK[:0]
		for _, b := range p.Opts.SACK {
			if packet.SeqLEQ(b.End, rc.oldRcvd) {
				kept = append(kept, b)
			}
		}
		p.Opts.SACK = kept
	}
}

// noteOldPathIngress updates the dynamic §3.5 variables when a packet
// arrives on the old path during two-path operation.
func (a *Agent) noteOldPathIngress(p *packet.Packet, rc *Reconfig) {
	if p.DataLen() > 0 || p.Flags.Has(packet.FlagFIN) {
		end := dataSeqEnd(p)
		if packet.SeqGT(end, rc.oldRcvd) {
			rc.oldRcvd = end
		}
	}
	// Acks for our old-path data arrive here too, but Session.sentAckedHi
	// already tracks them (they may also arrive via the new path).
}
