package core

import (
	"repro/internal/packet"
)

// steerEgress implements the §3.5 packet-handling rules during two-path
// operation at an anchor. The packet p carries the session header as
// emitted by the local stack (or application); this function decides which
// path each byte and acknowledgment travels, splitting the packet when the
// rules demand it, and transmits the results directly (bypassing egress
// hooks, which already ran). The old path always carries a head of the
// payload and the new path a tail.
func (a *Agent) steerEgress(p *packet.Packet, oldE *rewriteEntry) {
	rc := oldE.sess.Reconfig
	a.track(p, oldE, false)

	dataLen := p.DataLen()
	fin := p.Flags.Has(packet.FlagFIN)

	// Split the payload at the oldSent cutoff: bytes below it belong to
	// the old path, bytes at/after it to the new path.
	oldBytes := 0
	if dataLen > 0 && packet.SeqLT(p.Seq, rc.oldSent) {
		oldBytes = min(int(packet.SeqDiff(p.Seq, rc.oldSent)), dataLen)
	}
	newBytes := dataLen - oldBytes
	// The FIN occupies the sequence position right after the data.
	finOld := fin && packet.SeqLT(packet.SeqAdd(p.Seq, int64(dataLen)), rc.oldSent)
	finNew := fin && !finOld

	// Acknowledgment routing (§3.5 second table). Old-path packets carry
	// at most oldRcvd to avoid acknowledging data old middleboxes never
	// saw; anything beyond travels on the new path.
	ackForOld := packet.SeqMin(p.Ack, rc.oldRcvd)
	oldAckAdvances := p.Flags.Has(packet.FlagACK) && packet.SeqGT(ackForOld, rc.oldRcvdAcked)

	// A pure acknowledgment beyond oldRcvd travels the new path.
	pureAck := dataLen == 0 && !fin
	ackOnNew := pureAck && p.Flags.Has(packet.FlagACK) && packet.SeqGT(p.Ack, rc.oldRcvd)

	sentOld := oldBytes > 0 || finOld
	if sentOld {
		a.sendOldPath(p, oldE, oldBytes, finOld, ackForOld)
	}
	if newBytes > 0 || finNew || ackOnNew {
		a.sendNewPath(p, rc, newBytes, finNew)
	}
	if !sentOld && (oldAckAdvances || pureAck && !ackOnNew) {
		// A pure ack on the old path: the packet's own ack when it stays
		// within oldRcvd, or — after the new-path copy — oldRcvd when the
		// old path's ack level still advances (the ack table's third row).
		a.sendOldPath(p, oldE, 0, false, ackForOld)
	}

	a.daemon.checkOldPathDone(rc)
}

// sendOldPath transmits the first n payload bytes of p, with its FIN when
// fin, on the old path, acknowledging ack (at most oldRcvd). It clamps the
// advertised window (§5.3: the strategy that worked best was
// min(advertised, 64 KB)) and trims SACK blocks that refer to bytes
// old-path middleboxes never saw.
func (a *Agent) sendOldPath(p *packet.Packet, oldE *rewriteEntry, n int, fin bool, ack uint32) {
	rc := oldE.sess.Reconfig
	op := p.ShallowClone()
	op.Payload = p.Payload[:n:n]
	if !fin {
		op.Flags &^= packet.FlagFIN
	}
	op.Ack = ack
	a.clampWindow(op, oldE.sess.wsOfferLocal)
	if len(op.Opts.SACK) > 0 {
		kept := op.Opts.SACK[:0]
		for _, b := range op.Opts.SACK {
			if packet.SeqLEQ(b.End, rc.oldRcvd) {
				kept = append(kept, b)
			}
		}
		op.Opts.SACK = kept
	}
	a.applyEgress(op, oldE)
	a.Host.SendDirect(op)
	a.Stats.OldPathPackets++
	if packet.SeqGT(ack, rc.oldRcvdAcked) {
		rc.oldRcvdAcked = ack
	}
}

// sendNewPath transmits the last n payload bytes of p, with its FIN when
// fin, on the new path; the acknowledgment travels unchanged.
func (a *Agent) sendNewPath(p *packet.Packet, rc *Reconfig, n int, fin bool) {
	off := p.DataLen() - n
	np := p.ShallowClone()
	np.Seq = packet.SeqAdd(p.Seq, int64(off))
	np.Payload = p.Payload[off : off+n : off+n]
	if !fin {
		np.Flags &^= packet.FlagFIN
	}
	a.applyEgress(np, rc.newEgressEntry)
	a.Host.SendDirect(np)
	a.Stats.NewPathPackets++
}

// noteTwoPathIngress updates the dynamic §3.5 variables as packets arrive
// on either path during two-path operation, in local space: the first
// new-path byte (firstNewRcvd) and the end of old-path data (oldRcvd).
// Acks for our old-path data need nothing here: Session.sentAckedHi
// already tracks them (they may arrive via either path).
func (a *Agent) noteTwoPathIngress(p *packet.Packet, e *rewriteEntry, rc *Reconfig) {
	data := p.DataLen() > 0 || p.Flags.Has(packet.FlagFIN)
	if e.newPath {
		if data {
			seqLocal := packet.SeqAdd(p.Seq, e.SeqAdd)
			if !rc.hasFirstNew || packet.SeqLT(seqLocal, rc.firstNewRcvd) {
				rc.firstNewRcvd = seqLocal
				rc.hasFirstNew = true
			}
			a.Stats.NewPathPackets++
		}
	} else {
		if end := dataSeqEnd(p); data && packet.SeqGT(end, rc.oldRcvd) {
			rc.oldRcvd = end
		}
		a.Stats.OldPathPackets++
	}
	a.daemon.checkOldPathDone(rc)
}
