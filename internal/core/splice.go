package core

import (
	"fmt"

	"repro/internal/packet"
)

// SpliceConn is the view of a local TCP connection that Splice needs: the
// sequence state and negotiated options of one side of a TCP-terminating
// proxy. *tcp.Conn implements it.
type SpliceConn interface {
	Tuple() packet.FiveTuple
	SndNxt() uint32
	RcvNxt() uint32
	SndUna() uint32
	RcvWScale() int8
	SndWScale() int8
	TSRecent() uint32
	TSNow() uint32
	// BufferedOut reports bytes accepted for sending but not yet
	// acknowledged; the old path is drained only when it reaches zero.
	BufferedOut() int
	// OnDrained runs fn once BufferedOut is zero: at once, or at the ACK
	// that empties the send queue. A detached connection never runs it.
	OnDrained(fn func())
	Detach()
}

// Splice links a TCP-terminating proxy's two sessions and triggers the
// proxy's removal from the chain at its left neighbor (§2.4, §4.2: the
// intercepted splice() call). left is the connection facing the client
// (accepted with the session header), right the connection the proxy
// opened toward the server. Data keeps flowing through the proxy's TCP
// stacks until the old path drains; the connections are detached when the
// old path is torn down.
func (a *Agent) Splice(left, right SpliceConn) error {
	if err := a.splice(left, right); err != nil {
		return err
	}
	return a.TriggerReplace(left.Tuple().Reverse(), nil, 0, 0)
}

// splice computes the sequence, timestamp, and window-scale deltas (§3.4)
// and records the session continuation for control-message translation.
func (a *Agent) splice(left, right SpliceConn) error {
	// The client-side connection was accepted: its local tuple is the
	// reverse of the session's forward tuple.
	sessID := left.Tuple().Reverse()
	sess := a.sessions[sessID]
	if sess == nil {
		return fmt.Errorf("core: Splice: unknown client-side session %v", sessID)
	}
	rightID := right.Tuple()
	sess2 := a.sessions[rightID]
	if sess2 == nil {
		// The server-side session is plain TCP (no chain): create its
		// record so the reconfiguration protocol can traverse this hop.
		sess2 = a.openSession(&Session{
			IDLeft: rightID, IDRight: rightID,
			RightHost: rightID.DstIP,
			SubRight:  rightID,
		}, "splice", 0)
	}
	sess.Splice = sess2
	sess2.Splice = sess
	sess.spliceConns = [2]SpliceConn{left, right}
	sess2.spliceConns = sess.spliceConns
	// While the old path drains, this host clamps the receive windows it
	// advertises so the senders do not overwhelm the receivers during the
	// two-path phase (§5.3).
	sess.Draining = true
	sess.drainWScale = left.RcvWScale()
	sess2.Draining = true
	sess2.drainWScale = right.RcvWScale()

	// §3.4 deltas, frozen from now on (the proxy only relays from here).
	// Rightward stream: the server sees positions numbered by the proxy's
	// server-side connection; the client numbers them by its own ISN. The
	// proxy's write position is SndUna+BufferedOut — NOT SndNxt, which
	// lags by whatever the congestion window has not yet let out.
	rightWritePos := packet.SeqAdd(right.SndUna(), int64(right.BufferedOut()))
	leftWritePos := packet.SeqAdd(left.SndUna(), int64(left.BufferedOut()))
	sess.MboxDeltas = Deltas{
		Right:   int64(packet.SeqDiff(left.RcvNxt(), rightWritePos)),
		Left:    int64(packet.SeqDiff(right.RcvNxt(), leftWritePos)),
		RightTS: int64(right.TSNow() - left.TSRecent()),
		LeftTS:  int64(left.TSNow() - right.TSRecent()),
		// The right anchor rescales its outgoing windows from its own
		// shift to the shift the client applies to incoming windows.
		RightWinFrom: right.SndWScale(), // server's own offer
		RightWinTo:   left.RcvWScale(),  // proxy's offer on the client side
		LeftWinFrom:  left.SndWScale(),  // client's own offer
		LeftWinTo:    right.RcvWScale(), // proxy's offer on the server side
	}
	return nil
}
