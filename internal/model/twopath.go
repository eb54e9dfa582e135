package model

import (
	"fmt"
)

// The two-path model verifies §3.5 (packet handling on two paths) and the
// delta mechanism of §3.4: a left anchor L streams N data tokens to a
// right anchor R while the path is reconfigured underneath the stream.
// The old path runs through a deleted middlebox that had shifted the
// stream numbering by Delta (a session-terminating proxy or content
// inserter); the new path is direct, with R holding Delta from the
// requestLock and applying it per §3.4 (in: add to seq; out: subtract
// from ack).
//
// Channels are reliable FIFO per path, but the checker interleaves
// deliveries across channels arbitrarily — exactly the "all possible
// network delays" of the paper's Spin runs. The checker verifies:
//
//	P2: every token is delivered exactly once (no loss, no duplication);
//	P4: R's stack observes sequence numbers Delta, Delta+1, ... in order,
//	    and L's stack observes only acknowledgments for data it sent;
//	P5: every execution reaches old-path teardown with empty channels;
//	P6: an anchor never finalizes while old-path bytes its peer's sender
//	    discarded are still in flight to it.
//
// Each anchor sends its oldPathFIN once its send side is acknowledged and
// finalizes when the peer's FIN is in and its receive side is complete,
// or when it gives up waiting for that FIN. The implementation gives up
// after a run of silent retries: retries during which the old path
// delivered nothing to the anchor. The model abstracts time away, so it
// takes a retry interval to be long enough for a non-empty old path to
// deliver something: the give-up is enabled exactly when the old-path
// channel toward the anchor is empty.
type TwoPathConfig struct {
	N     int   // tokens to transfer
	Delta int64 // the deleted middlebox's stream shift (§3.4)
	// SwitchAfterMin forces at least this many tokens onto the old path
	// before the switch may happen (0 = switch may happen immediately).
	SwitchAfterMin int
	// BugDoubleDelta is fault injection for the checker's self-test: the
	// left anchor mistakenly applies the delta on new-path egress even
	// though §3.4 assigns that translation to the right anchor's ingress,
	// so tokens arrive shifted by 2×Delta.
	BugDoubleDelta bool
	// Terminating makes the deleted middlebox a TCP-terminating proxy: it
	// acknowledges L's old-path tokens itself, so L discards them while
	// they are still in flight to R, and it absorbs R's old-path acks.
	Terminating bool
	// BugGiveUpAnyTime is the checker's second self-test: an anchor gives
	// up waiting for its peer's FIN after a fixed count of retries,
	// whatever the old path still delivers — with arbitrary delays, at
	// any point after its own FIN. With Terminating, P6 must fail.
	BugGiveUpAnyTime bool
}

// channel ids.
const (
	chOldLR = iota
	chOldRL
	chNewLR
	chNewRL
	numCh
)

type tmsg struct {
	seq  int64 // data token stream position (carrier space)
	ack  int64 // cumulative ack (carrier space); -1 = none
	data bool
	fin  bool // UDP FIN of the old path (§3.5)
}

type twoPathState struct {
	cfg *TwoPathConfig

	// L's view (its own space: tokens 0..N-1; oldSent per §3.5).
	lSent        int64 // next token to send
	lSwitched    bool
	lOldSent     int64 // frozen at switch
	lAcked       int64 // highest cumulative ack seen (L space)
	lOldAcked    int64 // highest ack received over the old path
	lSentFIN     bool
	lGotFIN      bool
	lDone        bool
	lBadAck      bool
	lAckedFuture bool

	// R's view (its stack space: expects Delta, Delta+1, ...).
	rSwitched    bool
	rRcvd        int64 // next expected in R space (= delivered count + Delta)
	rOldRcvd     int64 // end of the highest token received on the old path (R space)
	rOldAckSent  int64 // highest ack sent on the old path (R space)
	rFirstNew    int64
	rHasFirstNew bool
	rDelivered   []bool
	rDup         bool
	rSentFIN     bool
	rGotFIN      bool
	rDone        bool
	// rEarly records P6: R finalized with discarded tokens in flight.
	rEarly bool

	queues [numCh][]tmsg
}

// NewTwoPathState builds the initial state.
func NewTwoPathState(cfg *TwoPathConfig) State {
	return &twoPathState{
		cfg:         cfg,
		rRcvd:       cfg.Delta,
		rOldRcvd:    cfg.Delta,
		rOldAckSent: cfg.Delta,
		rDelivered:  make([]bool, cfg.N),
	}
}

func (s *twoPathState) clone() *twoPathState {
	c := *s
	c.rDelivered = append([]bool(nil), s.rDelivered...)
	for i := range s.queues {
		c.queues[i] = append([]tmsg(nil), s.queues[i]...)
	}
	return &c
}

// Key implements State.
func (s *twoPathState) Key() string {
	return fmt.Sprintf("%+v", struct {
		A, B, C, D, E int64
		F, G, H, I    bool
		J, K          int64
		L, M, N, O    bool
		P             int64
		Q             bool
		R             []bool
		S             [numCh][]tmsg
		T, U, V, W    bool
	}{
		s.lSent, s.lOldSent, s.lAcked, s.lOldAcked, s.rRcvd,
		s.lSwitched, s.lSentFIN, s.lGotFIN, s.lDone,
		s.rOldRcvd, s.rOldAckSent,
		s.rSwitched, s.rHasFirstNew, s.rSentFIN, s.rGotFIN,
		s.rFirstNew,
		s.rDone,
		s.rDelivered, s.queues,
		s.lBadAck, s.rEarly, s.rDup, s.lAckedFuture,
	})
}

// Next implements State.
func (s *twoPathState) Next() []State {
	var out []State
	// L sends the next token.
	if s.lSent < int64(s.cfg.N) {
		out = append(out, s.lSendToken())
	}
	// L switches (freeze oldSent). Models receipt of the new-path SYN-ACK.
	if !s.lSwitched && s.lSent >= int64(s.cfg.SwitchAfterMin) {
		out = append(out, s.lSwitch())
	}
	for ch := 0; ch < numCh; ch++ {
		if len(s.queues[ch]) > 0 {
			out = append(out, s.deliver(ch))
		}
	}
	// An anchor waiting for its peer's FIN gives up (see TwoPathConfig).
	if s.lSentFIN && !s.lDone && (s.cfg.BugGiveUpAnyTime || len(s.queues[chOldRL]) == 0) {
		c := s.clone()
		c.lDone = true // L receives no data: nothing of P6 to check
		out = append(out, c)
	}
	if s.rSentFIN && !s.rDone && (s.cfg.BugGiveUpAnyTime || len(s.queues[chOldLR]) == 0) {
		c := s.clone()
		c.rFinalize()
		out = append(out, c)
	}
	return out
}

// lSendToken: data routed by the §3.5 byte rule.
func (s *twoPathState) lSendToken() State {
	c := s.clone()
	seq := c.lSent
	c.lSent++
	if !c.lSwitched || seq < c.lOldSent {
		// Old path carries the middlebox's shift: the mbox used to add
		// Delta (modeled at dequeue).
		c.queues[chOldLR] = append(c.queues[chOldLR], tmsg{seq: seq, ack: -1, data: true})
		if c.cfg.Terminating {
			// The proxy takes the token into its buffer and acks it.
			c.queues[chOldRL] = append(c.queues[chOldRL], tmsg{ack: c.lSent + c.cfg.Delta})
		}
	} else {
		if c.cfg.BugDoubleDelta {
			seq += c.cfg.Delta // fault injection: wrong side translates
		}
		c.queues[chNewLR] = append(c.queues[chNewLR], tmsg{seq: seq, ack: -1, data: true})
	}
	return c
}

func (s *twoPathState) lSwitch() State {
	c := s.clone()
	c.lSwitched = true
	c.lOldSent = c.lSent // §3.5: oldSent frozen at switch
	// The new-path ACK tells R to switch (also implied by first new data).
	c.queues[chNewLR] = append(c.queues[chNewLR], tmsg{ack: -1})
	c.maybeSendLFIN()
	return c
}

// maybeSendLFIN: L sends the UDP FIN once everything it sent on the old
// path is acknowledged.
func (c *twoPathState) maybeSendLFIN() {
	if c.lSwitched && !c.lSentFIN && c.lAcked >= c.lOldSent {
		c.lSentFIN = true
		c.queues[chOldLR] = append(c.queues[chOldLR], tmsg{ack: -1, fin: true})
	}
	if c.lSentFIN && c.lGotFIN {
		c.lDone = true
	}
}

// maybeSendRFIN: R sends nothing, so its send side is complete at the
// switch and it sends its FIN then; it finalizes once L's FIN is in and
// its receive side completes per the §3.5 predicate.
func (c *twoPathState) maybeSendRFIN() {
	if c.rSwitched && !c.rSentFIN {
		c.rSentFIN = true
		c.queues[chOldRL] = append(c.queues[chOldRL], tmsg{ack: -1, fin: true})
	}
	recvDone := c.rOldAckSent >= c.rOldRcvd &&
		((c.rHasFirstNew && c.rFirstNew == c.rOldRcvd) || c.rGotFIN)
	if c.rSentFIN && c.rGotFIN && recvDone && !c.rDone {
		c.rFinalize()
	}
}

// rFinalize ends R's two-path phase, recording P6 if a token L has seen
// acknowledged (and so discarded) is still on the old path to R.
func (c *twoPathState) rFinalize() {
	c.rDone = true
	for _, m := range c.queues[chOldLR] {
		if m.data && m.seq < c.lAcked {
			c.rEarly = true
		}
	}
}

func (s *twoPathState) deliver(ch int) State {
	c := s.clone()
	m := c.queues[ch][0]
	c.queues[ch] = c.queues[ch][1:]
	switch ch {
	case chOldLR, chNewLR:
		c.rReceive(ch, m)
	case chOldRL, chNewRL:
		c.lReceive(ch, m)
	}
	return c
}

// rReceive runs R's anchor+stack logic.
func (c *twoPathState) rReceive(ch int, m tmsg) {
	if m.fin {
		c.rGotFIN = true
		if !c.rSwitched {
			c.rSwitched = true
		}
		c.maybeSendRFIN()
		return
	}
	if !m.data {
		// New-path ACK (path activation).
		if ch == chNewLR && !c.rSwitched {
			c.rSwitched = true
			c.maybeSendRFIN()
		}
		return
	}
	// Data token: translate into R's space.
	var seqR int64
	if ch == chOldLR {
		seqR = m.seq + c.cfg.Delta // the old middlebox shifted the stream
	} else {
		seqR = m.seq + c.cfg.Delta // R's anchor applies its §3.4 delta
		if !c.rSwitched {
			c.rSwitched = true
		}
		if !c.rHasFirstNew || seqR < c.rFirstNew {
			c.rFirstNew = seqR
			c.rHasFirstNew = true
		}
	}
	idx := seqR - c.cfg.Delta
	if idx < 0 || idx >= int64(c.cfg.N) {
		c.lBadAck = true // P4: a sequence number outside the stream
		return
	}
	if c.rDelivered[idx] {
		c.rDup = true
		return
	}
	// Cross-path reordering is legal: R's stack buffers out-of-order
	// segments and delivers them in sequence (P4 is about values, not
	// arrival order).
	c.rDelivered[idx] = true
	if seqR == c.rRcvd {
		c.rRcvd++
		for c.rRcvd-c.cfg.Delta < int64(c.cfg.N) && c.rDelivered[c.rRcvd-c.cfg.Delta] {
			c.rRcvd++
		}
	}
	if ch == chOldLR && seqR+1 > c.rOldRcvd {
		c.rOldRcvd = seqR + 1
	}
	// R acks cumulatively, routed by the §3.5 ack rules.
	ack := c.rRcvd
	switch {
	case ack <= c.rOldRcvd && ack > c.rOldAckSent:
		c.sendOldAck(ack)
		c.rOldAckSent = ack
	case ack > c.rOldRcvd && c.rOldRcvd == c.rOldAckSent:
		c.queues[chNewRL] = append(c.queues[chNewRL], tmsg{ack: ack})
	case ack > c.rOldRcvd && c.rOldRcvd > c.rOldAckSent:
		c.queues[chNewRL] = append(c.queues[chNewRL], tmsg{ack: ack})
		c.sendOldAck(c.rOldRcvd)
		c.rOldAckSent = c.rOldRcvd
	}
	c.maybeSendRFIN()
}

// sendOldAck sends R's ack on the old path; a terminating proxy absorbs
// it (it acked L's tokens itself).
func (c *twoPathState) sendOldAck(ack int64) {
	if !c.cfg.Terminating {
		c.queues[chOldRL] = append(c.queues[chOldRL], tmsg{ack: ack})
	}
}

// lReceive runs L's anchor+stack logic for acks.
func (c *twoPathState) lReceive(ch int, m tmsg) {
	if m.fin {
		c.lGotFIN = true
		c.maybeSendLFIN()
		return
	}
	if m.ack < 0 {
		return
	}
	// Translate into L's space: both paths deliver acks already shifted
	// back by Delta (the old path through the mbox's reverse translation,
	// the new path by R's §3.4 egress rule).
	ackL := m.ack - c.cfg.Delta
	if ackL > c.lSent {
		c.lAckedFuture = true // P4 violation: ack for unsent data
		return
	}
	if ackL > c.lAcked {
		c.lAcked = ackL
	}
	if ch == chOldRL && ackL > c.lOldAcked {
		c.lOldAcked = ackL
	}
	c.maybeSendLFIN()
}

// Invariant implements State.
func (s *twoPathState) Invariant() error {
	if s.rDup {
		return fmt.Errorf("P2 violated: duplicate delivery")
	}
	if s.lAckedFuture || s.lBadAck {
		return fmt.Errorf("P4 violated: acknowledgment or sequence outside the stream")
	}
	if s.rEarly {
		return fmt.Errorf("P6 violated: R finalized with old-path bytes L discarded still in flight")
	}
	return nil
}

// Terminal implements State.
func (s *twoPathState) Terminal() bool {
	if s.lSent < int64(s.cfg.N) || !s.lSwitched {
		return false
	}
	for _, q := range s.queues {
		if len(q) > 0 {
			return false
		}
	}
	return true
}

// TerminalCheck implements State: P2 (all delivered), P3/P5 (old path torn
// down cleanly in every execution).
func (s *twoPathState) TerminalCheck() error {
	for i, d := range s.rDelivered {
		if !d {
			return fmt.Errorf("P2 violated: token %d never delivered", i)
		}
	}
	if !s.lDone || !s.rDone {
		return fmt.Errorf("P5 violated: old path not torn down (L done=%v R done=%v)", s.lDone, s.rDone)
	}
	if s.lAcked != int64(s.cfg.N) {
		return fmt.Errorf("P4 violated: L acked %d of %d", s.lAcked, s.cfg.N)
	}
	return nil
}
