package tcp

import (
	"fmt"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// State is the TCP connection state.
type State int

// TCP states (RFC 793 names).
const (
	StateClosed State = iota
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateLastAck
	StateClosing
	StateTimeWait
)

var stateNames = [...]string{
	"CLOSED", "SYN-SENT", "SYN-RCVD", "ESTABLISHED", "FIN-WAIT-1",
	"FIN-WAIT-2", "CLOSE-WAIT", "LAST-ACK", "CLOSING", "TIME-WAIT",
}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// timeWaitDur is how long TIME-WAIT lingers. Short relative to real TCP's
// 2MSL, long relative to simulated RTTs; keeps long sweeps bounded.
const timeWaitDur = time.Second

// Stats counts per-connection events.
type Stats struct {
	BytesSent       uint64
	BytesRcvd       uint64
	SegsSent        uint64
	Retransmits     uint64
	FastRetransmits uint64
	Timeouts        uint64
	PAWSDrops       uint64
	BadSACKDrops    uint64
}

// Conn is one TCP connection endpoint.
type Conn struct {
	stack *Stack
	eng   *sim.Engine
	cfg   Config
	tuple packet.FiveTuple // Src = local end
	state State

	// Application callbacks. Set them before data can arrive (immediately
	// after Connect, or inside the accept callback). The slice OnData
	// receives is read-only and may be shared with the sender: it can be
	// the very bytes the peer passed to Send.
	OnEstablished func()
	OnData        func([]byte)
	OnPeerFIN     func() // peer will send no more data
	OnClosed      func() // connection fully terminated
	OnReset       func()
	// OnSendBufferLow fires when acknowledged progress drains the send
	// buffer below 128 KB; bulk senders refill from it.
	OnSendBufferLow func()
	onAccept        func(*Conn)
	// onDrained are the OnDrained callbacks waiting for the send queue to
	// empty, in registration order.
	onDrained []func()

	// Send state.
	iss        uint32
	sndUna     uint32
	sndNxt     uint32
	snd        sendQueue // bytes [sndUna, sndUna+snd.n); unacked + unsent
	sndCur     qcursor   // where the last first transmission was read
	rtxCur     qcursor   // where the last retransmission was read
	finQueued  bool
	finSent    bool
	closed     bool // app called Close
	cwnd       int  // bytes
	ssthresh   int  // bytes
	dupAcks    int
	inRecovery bool
	lossMode   bool // RTO-driven recovery (CA_Loss): every unsacked byte below recoverPt is lost
	recoverPt  uint32
	rtxCursor  uint32 // next sequence eligible for hole retransmission
	peerWnd    int    // scaled receive window of the peer
	scoreboard sackScoreboard

	// Negotiated options.
	mss       int
	sndWScale int8 // shift to apply to windows the peer advertises
	rcvWScale int8 // shift the peer applies to windows we advertise
	sackOK    bool
	tsOK      bool
	tsRecent  uint32

	// RTT estimation (unexported; see SRTT/RTO accessors).
	srtt, rttvar sim.Time
	rto          sim.Time
	hasRTT       bool
	rttSeq       uint32
	rttAt        sim.Time
	rttArmed     bool
	rttClean     bool // no retransmit since sample armed (Karn)

	// Receive state.
	rcvNxt   uint32
	ooo      []oooSeg
	oooBytes int
	lastOOO  packet.SACKBlock
	peerFIN  bool // FIN consumed in-order

	// Timers.
	rtxTimer     *sim.Timer
	persistTimer *sim.Timer
	twTimer      *sim.Timer

	Stats Stats
}

type oooSeg struct {
	seq  uint32
	data []byte
	fin  bool
}

func newConn(s *Stack, tuple packet.FiveTuple, cfg Config) *Conn {
	c := &Conn{
		stack:   s,
		eng:     s.eng,
		cfg:     cfg,
		tuple:   tuple,
		state:   StateClosed,
		mss:     offerMSS,
		peerWnd: 65535,
		rto:     minRTO * 5, // initial RTO ≈ 1 s
	}
	c.rtxTimer = sim.NewTimer(c.eng, c.onRetransmitTimeout)
	c.persistTimer = sim.NewTimer(c.eng, c.onPersistTimeout)
	c.twTimer = sim.NewTimer(c.eng, c.onTimeWaitDone)
	c.iss = s.eng.Rand().Uint32()
	c.sndUna, c.sndNxt = c.iss, c.iss
	c.sndWScale, c.rcvWScale = 0, 0
	return c
}

// Tuple returns the connection's five-tuple from the local perspective
// (Src = local address/port).
func (c *Conn) Tuple() packet.FiveTuple { return c.tuple }

// State returns the current TCP state.
func (c *Conn) State() State { return c.state }

// ISS returns the initial send sequence number.
func (c *Conn) ISS() uint32 { return c.iss }

// SndNxt returns the next sequence number to be sent.
func (c *Conn) SndNxt() uint32 { return c.sndNxt }

// SndUna returns the oldest unacknowledged sequence number.
func (c *Conn) SndUna() uint32 { return c.sndUna }

// RcvNxt returns the next expected receive sequence number.
func (c *Conn) RcvNxt() uint32 { return c.rcvNxt }

// Cwnd returns the congestion window in bytes (Figure 14 samples this).
func (c *Conn) Cwnd() int { return c.cwnd }

// MSS returns the negotiated maximum segment size.
func (c *Conn) MSS() int { return c.mss }

// SACKEnabled reports whether SACK was negotiated.
func (c *Conn) SACKEnabled() bool { return c.sackOK }

// BufferedOut returns bytes accepted by Send but not yet acknowledged.
func (c *Conn) BufferedOut() int { return c.snd.n }

// OnDrained runs fn once every byte accepted by Send has been
// acknowledged: at once when the send queue is empty, else at the ACK that
// empties it, with every callback pending then, in registration order,
// even if one of them detaches the connection. A destroyed connection runs
// none of its pending callbacks.
func (c *Conn) OnDrained(fn func()) {
	if c.snd.n == 0 {
		fn()
		return
	}
	c.onDrained = append(c.onDrained, fn)
}

// RcvWScale returns the shift this endpoint applies to windows it
// advertises (its own negotiated offer; 0 when scaling is off).
func (c *Conn) RcvWScale() int8 { return c.rcvWScale }

// SndWScale returns the shift this endpoint applies to windows it receives
// (the peer's negotiated offer).
func (c *Conn) SndWScale() int8 { return c.sndWScale }

// TSRecent returns the highest timestamp value received from the peer.
func (c *Conn) TSRecent() uint32 { return c.tsRecent }

// TSNow returns the stack's timestamp clock.
func (c *Conn) TSNow() uint32 { return c.stack.tsNow() }

// Detach silently destroys the connection without emitting FIN or RST.
// A Dysco agent detaches a proxy's connections after the proxy has been
// spliced out of the chain and the old path torn down: the sessions
// continue end-to-end, so no wire-visible teardown may happen.
func (c *Conn) Detach() {
	if c.state != StateClosed {
		c.destroy()
	}
}

// startActiveOpen sends the initial SYN.
func (c *Conn) startActiveOpen() {
	c.state = StateSynSent
	c.cwnd = initialCwndSegs * c.mss
	c.ssthresh = 1 << 30
	c.sendSYN(false)
	c.rtxTimer.Reset(c.rto)
}

// startPassiveOpen responds to a received SYN.
func (c *Conn) startPassiveOpen(syn *packet.Packet) {
	c.state = StateSynRcvd
	c.rcvNxt = packet.SeqAdd(syn.Seq, 1)
	c.negotiate(&syn.Opts)
	c.cwnd = initialCwndSegs * c.mss
	c.ssthresh = 1 << 30
	c.peerWnd = int(syn.Window) // unscaled on SYN
	c.sendSYN(true)
	c.rtxTimer.Reset(c.rto)
}

// negotiate folds the peer's SYN options into the connection.
func (c *Conn) negotiate(o *packet.Options) {
	if o.MSS != 0 && int(o.MSS) < c.mss {
		c.mss = int(o.MSS)
	}
	c.sackOK = !c.cfg.DisableSACK && o.SACKPermitted
	c.tsOK = o.TS != nil
	if o.TS != nil {
		c.tsRecent = o.TS.Val
	}
	if o.WScale >= 0 {
		c.sndWScale = o.WScale
		c.rcvWScale = offerWScale
	} else {
		c.sndWScale, c.rcvWScale = 0, 0
	}
}

func (c *Conn) synOptions() packet.Options {
	o := packet.NoOptions()
	o.MSS = offerMSS
	o.WScale = offerWScale
	o.SACKPermitted = !c.cfg.DisableSACK
	o.TS = &packet.Timestamp{Val: c.stack.tsNow(), Ecr: c.tsRecent}
	return o
}

func (c *Conn) sendSYN(withAck bool) {
	flags := packet.FlagSYN
	ack := uint32(0)
	if withAck {
		flags |= packet.FlagACK
		ack = c.rcvNxt
	}
	p := packet.NewTCP(c.tuple, flags, c.iss, ack, nil)
	p.Opts = c.synOptions()
	p.Window = uint16(min(c.recvWindow(), 65535)) // never scaled on SYN
	c.sndNxt = packet.SeqAdd(c.iss, 1)
	c.Stats.SegsSent++
	c.stack.Host.Send(p)
}

// Send queues application data for transmission. It returns an error if
// the connection cannot accept more data (closing or closed). Send keeps
// data until it is acknowledged, and segments may share it; do not modify
// it.
func (c *Conn) Send(data []byte) error {
	if c.closed {
		return fmt.Errorf("tcp: Send on closed connection (%v)", c.state)
	}
	switch c.state {
	case StateClosed, StateLastAck, StateClosing, StateTimeWait, StateFinWait1, StateFinWait2:
		return fmt.Errorf("tcp: Send in state %v", c.state)
	case StateSynSent, StateSynRcvd, StateEstablished, StateCloseWait:
		// Sending side still open: queue below (data drains once established).
	}
	c.snd.push(data)
	if c.state == StateEstablished || c.state == StateCloseWait {
		c.trySend()
	}
	return nil
}

// Close ends the sending direction: queued data is flushed, then a FIN is
// sent. Receiving continues until the peer closes.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.finQueued = true
	switch c.state {
	case StateSynSent:
		// Never established; just drop state.
		c.destroy()
	case StateEstablished, StateCloseWait, StateSynRcvd:
		c.trySend()
	case StateClosed, StateFinWait1, StateFinWait2, StateClosing, StateLastAck, StateTimeWait:
		// Close already in progress (or done): the first Close owns the FIN.
	}
}

// Abort sends RST and destroys the connection immediately.
func (c *Conn) Abort() {
	if c.state == StateClosed {
		return
	}
	p := packet.NewTCP(c.tuple, packet.FlagRST|packet.FlagACK, c.sndNxt, c.rcvNxt, nil)
	c.stack.Host.Send(p)
	c.destroy()
}

func (c *Conn) destroy() {
	c.state = StateClosed
	c.rtxTimer.Stop()
	c.persistTimer.Stop()
	c.twTimer.Stop()
	c.snd.release()
	c.onDrained = nil
	c.ooo, c.oooBytes = nil, 0
	c.stack.removeConn(c)
}

func (c *Conn) onTimeWaitDone() {
	if c.state == StateTimeWait {
		c.fullClose()
	}
}

func (c *Conn) fullClose() {
	c.destroy()
	if c.OnClosed != nil {
		c.OnClosed()
	}
}

// input is the single entry point for packets from the wire.
func (c *Conn) input(p *packet.Packet) {
	if p.Flags.Has(packet.FlagRST) {
		c.handleRST(p)
		return
	}
	switch c.state {
	case StateSynSent:
		c.inputSynSent(p)
		return
	case StateSynRcvd:
		c.inputSynRcvd(p)
		return
	case StateClosed:
		return
	case StateEstablished, StateFinWait1, StateFinWait2, StateCloseWait, StateClosing, StateLastAck, StateTimeWait:
		// Established or later: common path below.
	}
	if c.tsOK && p.Opts.TS != nil && !c.pawsOK(p) {
		c.Stats.PAWSDrops++
		return
	}
	if c.sackOK && len(p.Opts.SACK) > 0 && !c.sackBlocksValid(p.Opts.SACK) {
		// The paper (§4.2) relies on this Linux behaviour: packets whose
		// SACK blocks carry sequence numbers invalid for the session are
		// discarded entirely; Dysco must translate blocks across spliced
		// sessions to avoid it.
		c.Stats.BadSACKDrops++
		return
	}
	if p.Opts.TS != nil {
		// Track highest timestamp seen for echo and PAWS.
		if int32(p.Opts.TS.Val-c.tsRecent) > 0 {
			c.tsRecent = p.Opts.TS.Val
		}
	}
	if p.Flags.Has(packet.FlagACK) {
		c.processAck(p)
		if c.state == StateClosed {
			return // an OnDrained callback detached the connection
		}
	}
	if len(p.Payload) > 0 || p.Flags.Has(packet.FlagFIN) {
		c.processData(p)
	}
	c.postInput()
}

// pawsOK implements the PAWS-style staleness check: a timestamp far behind
// the highest seen is rejected (Linux discards such packets, which is why
// Dysco translates timestamps across spliced sessions).
func (c *Conn) pawsOK(p *packet.Packet) bool {
	const maxBackwardMS = 1000
	return int32(c.tsRecent-p.Opts.TS.Val) <= maxBackwardMS
}

func (c *Conn) sackBlocksValid(blocks []packet.SACKBlock) bool {
	for _, b := range blocks {
		if packet.SeqGEQ(b.Start, b.End) {
			return false
		}
		if packet.SeqGT(b.End, c.sndNxt) {
			return false
		}
	}
	return true
}

func (c *Conn) handleRST(p *packet.Packet) {
	// Minimal validation: RST must be in the receive window (or ack our SYN
	// in SYN-SENT).
	if c.state == StateSynSent {
		if !p.Flags.Has(packet.FlagACK) || p.Ack != packet.SeqAdd(c.iss, 1) {
			return
		}
	} else if !packet.SeqGEQ(p.Seq, c.rcvNxt) && p.Seq != packet.SeqAdd(c.rcvNxt, -1) {
		return
	}
	c.destroy()
	if c.OnReset != nil {
		c.OnReset()
	}
}

func (c *Conn) inputSynSent(p *packet.Packet) {
	if !p.Flags.Has(packet.FlagSYN) || !p.Flags.Has(packet.FlagACK) {
		return
	}
	if p.Ack != packet.SeqAdd(c.iss, 1) {
		c.stack.sendRST(p)
		return
	}
	c.rcvNxt = packet.SeqAdd(p.Seq, 1)
	c.negotiate(&p.Opts)
	c.sndUna = p.Ack
	c.peerWnd = int(p.Window) // SYN windows are unscaled
	c.state = StateEstablished
	c.rtxTimer.Stop()
	c.rto = minRTO
	c.stack.Connected++
	c.sendAck()
	if c.OnEstablished != nil {
		c.OnEstablished()
	}
	c.trySend()
}

func (c *Conn) inputSynRcvd(p *packet.Packet) {
	if p.Flags.Has(packet.FlagSYN) && !p.Flags.Has(packet.FlagACK) {
		// SYN retransmission: resend SYN-ACK.
		c.sndNxt = c.iss // sendSYN will advance again
		c.sendSYN(true)
		return
	}
	if !p.Flags.Has(packet.FlagACK) || p.Ack != packet.SeqAdd(c.iss, 1) {
		return
	}
	c.sndUna = p.Ack
	c.peerWnd = int(p.Window) << c.sndWScale
	c.state = StateEstablished
	c.rtxTimer.Stop()
	c.rto = minRTO
	c.stack.Accepted++
	if c.onAccept != nil {
		c.onAccept(c)
	}
	if c.OnEstablished != nil {
		c.OnEstablished()
	}
	// The ACK may carry data.
	if len(p.Payload) > 0 || p.Flags.Has(packet.FlagFIN) {
		c.processData(p)
	}
	c.postInput()
}

// postInput runs transitions that depend on both ack and data processing.
func (c *Conn) postInput() {
	if c.state == StateClosed {
		return
	}
	ourFINAcked := c.finSent && c.sndUna == c.sndNxt
	switch c.state {
	case StateFinWait1:
		if ourFINAcked && c.peerFIN {
			c.enterTimeWait()
		} else if ourFINAcked {
			c.state = StateFinWait2
		} else if c.peerFIN {
			c.state = StateClosing
		}
	case StateFinWait2:
		if c.peerFIN {
			c.enterTimeWait()
		}
	case StateClosing:
		if ourFINAcked {
			c.enterTimeWait()
		}
	case StateLastAck:
		if ourFINAcked {
			c.fullClose()
		}
	case StateSynSent, StateSynRcvd, StateEstablished, StateCloseWait, StateTimeWait:
		// No close-side transition pending in these states.
	}
	c.trySend()
}

func (c *Conn) enterTimeWait() {
	c.state = StateTimeWait
	c.rtxTimer.Stop()
	c.persistTimer.Stop()
	c.twTimer.Reset(timeWaitDur)
}
