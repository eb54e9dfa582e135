package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
)

// msgType enumerates the UDP control messages of the reconfiguration
// protocol (§3.3 — they are UDP datagrams, not TCP).
type msgType uint8

// Control message types.
const (
	msgTrigger msgType = iota + 1
	msgReqLock
	msgAckLock
	msgNackLock
	msgCancelLock
	msgAckCancel
	msgNewPathSYN
	msgNewPathSYNACK
	msgNewPathACK
	msgOldPathFIN
	msgStateReq
	msgStateInstall
	msgStateInstalled
	msgStateReady
	msgHeartbeat
)

// msgNames is the control vocabulary: each message type's name, indexed
// by its msgType. Index 0 is no type.
var msgNames = [...]string{
	msgTrigger: "trigger", msgReqLock: "requestLock", msgAckLock: "ackLock",
	msgNackLock: "nackLock", msgCancelLock: "cancelLock", msgAckCancel: "ackCancel",
	msgNewPathSYN: "newPathSYN", msgNewPathSYNACK: "newPathSYNACK",
	msgNewPathACK: "newPathACK", msgOldPathFIN: "oldPathFIN",
	msgStateReq: "stateReq", msgStateInstall: "stateInstall",
	msgStateInstalled: "stateInstalled", msgStateReady: "stateReady",
	msgHeartbeat: "heartbeat",
}

// known reports whether t is a control message type.
func (t msgType) known() bool { return t > 0 && int(t) < len(msgNames) }

func (t msgType) String() string {
	if t.known() {
		return msgNames[t]
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// ctrlMsg is the wire format of a control message. Every message carries
// the session identifier as understood at the receiving hop; agents with
// spliced sessions translate it when forwarding (§3.1). Serialized by the
// binary codec in ctrlinfo.go, the counterpart of the prototype daemon's
// simple serialization library (§4.1).
type ctrlMsg struct {
	Type        msgType
	ReqID       uint64
	Session     packet.FiveTuple
	LeftAnchor  packet.Addr
	RightAnchor packet.Addr
	// NewList is the new path: middleboxes then right anchor (§3.1).
	NewList []packet.Addr
	// NewSub is the subsession five-tuple for the current new-path hop.
	NewSub packet.FiveTuple
	// D accumulates deltas along the old path (§3.4).
	D Deltas
	// State transfer (Figure 15).
	StateFrom packet.Addr
	StateTo   packet.Addr
	State     []byte
	// LC is the sender's Lamport clock, re-stamped by send() at every
	// transmission (retransmissions carry fresh values, so the obs hub can
	// tell transmissions apart when matching send→recv causal edges).
	// Zero when observability is off.
	LC uint64

	from packet.Addr // sender host; filled by the receiver, not serialized
}

// daemon is the user-space reconfiguration engine attached to an agent.
type daemon struct {
	a         *Agent
	eng       *sim.Engine
	nextReqID uint64
	// reconfigs tracks attempts where this host is an anchor, by ReqID.
	reconfigs map[uint64]*Reconfig
	// newPathSeen dedups NewPathSYN processing at mid new-path hops.
	newPathSeen map[uint64]packet.FiveTuple // ReqID → allocated next-hop sub
	newPathPrev map[uint64]packet.Addr      // ReqID → left neighbor on new path
	// stateStaged dedups state-transfer requests at middleboxes: once the
	// export is staged, retransmitted requests re-send the same install
	// message instead of re-running the export.
	stateStaged map[uint64]*ctrlMsg
	// stateImported dedups installs at the receiving middlebox.
	stateImported map[uint64]bool
	// doneReqs marks reconfigurations this daemon anchored that reached a
	// final state. Late duplicates of their control messages (a
	// retransmitted requestLock or oldPathFIN crossing the completion)
	// must be ignored, not treated as a fresh request or a mid-path
	// forwardable FIN.
	doneReqs map[uint64]bool
}

func newDaemon(a *Agent) *daemon {
	return &daemon{
		a:             a,
		eng:           a.eng,
		reconfigs:     make(map[uint64]*Reconfig),
		newPathSeen:   make(map[uint64]packet.FiveTuple),
		newPathPrev:   make(map[uint64]packet.Addr),
		stateStaged:   make(map[uint64]*ctrlMsg),
		stateImported: make(map[uint64]bool),
		doneReqs:      make(map[uint64]bool),
	}
}

// send serializes and transmits a control message to the daemon on host to.
// The Lamport clock is stamped through the EmitCtrlSend funnel before
// encoding, so the wire carries exactly the stored send event's LC —
// including on retransmissions, which re-enter here with the same *ctrlMsg
// and get a fresh clock value per transmission.
func (d *daemon) send(to packet.Addr, m *ctrlMsg) {
	m.LC = d.a.obs.EmitCtrlSend(obs.Event{
		Kind: obs.KCtrl, Sess: m.Session, ReqID: m.ReqID,
		Detail: m.Type.String(), Dir: "send", Peer: to, Local: d.a.Host.Addr,
	})
	body := encodeCtrlMsg(m)
	p := packet.NewUDP(packet.FiveTuple{
		SrcIP: d.a.Host.Addr, DstIP: to,
		SrcPort: DaemonPort, DstPort: DaemonPort,
	}, body)
	d.a.Host.Send(p)
}

// handleUDP is bound to DaemonPort.
func (d *daemon) handleUDP(p *packet.Packet) {
	mp, err := decodeCtrlMsg(p.Payload)
	if err != nil {
		return // not a control message, or corrupted in flight: drop
	}
	m := *mp
	m.from = p.Tuple.SrcIP
	d.a.obs.EmitCtrlRecv(obs.Event{
		Kind: obs.KCtrl, Sess: m.Session, ReqID: m.ReqID,
		Detail: m.Type.String(), Dir: "recv", Peer: m.from, Local: d.a.Host.Addr,
	}, m.LC)
	switch m.Type {
	case msgTrigger:
		d.onTrigger(&m)
	case msgReqLock:
		d.onReqLock(&m)
	case msgAckLock:
		d.onAckLock(&m)
	case msgNackLock:
		d.onNackLock(&m)
	case msgCancelLock:
		d.onCancelLock(&m)
	case msgAckCancel:
		// Informational: the left anchor already unlocked and failed
		// locally.
	case msgNewPathSYN:
		d.onNewPathSYN(&m)
	case msgNewPathSYNACK:
		d.onNewPathSYNACK(&m)
	case msgNewPathACK:
		d.onNewPathACK(&m)
	case msgOldPathFIN:
		d.onOldPathFIN(&m)
	case msgStateReq:
		d.onStateReq(&m)
	case msgStateInstall:
		d.onStateInstall(&m)
	case msgStateInstalled:
		d.onStateInstalled(&m)
	case msgStateReady:
		d.onStateReady(&m)
	case msgHeartbeat:
		// A neighbor vouches for the session (§2.1 keepalive). Refresh the
		// keepalive clock only — not lastActive, which gates this hop's own
		// heartbeat sending.
		if sess := d.a.sessions[m.Session]; sess != nil {
			sess.lastKeepalive = d.eng.Now()
		}
	}
}

// ---------- reconfiguration start ----------

// ReconfigOptions parameterizes StartReconfig.
type ReconfigOptions struct {
	// RightAnchor is the address of the right anchor (required).
	RightAnchor packet.Addr
	// NewMiddleboxes are inserted between the anchors on the new path
	// (empty = direct, i.e. deletion of everything in the segment).
	NewMiddleboxes []packet.Addr
	// StateFrom/StateTo request middlebox state transfer before the new
	// path is used (replacement of a stateful middlebox, Figure 15).
	StateFrom packet.Addr
	StateTo   packet.Addr
}

// StartReconfig makes this agent the left anchor of a reconfiguration of
// sess's segment up to opt.RightAnchor (§3.1). The session must exist here
// or be resolvable through FindConn (a plain TCP session whose chain
// segment starts here).
func (a *Agent) StartReconfig(sessID packet.FiveTuple, opt ReconfigOptions) error {
	return a.daemon.startReconfig(sessID, opt)
}

// FindConnFunc resolves a local TCP connection by its local five-tuple so
// the daemon can anchor plain (non-chained) TCP sessions.
type FindConnFunc func(local packet.FiveTuple) ConnView

// ConnView is the read-only view of a local TCP connection the daemon
// needs when anchoring a session that was not established through Dysco.
type ConnView interface {
	SndNxt() uint32
	SndUna() uint32
	RcvNxt() uint32
	RcvWScale() int8
}

// FindConn, when set, lets the daemon anchor plain TCP sessions (§2.4: a
// service chain may cover only part of a TCP session).
func (a *Agent) SetFindConn(f FindConnFunc) { a.findConn = f }

func (d *daemon) startReconfig(sessID packet.FiveTuple, opt ReconfigOptions) error {
	a := d.a
	if opt.RightAnchor == 0 {
		return fmt.Errorf("core: StartReconfig: no right anchor")
	}
	sess, err := d.anchorSession(sessID, true)
	if err != nil {
		return err
	}
	if sess.Reconfig != nil && sess.Reconfig.rcState != RcDone && sess.Reconfig.rcState != RcFailed {
		return fmt.Errorf("core: session %v already reconfiguring", sessID)
	}
	now := d.eng.Now()
	if sess.lockState != Unlocked {
		return fmt.Errorf("core: session %v segment is %v", sessID, sess.lockState)
	}
	// Assign the request id before the transition so the lock event
	// carries it.
	d.nextReqID++
	reqID := uint64(a.Host.Addr)<<24 | d.nextReqID
	sess.LockReqID = reqID
	sess.lockSince = now
	sess.setLock(LockPending)
	rc := &Reconfig{
		ID:        reqID,
		rcState:   RcLocking,
		IsLeft:    true,
		Sess:      sess,
		PeerAddr:  opt.RightAnchor,
		NewList:   append(append([]packet.Addr(nil), opt.NewMiddleboxes...), opt.RightAnchor),
		StateFrom: opt.StateFrom,
		StateTo:   opt.StateTo,
	}
	d.addAnchor(rc)
	a.Stats.ReconfigsStarted++

	req := &ctrlMsg{
		Type: msgReqLock, ReqID: rc.ID,
		Session:     sess.IDRight,
		LeftAnchor:  a.Host.Addr,
		RightAnchor: opt.RightAnchor,
		NewList:     rc.NewList,
		StateFrom:   opt.StateFrom,
		StateTo:     opt.StateTo,
	}
	req.D.Right = sess.MboxDeltas.Right // a left anchor that is itself a middlebox
	d.sendReliable(rc, sess.RightHost, req)
	return nil
}

// anchorSession returns the record of the session this host anchors: the
// existing one or, for a TCP session this agent did not chain, a new record
// with identity rewrite entries for anchor tracking.
func (d *daemon) anchorSession(id packet.FiveTuple, leftSide bool) (*Session, error) {
	a := d.a
	if sess := a.sessions[id]; sess != nil {
		return sess, nil
	}
	if a.findConn == nil {
		return nil, fmt.Errorf("core: unknown session %v and no FindConn", id)
	}
	// The local connection's tuple: at the left end the forward tuple is
	// local (Src = us); at the right end the reverse is.
	local := id
	if !leftSide {
		local = id.Reverse()
	}
	cv := a.findConn(local)
	if cv == nil {
		return nil, fmt.Errorf("core: no local connection for session %v", id)
	}
	sess := a.openSession(&Session{
		IDLeft: id, IDRight: id,
		wsOfferLocal: cv.RcvWScale(),
		sentHi:       cv.SndNxt(),
		sentAckedHi:  cv.SndUna(),
		rcvdHi:       cv.RcvNxt(),
		rcvdAckedHi:  cv.RcvNxt(),
		sentHiOK:     true, sentAckedOK: true, rcvdHiOK: true, rcvdAckedOK: true,
	}, "adopted", 0)
	if leftSide {
		sess.RightHost = id.DstIP
		sess.SubRight = id
		a.install(a.egress, id, &rewriteEntry{Rule: Rule{To: id}, sess: sess, dirRight: true, anchorTrack: true})
		a.install(a.ingress, id.Reverse(), &rewriteEntry{Rule: Rule{To: id.Reverse()}, sess: sess, dirRight: false, deliver: true, anchorTrack: true})
	} else {
		sess.LeftHost = id.SrcIP
		sess.SubLeft = id
		a.install(a.egress, id.Reverse(), &rewriteEntry{Rule: Rule{To: id.Reverse()}, sess: sess, dirRight: false, anchorTrack: true})
		a.install(a.ingress, id, &rewriteEntry{Rule: Rule{To: id}, sess: sess, dirRight: true, deliver: true, anchorTrack: true})
	}
	return sess, nil
}

// sendReliable transmits m and arms the anchor's retransmission timer,
// the one control retransmit clock of the attempt.
func (d *daemon) sendReliable(rc *Reconfig, to packet.Addr, m *ctrlMsg) {
	rc.lastMsg = m
	rc.lastMsgTo = to
	rc.retries, rc.liveRetry, rc.oldPkts = 0, 0, d.oldPathPkts(rc)
	d.send(to, m)
	rc.rtxTimer.Reset(d.backoff(0))
}

// backoff is the daemon's one retransmission backoff, ControlRTO doubled n
// times and capped at 64×. An attempt waits backoff(0) after a first send
// and backoff(n-1) after its n-th retransmission; a trigger waits
// backoff(k+2) after its send number k.
func (d *daemon) backoff(n int) sim.Time { return d.a.Cfg.ControlRTO << min(n, 6) }

// onCtrlTimeout is the attempt's one timer firing. With no message
// outstanding it is a right anchor's AttemptTimeout deadline, armed at the
// lock and bounding the attempt until the path switch: the left anchor
// went away (crash, or an aborting cancelLock that was lost), so the
// staged new path is torn down and the attempt fails; a switched attempt
// is left to its oldPathFIN. Otherwise it retransmits the outstanding
// message with backoff and gives up after maxControlRetries retries: an
// unswitched attempt aborts and cancels its locks (§3.6), a switched one,
// whose oldPathFIN nothing answered, finalizes. After the switch only
// silent retries count, those after which the old path has delivered
// nothing more to this anchor: while it still delivers, the peer's FIN
// may be held behind a draining hop, so the count restarts.
func (d *daemon) onCtrlTimeout(rc *Reconfig) {
	if rc.rcState == RcDone || rc.rcState == RcFailed {
		return
	}
	if rc.lastMsg == nil {
		if !rc.switched {
			d.teardownNewPathEntries(rc)
			d.failReconfig(rc)
		}
		return
	}
	rc.retries++
	d.a.Stats.CtrlRetransmits++
	d.a.obs.Metrics().Add(obs.MCtrlRetransmits, 1)
	if pkts := d.oldPathPkts(rc); rc.switched && pkts != rc.oldPkts {
		rc.oldPkts, rc.liveRetry = pkts, rc.retries
	}
	if rc.retries-rc.liveRetry > maxControlRetries {
		if rc.switched {
			d.finalizeAnchor(rc)
		} else {
			d.abortReconfig(rc)
		}
		return
	}
	d.send(rc.lastMsgTo, rc.lastMsg)
	rc.rtxTimer.Reset(d.backoff(rc.retries - 1))
}

// oldPathPkts counts the packets this anchor's old-path ingress entry has
// rewritten: the evidence that the old path is still delivering.
func (d *daemon) oldPathPkts(rc *Reconfig) uint64 {
	if e := d.a.ingress[rc.oldIngressKey]; e != nil {
		return e.pkts
	}
	return 0
}

// addAnchor makes rc the live attempt of its session at this anchor: it
// stamps the start, creates the control retransmission timer, registers rc
// by ReqID and logs the anchor's birth (an empty From marks the initial
// state of the span).
func (d *daemon) addAnchor(rc *Reconfig) {
	rc.started = d.eng.Now()
	rc.rtxTimer = sim.NewTimer(d.eng, func() { d.onCtrlTimeout(rc) })
	rc.Sess.Reconfig = rc
	d.reconfigs[rc.ID] = rc
	d.a.obs.Emit(obs.Event{Kind: obs.KReconfig, Sess: rc.Sess.IDLeft, ReqID: rc.ID, To: rc.rcState.String()})
}

// ackReceived stops the retransmission cycle for the outstanding message.
func (rc *Reconfig) ackReceived() {
	rc.lastMsg = nil
	rc.rtxTimer.Stop()
}

// abortReconfig cancels a failed attempt: the session continues on the old
// path and the locked subsessions are released with cancelLock (§3.6).
func (d *daemon) abortReconfig(rc *Reconfig) {
	if rc.rcState == RcDone || rc.rcState == RcFailed {
		return
	}
	sess := rc.Sess
	if rc.rcState != RcLocking {
		// Segment was locked: release it along the old path.
		d.send(sess.RightHost, &ctrlMsg{
			Type: msgCancelLock, ReqID: rc.ID, Session: sess.IDRight,
			LeftAnchor: d.a.Host.Addr, RightAnchor: rc.PeerAddr,
		})
	}
	sess.setLock(Unlocked)
	d.failReconfig(rc)
}

// completeReconfig finishes a successful attempt. Only an anchor in the
// two-path phase can complete (the §3.5 drain conditions are checked by
// the caller, finalizeAnchor).
func (d *daemon) completeReconfig(rc *Reconfig) {
	if rc.rcState != RcTwoPath {
		return
	}
	rc.setState(RcDone)
	d.a.Stats.ReconfigsDone++
	d.closeReconfig(rc, true)
}

// failReconfig finishes a nacked/cancelled/timed-out attempt from any
// non-final phase (§3.6).
func (d *daemon) failReconfig(rc *Reconfig) {
	if rc.rcState == RcDone || rc.rcState == RcFailed {
		return
	}
	rc.setState(RcFailed)
	d.a.Stats.ReconfigsFailed++
	d.closeReconfig(rc, false)
}

// closeReconfig is the common teardown after the attempt reached a final
// state: stop its timer, detach from the session, report, unblock waiters.
func (d *daemon) closeReconfig(rc *Reconfig, ok bool) {
	rc.rtxTimer.Stop()
	d.doneReqs[rc.ID] = true
	rc.Sess.Reconfig = nil
	took := d.eng.Now() - rc.started
	if rc.IsLeft {
		// One duration sample per reconfiguration, at the initiating anchor.
		d.a.mReconfigDur.Observe(float64(took) / float64(time.Millisecond))
	}
	if d.a.OnReconfigDone != nil {
		d.a.OnReconfigDone(rc.Sess.IDLeft, ok, took)
	}
	delete(d.reconfigs, rc.ID)
	d.processBlocked(rc.Sess)
}

// ---------- trigger ----------

// TriggerReplace asks this middlebox's left neighbor to become left anchor
// and replace this host (and anything up to its right neighbor) with the
// given middlebox list — the maintenance command of §2.2. An empty list
// deletes the hop (§3.1: "if a middlebox wants to delete itself, it sends a
// triggering packet to the agent on its left with the address list
// [myRightNeighbor]"). Nonzero stateFrom and stateTo ask the left anchor to
// move this session's middlebox state from stateFrom to stateTo before
// switching paths (Figure 15). The trigger is re-sent (bounded) until the
// resulting lock request is seen passing through this hop, so a lost
// trigger does not silently drop the reconfiguration.
func (a *Agent) TriggerReplace(sessID packet.FiveTuple, replacement []packet.Addr, stateFrom, stateTo packet.Addr) error {
	return a.daemon.trigger(sessID, replacement, 0, stateFrom, stateTo)
}

// trigger sends the trigger to the left neighbor and re-sends it after
// backoff(attempt+2) until the lock request passes this hop.
func (d *daemon) trigger(sessID packet.FiveTuple, replacement []packet.Addr, attempt int, stateFrom, stateTo packet.Addr) error {
	sess := d.a.sessions[sessID]
	if sess == nil {
		if attempt > 0 {
			return nil // session reconfigured away in the meantime
		}
		return fmt.Errorf("core: TriggerReplace: unknown session %v", sessID)
	}
	right := sess.across()
	if sess.LeftHost == 0 || right.RightHost == 0 {
		return fmt.Errorf("core: TriggerReplace: %v has no neighbors on both sides", sessID)
	}
	if attempt > 0 && sess.lockState != Unlocked {
		return nil // the lock request came through: trigger delivered
	}
	if attempt > maxControlRetries {
		return nil // give up quietly; the caller may re-trigger
	}
	d.send(sess.LeftHost, &ctrlMsg{
		Type:        msgTrigger,
		Session:     sess.IDLeft,
		RightAnchor: right.RightHost,
		NewList:     replacement,
		StateFrom:   stateFrom,
		StateTo:     stateTo,
	})
	d.eng.Schedule(d.backoff(attempt+2), func() {
		d.trigger(sessID, replacement, attempt+1, stateFrom, stateTo)
	})
	return nil
}

func (d *daemon) onTrigger(m *ctrlMsg) {
	// The session id in a trigger is as the sender (our right neighbor)
	// knows it on its left, which equals our right-side id.
	err := d.startReconfig(m.Session, ReconfigOptions{
		RightAnchor:    m.RightAnchor,
		NewMiddleboxes: m.NewList,
		StateFrom:      m.StateFrom,
		StateTo:        m.StateTo,
	})
	_ = err // a failed trigger (e.g. contention) is simply dropped; the
	// middlebox may trigger again
}

// ---------- locking (§3.2) ----------

func (d *daemon) onReqLock(m *ctrlMsg) {
	a := d.a
	if m.RightAnchor == a.Host.Addr {
		d.reqLockAtRightAnchor(m)
		return
	}
	sess := a.sessions[m.Session]
	if sess == nil {
		return // unknown session: drop; left anchor will time out
	}
	// Retransmission of the request we already forwarded: forward again.
	if (sess.lockState == LockPending || sess.lockState == Locked) && sess.LockReqID == m.ReqID {
		d.forwardReqLock(sess, m)
		return
	}
	c := sess.contention
	if c != nil && slices.Contains(c.nacked, m.ReqID) {
		d.nack(m) // a copy of a request this hop rejected
		return
	}
	now := d.eng.Now()
	if sess.lockState != Unlocked {
		// Contention: block the request until our own resolves (§3.2).
		if c == nil {
			c = &lockContention{}
			sess.contention = c
		}
		for _, b := range c.blocked {
			if b.ReqID == m.ReqID {
				return // duplicate of an already-blocked request
			}
		}
		c.blocked = append(c.blocked, m)
		return
	}
	// Request id first so the lock event carries it.
	sess.LockReqID = m.ReqID
	sess.lockSince = now
	sess.setLock(LockPending)
	d.forwardReqLock(sess, m)
}

// forwardReqLock adds this hop's deltas and sends the request to the right
// neighbor, translating the session id across a splice.
func (d *daemon) forwardReqLock(sess *Session, m *ctrlMsg) {
	next := sess.across()
	fwd := *m
	fwd.Session = next.IDRight
	fwd.D.fold(sess.MboxDeltas, true)
	d.send(next.RightHost, &fwd)
}

// reqLockAtRightAnchor accepts the lock and becomes the right anchor.
func (d *daemon) reqLockAtRightAnchor(m *ctrlMsg) {
	a := d.a
	if d.doneReqs[m.ReqID] {
		return // stale duplicate of an attempt that already finished here
	}
	if rc, ok := d.reconfigs[m.ReqID]; ok {
		// Retransmitted request: resend the ack.
		d.replyAckLock(rc, m)
		return
	}
	sess, err := d.anchorSession(m.Session, false)
	if err != nil {
		return
	}
	if sess.Reconfig != nil {
		return // already the anchor of something else
	}
	rc := &Reconfig{
		ID: m.ReqID, rcState: RcSettingUp, IsLeft: false, Sess: sess,
		PeerAddr: m.LeftAnchor,
		Delta:    m.D.Right, TSDelta: m.D.RightTS,
		WinFrom: m.D.RightWinFrom, WinTo: m.D.RightWinTo,
	}
	d.addAnchor(rc)
	if a.Cfg.AttemptTimeout >= 0 {
		rc.rtxTimer.Reset(a.Cfg.AttemptTimeout) // the deadline (onCtrlTimeout)
	}
	d.replyAckLock(rc, m)
}

func (d *daemon) replyAckLock(rc *Reconfig, m *ctrlMsg) {
	ack := &ctrlMsg{
		Type: msgAckLock, ReqID: m.ReqID,
		Session:    rc.Sess.IDLeft,
		LeftAnchor: m.LeftAnchor, RightAnchor: d.a.Host.Addr,
	}
	ack.D.Left = rc.Sess.MboxDeltas.Left // right anchor that is itself a middlebox
	d.send(rc.Sess.LeftHost, ack)
}

func (d *daemon) onAckLock(m *ctrlMsg) {
	sess := d.a.sessions[m.Session]
	if sess == nil {
		return
	}
	// Left anchor?
	if rc, ok := d.reconfigs[m.ReqID]; ok && rc.IsLeft {
		if rc.rcState != RcLocking || sess.lockState != LockPending {
			return // duplicate
		}
		sess.setLock(Locked)
		rc.Delta = m.D.Left
		rc.TSDelta = m.D.LeftTS
		rc.WinFrom, rc.WinTo = m.D.LeftWinFrom, m.D.LeftWinTo
		rc.ackReceived()
		d.nackBlocked(sess)
		d.beginNewPath(rc)
		return
	}
	// Mid-path agent. The ack arrives from the right with our right-side
	// session id; the lock state lives on the left-side session of a
	// splice.
	lockSess := sess.across()
	if lockSess.lockState == LockPending && lockSess.LockReqID == m.ReqID {
		lockSess.setLock(Locked)
		d.nackBlocked(lockSess)
	} else if !(lockSess.lockState == Locked && lockSess.LockReqID == m.ReqID) {
		return // stale
	}
	fwd := *m
	fwd.Session = lockSess.IDLeft
	fwd.D.fold(lockSess.MboxDeltas, false)
	d.send(lockSess.LeftHost, &fwd)
}

// nackBlocked rejects all requests blocked behind a now-locked subsession
// and remembers them, so a retransmitted copy that arrives later is
// rejected again instead of blocked and then granted to an attempt its
// requester has already failed.
func (d *daemon) nackBlocked(sess *Session) {
	c := sess.contention
	if c == nil {
		return
	}
	for _, b := range c.blocked {
		c.nacked = append(c.nacked, b.ReqID)
		d.nack(b)
	}
	c.blocked = nil
}

// nack rejects the lock request m back toward its sender.
func (d *daemon) nack(m *ctrlMsg) {
	d.send(m.from, &ctrlMsg{
		Type: msgNackLock, ReqID: m.ReqID, Session: m.Session,
		LeftAnchor: m.LeftAnchor, RightAnchor: m.RightAnchor,
	})
}

// processBlocked forwards the oldest blocked request once the subsession
// unlocks.
func (d *daemon) processBlocked(sess *Session) {
	c := sess.contention
	if sess.lockState != Unlocked || c == nil || len(c.blocked) == 0 {
		return
	}
	next := c.blocked[0]
	c.blocked = c.blocked[1:]
	d.onReqLock(next)
}

func (d *daemon) onNackLock(m *ctrlMsg) {
	if rc, ok := d.reconfigs[m.ReqID]; ok && rc.IsLeft {
		if rc.switched {
			return // stale: this request's ackLock came back through every hop
		}
		// Our request lost the contention: exactly one of the contending
		// left anchors wins (§3.2, verified property P1).
		rc.Sess.setLock(Unlocked)
		rc.ackReceived()
		d.failReconfig(rc)
		return
	}
	// Mid-path: reset our pending state and pass the nack leftward along
	// the nacked request's path. The nack arrives from the right with our
	// right-side session id; lock state lives on the splice's left side.
	sess := d.a.sessions[m.Session]
	if sess == nil {
		return
	}
	lockSess := sess.across()
	if lockSess.lockState == LockPending && lockSess.LockReqID == m.ReqID {
		lockSess.setLock(Unlocked)
		d.processBlocked(lockSess)
	}
	if lockSess.LeftHost != 0 && m.LeftAnchor != d.a.Host.Addr {
		fwd := *m
		fwd.Session = lockSess.IDLeft
		d.send(lockSess.LeftHost, &fwd)
	}
}

func (d *daemon) onCancelLock(m *ctrlMsg) {
	sess := d.a.sessions[m.Session]
	if sess == nil {
		return
	}
	if m.RightAnchor == d.a.Host.Addr {
		// A left anchor cancels only before it switches, so a switched
		// attempt never meets its own cancelLock; one that does meets a
		// leftover of an earlier attempt under a reused request id.
		if rc, ok := d.reconfigs[m.ReqID]; ok && !rc.switched {
			d.teardownNewPathEntries(rc)
			d.failReconfig(rc)
		}
		d.send(m.from, &ctrlMsg{Type: msgAckCancel, ReqID: m.ReqID, Session: sess.IDLeft})
		return
	}
	if sess.LockReqID == m.ReqID && sess.lockState != Unlocked {
		sess.setLock(Unlocked)
		d.processBlocked(sess)
	}
	next := sess.across()
	fwd := *m
	fwd.Session = next.IDRight
	d.send(next.RightHost, &fwd)
}

// ---------- new path setup (§3.1, Figure 4) ----------

func (d *daemon) beginNewPath(rc *Reconfig) {
	a := d.a
	if rc.rcState != RcLocking {
		return // attempt already failed or completed
	}
	rc.setState(RcSettingUp)
	first := rc.NewList[0]
	sub, ok := a.newSubTuple(first)
	if !ok {
		// No subsession tuple free toward the new path: release the
		// locked segment and stay on the old path (§3.6).
		d.abortReconfig(rc)
		return
	}
	rc.newPeerHost = first
	rc.newSub = sub
	d.stageNewPath(rc)
	m := &ctrlMsg{
		Type: msgNewPathSYN, ReqID: rc.ID,
		Session:    rc.Sess.IDRight,
		LeftAnchor: a.Host.Addr, RightAnchor: rc.PeerAddr,
		NewList: rc.NewList[1:],
		NewSub:  rc.newSub,
	}
	d.sendReliable(rc, first, m)
}

// stageNewPath creates an anchor's new-path entries: ingress is active
// immediately (early new-path arrivals must be handled); egress is staged
// in rc and activated at switch time. The left anchor's new path leaves
// to its right, the right anchor's to its left. New-path packets are
// delivered as the old ingress entry delivered old-path ones or, without
// one, as the session header the local side speaks.
func (d *daemon) stageNewPath(rc *Reconfig) {
	a := d.a
	sess := rc.Sess
	newIn := rc.newIngressKey()
	to := sess.IDLeft
	rc.oldEgressKey, rc.oldIngressKey = sess.IDLeft.Reverse(), sess.SubLeft
	if rc.IsLeft {
		to = sess.IDRight.Reverse()
		rc.oldEgressKey, rc.oldIngressKey = sess.IDRight, sess.SubRight.Reverse()
	}
	deliver := true
	if oldIn := a.ingress[rc.oldIngressKey]; oldIn != nil {
		to, deliver = oldIn.To, oldIn.deliver
	}
	a.install(a.ingress, newIn, &rewriteEntry{
		Rule: Rule{To: to, SeqAdd: rc.Delta, TSAdd: rc.TSDelta},
		sess: sess, dirRight: !rc.IsLeft, deliver: deliver,
		anchorTrack: true, newPath: true,
	})
	rc.newEgressEntry = &rewriteEntry{
		Rule: Rule{
			To:     newIn.Reverse(),
			AckAdd: -rc.Delta, TSEcrAdd: -rc.TSDelta,
			WinFrom: rc.WinFrom, WinTo: rc.WinTo,
		},
		sess: sess, dirRight: rc.IsLeft,
		anchorTrack: true, newPath: true,
	}
}

// newIngressKey is the tuple new-path packets arrive on at this anchor.
func (rc *Reconfig) newIngressKey() packet.FiveTuple {
	if rc.IsLeft {
		return rc.newSub.Reverse()
	}
	return rc.newSub
}

func (d *daemon) onNewPathSYN(m *ctrlMsg) {
	a := d.a
	if m.RightAnchor == a.Host.Addr {
		rc, ok := d.reconfigs[m.ReqID]
		if !ok {
			return // no lock context (or already finished): ignore
		}
		rc.newSub = m.NewSub
		rc.newPeerHost = m.from
		d.stageNewPath(rc)
		d.send(m.from, &ctrlMsg{
			Type: msgNewPathSYNACK, ReqID: m.ReqID, Session: rc.Sess.IDLeft,
			LeftAnchor: m.LeftAnchor, RightAnchor: a.Host.Addr,
		})
		return
	}
	// Mid new-path middlebox: install entries for both directions and
	// forward. Idempotent via newPathSeen.
	if len(m.NewList) == 0 {
		return
	}
	if sub, seen := d.newPathSeen[m.ReqID]; seen {
		// Retransmitted SYN: forward again with the same allocation.
		fwd := *m
		fwd.NewSub = sub
		fwd.NewList = m.NewList[1:]
		d.send(m.NewList[0], &fwd)
		return
	}
	next := m.NewList[0]
	sub, ok := a.newSubTuple(next)
	if !ok {
		// No subsession tuple free toward the next hop: drop the SYN.
		// The requester's retransmissions run out (maxControlRetries)
		// and it aborts.
		return
	}
	sess := a.sessions[m.Session]
	if sess == nil {
		sess = a.openSession(&Session{
			IDLeft: m.Session, IDRight: m.Session,
			LeftHost: m.from,
			SubLeft:  m.NewSub,
		}, "new-path", m.ReqID)
		a.Stats.SessionsOpened++
	}
	sess.RightHost = next
	sess.SubRight = sub
	// Forward direction.
	a.install(a.ingress, m.NewSub, &rewriteEntry{Rule: Rule{To: m.Session}, sess: sess, dirRight: true, deliver: a.App == nil})
	a.install(a.egress, m.Session, &rewriteEntry{Rule: Rule{To: sub}, sess: sess, dirRight: true})
	// Reverse direction.
	a.install(a.ingress, sub.Reverse(), &rewriteEntry{Rule: Rule{To: m.Session.Reverse()}, sess: sess, dirRight: false, deliver: a.App == nil})
	a.install(a.egress, m.Session.Reverse(), &rewriteEntry{Rule: Rule{To: m.NewSub.Reverse()}, sess: sess, dirRight: false})
	d.newPathSeen[m.ReqID] = sub
	d.newPathPrev[m.ReqID] = m.from
	fwd := *m
	fwd.NewSub = sub
	fwd.NewList = m.NewList[1:]
	d.send(next, &fwd)
}

func (d *daemon) onNewPathSYNACK(m *ctrlMsg) {
	a := d.a
	if rc, ok := d.reconfigs[m.ReqID]; ok && rc.IsLeft {
		if rc.rcState != RcSettingUp {
			return // duplicate
		}
		if rc.StateFrom != 0 {
			// Replacement of a stateful middlebox: transfer state before
			// using the new path (Figure 15).
			rc.setState(RcStateWait)
			rc.ackReceived()
			d.sendReliable(rc, rc.StateFrom, &ctrlMsg{
				Type: msgStateReq, ReqID: rc.ID, Session: rc.Sess.IDRight,
				StateFrom: rc.StateFrom, StateTo: rc.StateTo,
				LeftAnchor: a.Host.Addr, RightAnchor: rc.PeerAddr,
			})
			return
		}
		rc.ackReceived()
		d.leftAnchorSwitch(rc)
		return
	}
	// Mid new-path agent: pass the SYN-ACK toward the left anchor.
	if prev, ok := d.newPathPrev[m.ReqID]; ok {
		d.send(prev, m)
	}
}

func (d *daemon) leftAnchorSwitch(rc *Reconfig) {
	d.send(rc.PeerAddr, &ctrlMsg{
		Type: msgNewPathACK, ReqID: rc.ID, Session: rc.Sess.IDRight,
		LeftAnchor: d.a.Host.Addr, RightAnchor: rc.PeerAddr,
	})
	d.activateSwitch(rc)
}

func (d *daemon) onNewPathACK(m *ctrlMsg) {
	if rc, ok := d.reconfigs[m.ReqID]; ok && !rc.IsLeft {
		d.activateSwitch(rc)
	}
}

// activateSwitch enters the two-path phase (§3.5): freeze oldSent and
// start steering new data onto the new path.
func (d *daemon) activateSwitch(rc *Reconfig) {
	if rc.switched || (rc.rcState != RcSettingUp && rc.rcState != RcStateWait) {
		return
	}
	rc.switched = true
	rc.setState(RcTwoPath)
	rc.switchAt = d.eng.Now()
	if rc.IsLeft && d.a.OnReconfigSwitch != nil {
		d.a.OnReconfigSwitch(rc.Sess.IDLeft, rc.switchAt-rc.started)
	}
	sess := rc.Sess
	rc.oldSent = sess.sentHi
	rc.oldRcvd = sess.rcvdHi
	rc.oldRcvdAcked = sess.rcvdAckedHi
	d.checkOldPathDone(rc)
}

// teardownNewPathEntries removes staged new-path state after a cancel.
func (d *daemon) teardownNewPathEntries(rc *Reconfig) {
	d.a.uninstall(d.a.ingress[rc.newIngressKey()])
}

// ---------- old path completion (§3.5) ----------

// checkOldPathDone sends the UDP FIN when this anchor has nothing more for
// the old path, and finalizes when both FINs are in and the receive side
// is complete. track() calls it per packet while a reconfiguration is in
// two-path state (§3.5); the FIN it sends once is control-plane work.
func (d *daemon) checkOldPathDone(rc *Reconfig) {
	if !rc.switched || rc.rcState != RcTwoPath {
		return
	}
	if !rc.sentOldFIN && packet.SeqGEQ(rc.Sess.sentAckedHi, rc.oldSent) {
		rc.sentOldFIN = true
		d.sendOldPathFIN(rc)
	}
	recvDone := packet.SeqGEQ(rc.oldRcvdAcked, rc.oldRcvd) &&
		((rc.hasFirstNew && rc.firstNewRcvd == rc.oldRcvd) || rc.rcvdOldFIN)
	if rc.sentOldFIN && rc.rcvdOldFIN && recvDone {
		d.finalizeAnchor(rc)
	}
}

// sendOldPathFIN sends this anchor's UDP FIN to its old-path neighbor on
// the control retransmit clock. Nothing answers it but the peer's own
// FIN, so it is retransmitted until the attempt finalizes (onCtrlTimeout).
func (d *daemon) sendOldPathFIN(rc *Reconfig) {
	fin := &ctrlMsg{Type: msgOldPathFIN, ReqID: rc.ID, Session: rc.Sess.IDLeft}
	to := rc.Sess.LeftHost
	if rc.IsLeft {
		fin.Session, to = rc.Sess.IDRight, rc.Sess.RightHost
	}
	d.sendReliable(rc, to, fin)
}

// onOldPathFIN handles the UDP FIN traversing the old path: mid agents
// forward it and forget the session once it is closed; anchors complete.
func (d *daemon) onOldPathFIN(m *ctrlMsg) {
	if d.doneReqs[m.ReqID] {
		return // retransmitted FIN racing our completion: already handled
	}
	if rc, ok := d.reconfigs[m.ReqID]; ok {
		if !rc.switched {
			// The peer anchor finished before our NewPathACK arrived (or
			// the session is idle): switch now.
			d.activateSwitch(rc)
		}
		rc.rcvdOldFIN = true
		d.checkOldPathDone(rc)
		return
	}
	// Mid old-path agent (e.g. the deleted proxy): forward along the old
	// path, translating across splices. A FIN means "no more old-path
	// data from my side", so a TCP-terminating proxy must not forward it
	// until its own downstream connection has drained everything it
	// relayed — otherwise the anchors finalize while bytes the sender
	// already discarded are still in the proxy's buffers.
	sess := d.a.sessions[m.Session]
	if sess == nil {
		return
	}
	fromLeft := m.from == sess.LeftHost && sess.LeftHost != 0
	d.forwardOldPathFIN(sess, m, fromLeft)
}

// forwardOldPathFIN relays the UDP FIN across this hop once the relevant
// spliced connection has drained: conns[0] faces left, conns[1] right, and
// a FIN going right waits for the right-facing connection to flush, one
// going left for the left-facing one. Every copy that arrives is relayed.
func (d *daemon) forwardOldPathFIN(sess *Session, m *ctrlMsg, fromLeft bool) {
	gate := sess.spliceConns[0]
	if fromLeft {
		gate = sess.spliceConns[1]
	}
	if gate == nil {
		d.relayOldPathFIN(sess, m, fromLeft)
		return
	}
	gate.OnDrained(func() { d.relayOldPathFIN(sess, m, fromLeft) })
}

// relayOldPathFIN sends the FIN on across the hop. Once both directions'
// FINs have passed, the hop forgets the session by the closed-session
// rule.
func (d *daemon) relayOldPathFIN(sess *Session, m *ctrlMsg, fromLeft bool) {
	next := sess.across()
	fwd := *m
	dirIdx := 1
	if fromLeft {
		fwd.Session = next.IDRight
		d.send(next.RightHost, &fwd)
		dirIdx = 0
	} else {
		fwd.Session = next.IDLeft
		d.send(next.LeftHost, &fwd)
	}
	// The two FINs arrive addressed to opposite sides of a splice; mark
	// both session records so either can observe completion.
	sess.finSeen[dirIdx] = true
	next.finSeen[dirIdx] = true
	if sess.finSeen[0] && sess.finSeen[1] {
		d.forgetWhenClosed(sess)
	}
}

// forgetWhenClosed removes the deleted hop's records once both are closed
// (Agent.closed): stragglers still in the old path's queues keep them
// alive, so a late segment finds its spliced connection, not a reset.
func (d *daemon) forgetWhenClosed(sess *Session) {
	if d.a.closed(sess) && d.a.closed(sess.across()) {
		d.a.removeSession(sess)
		return
	}
	d.eng.Schedule(closedQuiet, func() { d.forgetWhenClosed(sess) })
}

// finalizeAnchor completes a successful reconfiguration at this anchor:
// the old path state is discarded and the new path becomes the only path.
func (d *daemon) finalizeAnchor(rc *Reconfig) {
	a := d.a
	sess := rc.Sess
	// Swap the egress entry to the new path permanently. The old ingress
	// entry stays for stragglers and leaves with the session.
	a.install(a.egress, rc.oldEgressKey, rc.newEgressEntry)
	// Update the chain topology at this anchor.
	if rc.IsLeft {
		sess.RightHost = rc.newPeerHost
		sess.SubRight = rc.newSub
	} else {
		sess.LeftHost = rc.newPeerHost
		sess.SubLeft = rc.newSub
	}
	sess.setLock(Unlocked)
	d.completeReconfig(rc)
}

// ---------- state transfer (Figure 15) ----------

func (d *daemon) onStateReq(m *ctrlMsg) {
	a := d.a
	app, ok := a.App.(StatefulApp)
	if !ok {
		return
	}
	if staged, ok := d.stateStaged[m.ReqID]; ok {
		// Retransmitted request: the export already ran; re-send the
		// install in case it was lost.
		if staged != nil {
			d.send(m.StateTo, staged)
		}
		return
	}
	d.stateStaged[m.ReqID] = nil // export in progress
	state, err := app.ExportState(m.Session)
	if err != nil {
		return
	}
	// Exporting (conntrack + serialization) takes real time (§5.3).
	d.eng.Schedule(a.Cfg.StateOpCost, func() {
		install := &ctrlMsg{
			Type: msgStateInstall, ReqID: m.ReqID, Session: m.Session,
			LeftAnchor: m.LeftAnchor, State: state, StateFrom: a.Host.Addr,
		}
		d.stateStaged[m.ReqID] = install
		d.send(m.StateTo, install)
	})
}

func (d *daemon) onStateInstall(m *ctrlMsg) {
	app, ok := d.a.App.(StatefulApp)
	if !ok {
		return
	}
	from := m.from
	msg := &ctrlMsg{Type: msgStateInstalled, ReqID: m.ReqID, Session: m.Session, LeftAnchor: m.LeftAnchor}
	if d.stateImported[m.ReqID] {
		d.send(from, msg) // duplicate install: just re-acknowledge
		return
	}
	if err := app.ImportState(m.State); err != nil {
		return
	}
	d.stateImported[m.ReqID] = true
	d.eng.Schedule(d.a.Cfg.StateOpCost, func() { d.send(from, msg) })
}

func (d *daemon) onStateInstalled(m *ctrlMsg) {
	d.send(m.LeftAnchor, &ctrlMsg{Type: msgStateReady, ReqID: m.ReqID, Session: m.Session})
}

func (d *daemon) onStateReady(m *ctrlMsg) {
	if rc, ok := d.reconfigs[m.ReqID]; ok && rc.IsLeft && rc.rcState == RcStateWait {
		rc.ackReceived()
		d.leftAnchorSwitch(rc)
	}
}
