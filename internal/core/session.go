package core

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
)

// LockState is the state an agent keeps for the subsession on its right
// (§3.2).
type LockState int

// Lock states for the subsession to an agent's right.
const (
	Unlocked LockState = iota
	LockPending
	Locked
)

func (s LockState) String() string {
	switch s {
	case Unlocked:
		return "unlocked"
	case LockPending:
		return "lockPending"
	case Locked:
		return "locked"
	default:
		return fmt.Sprintf("LockState(%d)", int(s))
	}
}

// Deltas carries the per-middlebox sequence/timestamp deltas and window
// scale information contributed to lock messages when this middlebox is
// deleted (§3.4). Right* fields concern the client→server (rightward)
// stream, Left* the server→client stream.
type Deltas struct {
	Right   int64 // S2pos = Spos + Right for the rightward stream
	Left    int64 // Spos = S2pos + Left for the leftward stream
	RightTS int64 // proxyClock = leftClock + RightTS
	LeftTS  int64 // proxyClock = rightClock + LeftTS
	// Window-scale shifts for anchor window translation: the right anchor
	// rescales its outgoing window by (<<RightWinFrom)>>RightWinTo; the
	// left anchor by (<<LeftWinFrom)>>LeftWinTo. From==To means no-op.
	RightWinFrom, RightWinTo int8
	LeftWinFrom, LeftWinTo   int8
}

// fold adds one deleted hop's contribution h to the deltas a lock message
// accumulates along the old path (§3.4). The rightward requestLock folds
// both streams, the leftward ackLock only the left one. A hop's window
// pair replaces the message's only when the hop rescales (From != To).
func (d *Deltas) fold(h Deltas, rightward bool) {
	if rightward {
		d.Right += h.Right
		d.RightTS += h.RightTS
		if h.RightWinFrom != h.RightWinTo {
			d.RightWinFrom, d.RightWinTo = h.RightWinFrom, h.RightWinTo
		}
	}
	d.Left += h.Left
	d.LeftTS += h.LeftTS
	if h.LeftWinFrom != h.LeftWinTo {
		d.LeftWinFrom, d.LeftWinTo = h.LeftWinFrom, h.LeftWinTo
	}
}

// Session is the per-hop state for one Dysco session: the session identity
// on each side of this host, the neighboring subsessions, and lock and
// reconfiguration state.
type Session struct {
	// IDLeft is the session five-tuple (forward direction: client→server)
	// as it appears on the left side of this host; IDRight on the right
	// side. They differ only across five-tuple-modifying middleboxes
	// (NATs) and TCP-terminating proxies.
	IDLeft  packet.FiveTuple
	IDRight packet.FiveTuple

	// LeftHost/RightHost are the neighbor agents on the old path (zero if
	// this host is the corresponding end of the chain).
	LeftHost  packet.Addr
	RightHost packet.Addr

	// SubLeft/SubRight are the subsession five-tuples (forward
	// orientation) on each side; zero-valued if absent.
	SubLeft  packet.FiveTuple
	SubRight packet.FiveTuple

	// Remainder is the address list still to traverse when the SYN leaves
	// this host (middleboxes then destination).
	Remainder []packet.Addr

	// entries are the rewrite entries this session owns, kept by
	// Agent.install/uninstall: forgetting the session is uninstalling
	// these, never a search of the tables.
	entries []*rewriteEntry
	// idx is the record's position in Agent.live while a session-table
	// key reaches it (Agent.bind/unbind).
	idx int

	// lockState is the lock protocol state for the subsession on our
	// right (§3.2). Only setLock writes it (TestStateFieldsHaveOneWriter).
	lockState LockState
	LockReqID uint64
	// contention is allocated when a second request meets this lock;
	// most sessions never see one.
	contention *lockContention
	// lockSince is the virtual time the current lock acquisition began
	// (stamped when the hop enters LockPending). CollectIdle reclaims
	// locks held past Config.LockTimeout: a requestor that crashed
	// mid-lock, or a lost cancelLock, must not wedge the hop forever.
	lockSince sim.Time

	// MboxDeltas is this hop's contribution when it is deleted (§3.4):
	// set by TCP-terminating proxies at splice time and by size-changing
	// packet apps via ReportDelta.
	MboxDeltas Deltas

	// spliceConns holds the proxy's two TCP connections; removeSession
	// detaches them when the spliced records are forgotten.
	spliceConns [2]SpliceConn

	// Draining marks a session whose host is being deleted: the agent
	// clamps the windows this host advertises (§5.3: "the Dysco agent on
	// the proxy advertises a small window to the senders"). drainWScale
	// is the shift the receiving peer applies to those windows.
	Draining    bool
	drainWScale int8

	// Splice links a proxy's left-side session to its right-side session
	// and vice versa (§2.4): control messages crossing this host translate
	// the session identity through it.
	Splice *Session

	// Anchor tracking in local sequence spaces (§3.5 inputs), updated on
	// the data path: highest byte sent+1, highest ack received, highest
	// byte received+1, highest ack sent. Each counter carries an init
	// flag: sequence space has no natural zero, so the first observation
	// seeds the counter.
	sentHi, sentAckedHi, rcvdHi, rcvdAckedHi     uint32
	sentHiOK, sentAckedOK, rcvdHiOK, rcvdAckedOK bool

	// wsOfferLocal is the window-scale shift the local endpoint offered
	// (observed from the SYN/SYN-ACK this agent forwarded or delivered);
	// used for window translation at anchors.
	wsOfferLocal int8

	// Reconfig is non-nil while this host is an anchor of an active
	// reconfiguration of this session.
	Reconfig *Reconfig

	// finSeen tracks the FINs observed in each direction (0 = rightward):
	// TCP FINs and, at a deleted hop, the old-path FINs (Agent.closed).
	finSeen [2]bool
	// lastActive is the virtual time of the last data-path packet. It
	// gates both idle cleanup and heartbeat sending.
	lastActive sim.Time
	// lastKeepalive is the virtual time of the last heartbeat received
	// for this session. Kept separate from lastActive: if receipt
	// refreshed lastActive it would also suppress this hop's own
	// heartbeats, and under loss the desynchronized refreshes let agents
	// starve each other into collecting live sessions.
	lastKeepalive sim.Time

	// obs receives this session's structured events (lock/reconfig
	// transitions, birth/close). Nil when the host is not being observed;
	// every emission is a no-op then.
	obs *obs.Recorder
}

// lockContention is the lock requests a hop holds back or has refused.
type lockContention struct {
	blocked []*ctrlMsg // waiting for this hop's lock to resolve (§3.2)
	nacked  []uint64   // the requests nackBlocked rejected
}

// IsLeftEnd reports whether this host is the left end of the chain.
func (s *Session) IsLeftEnd() bool { return s.LeftHost == 0 }

// across returns the record on the far side of this hop: the splice
// partner at a TCP-terminating proxy (§2.4), the record itself elsewhere.
// A control message crossing the hop continues under its identity.
func (s *Session) across() *Session {
	if s.Splice != nil {
		return s.Splice
	}
	return s
}

// ReconfigState tracks the phase of a reconfiguration at an anchor.
type ReconfigState int

// Reconfiguration phases at an anchor. An anchor is born directly into
// RcLocking (left anchor) or RcSettingUp (right anchor, which accepts the
// lock and skips the locking phase); there is no idle state — an idle
// session simply has Sess.Reconfig == nil. The legal transitions are
// declared in fsm.go (reconfigStep), and TestStepTablesMatchModel holds
// them to internal/model's table.
const (
	RcLocking   ReconfigState = iota // requestLock sent, waiting for ackLock
	RcSettingUp                      // new-path SYN sent, waiting for SYN-ACK
	RcStateWait                      // waiting for middlebox state transfer
	RcTwoPath                        // both paths live (§3.5)
	RcDone                           // finished successfully
	RcFailed                         // nacked or cancelled
)

func (s ReconfigState) String() string {
	switch s {
	case RcLocking:
		return "locking"
	case RcSettingUp:
		return "settingUp"
	case RcStateWait:
		return "stateWait"
	case RcTwoPath:
		return "twoPath"
	case RcDone:
		return "done"
	case RcFailed:
		return "failed"
	default:
		return fmt.Sprintf("ReconfigState(%d)", int(s))
	}
}

// Reconfig is the per-anchor state of one reconfiguration attempt.
type Reconfig struct {
	ID uint64
	// rcState is the attempt's phase at this anchor. Only setState
	// writes it after the birth literal (TestStateFieldsHaveOneWriter).
	rcState   ReconfigState
	IsLeft    bool
	Sess      *Session
	PeerAddr  packet.Addr   // the other anchor
	NewList   []packet.Addr // middleboxes + right anchor (left anchor only)
	StateFrom packet.Addr   // old middlebox to export state from (0 = none)
	StateTo   packet.Addr   // new middlebox to import state into

	// Delta handling (§3.4): this anchor's delta for the stream it
	// receives, its timestamp delta, and window rescaling shifts.
	Delta          int64
	TSDelta        int64
	WinFrom, WinTo int8
	newSub         packet.FiveTuple // forward orientation at this anchor
	newPeerHost    packet.Addr      // first hop on the new path
	oldEgressKey   packet.FiveTuple
	newEgressEntry *rewriteEntry
	oldIngressKey  packet.FiveTuple

	// Two-path variables (§3.5), in the anchor's local sequence space.
	// The send-side ack level lives in Session.sentAckedHi (acks for old
	// data may legally arrive on either path).
	oldSent      uint32
	oldRcvd      uint32
	oldRcvdAcked uint32
	firstNewRcvd uint32
	hasFirstNew  bool
	switched     bool

	sentOldFIN bool
	rcvdOldFIN bool

	started  sim.Time
	switchAt sim.Time
	retries  int
	// rtxTimer is the attempt's one timer: the control retransmit clock
	// and, at a right anchor before the switch, its deadline.
	rtxTimer *sim.Timer
	// oldPkts is oldPathPkts at the last timeout and liveRetry the retry
	// that saw it grow: only the retries after it count to the give-up.
	oldPkts   uint64
	liveRetry int
	// lastMsg is retransmitted by rtxTimer until the awaited reply arrives.
	lastMsg   *ctrlMsg
	lastMsgTo packet.Addr
}
