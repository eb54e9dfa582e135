package core

import (
	"fmt"

	"repro/internal/obs"
)

// This file is the single home of the two per-session state machines the
// reconfiguration protocol runs: the subsession lock machine (§3.2) and the
// per-anchor reconfiguration machine (§3.1–§3.6). Every state change in the
// package funnels through setLock / setState, and the legal steps are
// enumerated by lockStep / reconfigStep.
//
// The step functions are pure functions over two small enums, so
// TestStepTablesMatchModel calls them on every (from, to) pair and
// requires exactly the edges of internal/model's tables (the
// Spin-equivalent checker of §3.7); TestStateFieldsHaveOneWriter holds the
// funnel, and every fault run checks that the transitions the agents emit
// are model edges. An invalid step panics at run time rather than
// silently corrupting protocol state.
//
// When core legitimately gains a transition, change the model first (so
// the new relation is re-verified by exhaustive exploration), re-run
// dyscoverify, then mirror it here; see DESIGN.md §6.

// lockStep reports whether the subsession lock machine may step from → to.
// Self-steps (from == to) are handled by setLock and are not part of the
// relation.
func lockStep(from, to LockState) bool {
	switch from {
	case Unlocked:
		// requestLock received or issued (§3.2).
		return to == LockPending
	case LockPending:
		// ackLock grants; nackLock / cancelLock revert (§3.2, §3.6).
		return to == Locked || to == Unlocked
	case Locked:
		// Old-path teardown or cancellation releases the subsession.
		return to == Unlocked
	}
	return false
}

// setLock moves the lock machine for the subsession on this session's
// right. A self-step is a no-op; an undeclared step is a protocol bug and
// panics.
func (s *Session) setLock(to LockState) {
	if to != s.lockState && !lockStep(s.lockState, to) {
		panic(fmt.Sprintf("core: invalid lock transition %v -> %v", s.lockState, to))
	}
	if to != s.lockState {
		// Emission lives in the funnel so the event log can never lag the
		// machine (dyscolint obsexhaust checks the setter emits).
		s.obs.Emit(obs.Event{
			Kind: obs.KLock, Sess: s.IDLeft, ReqID: s.LockReqID,
			From: s.lockState.String(), To: to.String(),
		})
	}
	s.lockState = to
}

// reconfigStep reports whether the per-anchor reconfiguration machine may
// step from → to. Anchors are born in RcLocking (left anchor, at
// StartReconfig) or RcSettingUp (right anchor, on accepting the lock);
// RcDone and RcFailed are absorbing.
func reconfigStep(from, to ReconfigState) bool {
	switch from {
	case RcLocking:
		// ackLock moves to setup; nackLock or retry exhaustion fails (§3.6).
		return to == RcSettingUp || to == RcFailed
	case RcSettingUp:
		// newPathSYNACK either starts state transfer (Figure 15) or goes
		// straight to two-path; cancellation/timeout fails.
		return to == RcStateWait || to == RcTwoPath || to == RcFailed
	case RcStateWait:
		// stateReady (or the peer's oldPathFIN) enters two-path.
		return to == RcTwoPath || to == RcFailed
	case RcTwoPath:
		// Old path drained on both sides completes. A switched attempt
		// cannot fail: both cancelLock and nackLock ignore it (DESIGN.md
		// §6, "A switched anchor does not fail").
		return to == RcDone
	case RcDone, RcFailed:
		return false
	}
	return false
}

// setState moves the reconfiguration machine of this anchor. A self-step
// is a no-op; an undeclared step is a protocol bug and panics.
func (rc *Reconfig) setState(to ReconfigState) {
	if to != rc.rcState && !reconfigStep(rc.rcState, to) {
		panic(fmt.Sprintf("core: invalid reconfig transition %v -> %v", rc.rcState, to))
	}
	if to != rc.rcState && rc.Sess != nil {
		rc.Sess.obs.Emit(obs.Event{
			Kind: obs.KReconfig, Sess: rc.Sess.IDLeft, ReqID: rc.ID,
			From: rc.rcState.String(), To: to.String(),
		})
	}
	rc.rcState = to
}
