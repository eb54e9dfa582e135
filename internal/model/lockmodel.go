package model

import (
	"fmt"
	"strings"
)

// The lock model verifies §3.2 (contention over segments) for arbitrary
// chains and overlapping reconfiguration requests: agents 0..N-1 form the
// service chain; each request is a segment [Left, Right] whose left anchor
// sends requestLock rightward hop by hop, with ackLock/nackLock returning
// leftward, exactly as the daemon implements it.

// Segment is one attempted reconfiguration.
type Segment struct {
	Left, Right int
}

// Overlaps reports whether two segments share a subsession.
func (s Segment) Overlaps(t Segment) bool {
	lo := max(s.Left, t.Left)
	hi := min(s.Right, t.Right)
	return lo < hi
}

// lock states per subsession (the agent on its left holds them).
const (
	unlocked = iota
	lockPending
	locked
)

// message kinds.
const (
	msgReq = iota
	msgAck
	msgNack
	msgCancel
	msgAckCancel
	// msgRelease models the old-path teardown after a successful
	// reconfiguration: it travels the segment unlocking subsessions, which
	// is what eventually unblocks queued requests.
	msgRelease
)

type lmsg struct {
	kind int
	req  int8 // request index
}

// outcome per request.
const (
	pending = iota
	notStarted
	won
	lost
	cancelled
	released
)

// LockConfig describes one verification configuration (§3.7: "it was
// necessary to verify each configuration separately").
type LockConfig struct {
	Agents   int
	Requests []Segment
	// WinnerCancels makes every winning left anchor immediately cancel
	// (models §3.6 new-path failure): terminally all locks must be
	// released.
	WinnerCancels bool
}

// lockRecorder, when attached, observes every per-subsession lock
// transition as it is taken (not the net effect of a whole handler — a
// handler like onAck under WinnerCancels moves lockPending→locked→unlocked
// in one delivery, and both micro-steps are protocol transitions). It is
// shared across clones so one exploration accumulates into one recorder;
// see transitions.go.
type lockRecorder struct {
	edges map[[2]int8]bool
}

// lockState is one global state of the lock model.
type lockState struct {
	cfg *LockConfig
	rec *lockRecorder // optional transition recorder, shared across clones
	// lock[i]/holder[i] describe subsession i (between agents i and i+1).
	lock    []int8
	holder  []int8
	blocked [][]int8 // per agent: blocked request indexes, FIFO
	outcome []int8
	// queues[e]: FIFO channel; e = 2*i is agent i → i+1, 2*i+1 is i+1 → i.
	queues [][]lmsg
}

// setLock is the single funnel for lock-state changes, mirroring
// core.(*Session).setLock; it feeds the recorder that derives the exported
// transition table.
func (s *lockState) setLock(at int, to int8) {
	if s.rec != nil && s.lock[at] != to {
		s.rec.edges[[2]int8{s.lock[at], to}] = true
	}
	s.lock[at] = to
}

// NewLockState builds the initial state for a configuration.
func NewLockState(cfg *LockConfig) State {
	n := cfg.Agents
	s := &lockState{
		cfg:     cfg,
		lock:    make([]int8, n-1),
		holder:  make([]int8, n-1),
		blocked: make([][]int8, n),
		outcome: make([]int8, len(cfg.Requests)),
		queues:  make([][]lmsg, 2*(n-1)),
	}
	for i := range s.holder {
		s.holder[i] = -1
	}
	for i := range s.outcome {
		s.outcome[i] = notStarted
	}
	return s
}

func (s *lockState) clone() *lockState {
	c := &lockState{cfg: s.cfg, rec: s.rec}
	c.lock = append([]int8(nil), s.lock...)
	c.holder = append([]int8(nil), s.holder...)
	c.outcome = append([]int8(nil), s.outcome...)
	c.blocked = make([][]int8, len(s.blocked))
	for i, b := range s.blocked {
		c.blocked[i] = append([]int8(nil), b...)
	}
	c.queues = make([][]lmsg, len(s.queues))
	for i, q := range s.queues {
		c.queues[i] = append([]lmsg(nil), q...)
	}
	return c
}

// Key implements State.
func (s *lockState) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "L%v H%v O%v B%v Q%v", s.lock, s.holder, s.outcome, s.blocked, s.queues)
	return b.String()
}

func (s *lockState) sendRight(from int, m lmsg) { s.queues[2*from] = append(s.queues[2*from], m) }
func (s *lockState) sendLeft(from int, m lmsg) {
	s.queues[2*(from-1)+1] = append(s.queues[2*(from-1)+1], m)
}

// Next implements State: start any unstarted request, or deliver the head
// of any nonempty channel.
func (s *lockState) Next() []State {
	var out []State
	for r := range s.cfg.Requests {
		if s.outcome[r] == notStarted {
			out = append(out, s.startRequest(r))
		}
		if s.outcome[r] == won {
			// The winner's reconfiguration completes and tears down the
			// old path, releasing the segment.
			out = append(out, s.releaseRequest(r))
		}
	}
	for e := range s.queues {
		if len(s.queues[e]) > 0 {
			out = append(out, s.deliver(e))
		}
	}
	return out
}

// startRequest models StartReconfig at the left anchor.
func (s *lockState) startRequest(r int) State {
	c := s.clone()
	seg := c.cfg.Requests[r]
	if c.lock[seg.Left] != unlocked {
		// The daemon refuses to start while its own subsession is busy.
		c.outcome[r] = lost
		return c
	}
	c.setLock(seg.Left, lockPending)
	c.holder[seg.Left] = int8(r)
	c.outcome[r] = pending
	c.sendRight(seg.Left, lmsg{msgReq, int8(r)})
	return c
}

// releaseRequest models the winner finishing: its own subsession unlocks
// and a release traverses the segment.
func (s *lockState) releaseRequest(r int) State {
	c := s.clone()
	seg := c.cfg.Requests[r]
	c.outcome[r] = released
	if c.holder[seg.Left] == int8(r) {
		c.setLock(seg.Left, unlocked)
		c.holder[seg.Left] = -1
		c.processBlocked(seg.Left)
	}
	c.sendRight(seg.Left, lmsg{msgRelease, int8(r)})
	return c
}

// deliver pops the head of channel e and runs the receiving agent's
// handler.
func (s *lockState) deliver(e int) State {
	c := s.clone()
	m := c.queues[e][0]
	c.queues[e] = c.queues[e][1:]
	var at int
	fromLeft := e%2 == 0
	if fromLeft {
		at = e/2 + 1
	} else {
		at = e / 2
	}
	seg := c.cfg.Requests[m.req]
	switch m.kind {
	case msgReq:
		c.onReq(at, m.req, seg)
	case msgAck:
		c.onAck(at, m.req, seg)
	case msgNack:
		c.onNack(at, m.req, seg)
	case msgCancel:
		c.onCancel(at, m.req, seg)
	case msgAckCancel:
		// informational
	case msgRelease:
		c.onRelease(at, m.req, seg)
	}
	return c
}

func (c *lockState) onReq(at int, r int8, seg Segment) {
	if at == seg.Right {
		// Right anchor: grant.
		c.sendLeft(at, lmsg{msgAck, r})
		return
	}
	switch c.lock[at] {
	case unlocked:
		c.setLock(at, lockPending)
		c.holder[at] = r
		c.sendRight(at, lmsg{msgReq, r})
	default:
		// Contention (§3.2): block the request.
		c.blocked[at] = append(c.blocked[at], r)
	}
}

func (c *lockState) onAck(at int, r int8, seg Segment) {
	if at == seg.Left {
		c.outcome[r] = won
		c.setLock(at, locked)
		c.nackBlocked(at)
		if c.cfg.WinnerCancels {
			// §3.6: the new path failed; release the segment.
			c.outcome[r] = cancelled
			c.setLock(at, unlocked)
			c.holder[at] = -1
			c.processBlocked(at)
			c.sendRight(at, lmsg{msgCancel, r})
		}
		return
	}
	if c.lock[at] == lockPending && c.holder[at] == r {
		c.setLock(at, locked)
		c.nackBlocked(at)
	}
	c.sendLeft(at, lmsg{msgAck, r})
}

func (c *lockState) onNack(at int, r int8, seg Segment) {
	if at == seg.Left {
		c.outcome[r] = lost
		if c.lock[at] == lockPending && c.holder[at] == r {
			c.setLock(at, unlocked)
			c.holder[at] = -1
			c.processBlocked(at)
		}
		return
	}
	if c.lock[at] == lockPending && c.holder[at] == r {
		c.setLock(at, unlocked)
		c.holder[at] = -1
		c.processBlocked(at)
	}
	c.sendLeft(at, lmsg{msgNack, r})
}

func (c *lockState) onCancel(at int, r int8, seg Segment) {
	if at == seg.Right {
		c.sendLeft(at, lmsg{msgAckCancel, r})
		return
	}
	if c.holder[at] == r && c.lock[at] != unlocked {
		c.setLock(at, unlocked)
		c.holder[at] = -1
		c.processBlocked(at)
	}
	c.sendRight(at, lmsg{msgCancel, r})
}

func (c *lockState) onRelease(at int, r int8, seg Segment) {
	if at >= seg.Right {
		return // the release ends at the right anchor
	}
	if c.holder[at] == r && c.lock[at] == locked {
		c.setLock(at, unlocked)
		c.holder[at] = -1
		c.processBlocked(at)
	}
	c.sendRight(at, lmsg{msgRelease, r})
}

// nackBlocked rejects everything blocked behind a now-locked subsession.
func (c *lockState) nackBlocked(at int) {
	for _, b := range c.blocked[at] {
		seg := c.cfg.Requests[b]
		if at == seg.Left {
			c.outcome[b] = lost
			continue
		}
		c.sendLeft(at, lmsg{msgNack, b})
	}
	c.blocked[at] = nil
}

// processBlocked re-runs the oldest blocked request after an unlock.
func (c *lockState) processBlocked(at int) {
	if len(c.blocked[at]) == 0 {
		return
	}
	b := c.blocked[at][0]
	c.blocked[at] = c.blocked[at][1:]
	c.onReq(at, b, c.cfg.Requests[b])
}

// Invariant implements State: a subsession never serves two requests, and
// two overlapping requests are never simultaneously fully locked (the
// strong form of P1).
func (s *lockState) Invariant() error {
	for r1 := range s.cfg.Requests {
		for r2 := r1 + 1; r2 < len(s.cfg.Requests); r2++ {
			a, b := s.cfg.Requests[r1], s.cfg.Requests[r2]
			if !a.Overlaps(b) {
				continue
			}
			if s.fullyLocked(r1) && s.fullyLocked(r2) {
				return fmt.Errorf("P1 violated: overlapping requests %d and %d both hold their segments", r1, r2)
			}
		}
	}
	return nil
}

func (s *lockState) fullyLocked(r int) bool {
	seg := s.cfg.Requests[r]
	if s.outcome[r] != won {
		return false
	}
	for i := seg.Left; i < seg.Right; i++ {
		if !(s.lock[i] == locked && s.holder[i] == int8(r)) {
			return false
		}
	}
	return true
}

// Terminal implements State.
func (s *lockState) Terminal() bool {
	for _, q := range s.queues {
		if len(q) > 0 {
			return false
		}
	}
	for _, o := range s.outcome {
		if o == notStarted || o == pending || o == won {
			return false
		}
	}
	return true
}

// TerminalCheck implements State: every request decided; at least one
// contender succeeded; every lock released; no blocked residue (§3.2,
// §3.6). Simultaneous double-wins are excluded by the Invariant at every
// intermediate state; a nacked contender may of course succeed in a later
// round after the winner releases, which counts as a second (sequential)
// success.
func (s *lockState) TerminalCheck() error {
	winners := 0
	for _, o := range s.outcome {
		if o == released {
			winners++
		}
	}
	if !s.cfg.WinnerCancels && winners == 0 {
		return fmt.Errorf("P1 liveness violated: no request ever succeeded")
	}
	for i, l := range s.lock {
		if l != unlocked {
			return fmt.Errorf("subsession %d not released at termination (%d)", i, l)
		}
	}
	for a, b := range s.blocked {
		if len(b) > 0 {
			return fmt.Errorf("agent %d left blocked requests %v", a, b)
		}
	}
	return nil
}
