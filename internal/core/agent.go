package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/stats"
)

// DaemonPort is the UDP port every Dysco daemon listens on.
const DaemonPort packet.Port = 9903

// App is a packet-level middlebox application (the libpcap/sk_buff style
// of §4.1): it receives packets carrying the original session header and
// returns the packets to re-emit (usually the same one, possibly modified,
// possibly none to drop). The result is consumed before the next Process
// call and never kept, so an application may return a slice it reuses.
type App interface {
	Process(p *packet.Packet, dir netsim.Direction) []*packet.Packet
}

// Classifier is optionally implemented by a middlebox application that
// itself selects the next middlebox(es) for a session (§2.2: "an
// application classifier … to itself select the next middlebox in the
// chain"): the returned addresses are injected at the head of the SYN's
// untraversed address list.
type Classifier interface {
	NextHops(session packet.FiveTuple, syn *packet.Packet) []packet.Addr
}

// StatefulApp is implemented by middlebox applications whose per-session
// state can be exported and imported during replacement (OpenNF-style,
// §5.3 "middlebox replacement with state transfer").
type StatefulApp interface {
	App
	ExportState(sess packet.FiveTuple) ([]byte, error)
	ImportState(state []byte) error
}

// PolicyFunc returns the middlebox address list for a new locally-
// originated session (excluding the destination), or nil for no chain.
type PolicyFunc func(p *packet.Packet) []packet.Addr

// maxControlRetries bounds the control retransmissions before an anchor
// gives up, counting only silent ones after the switch: an unswitched
// attempt fails (§3.6), a switched one finalizes (onCtrlTimeout). It also
// bounds trigger re-sends.
const maxControlRetries = 8

// closedQuiet is how long a session whose FINs were seen both ways must
// stay quiet before it is forgotten (Agent.closed).
const closedQuiet = time.Second

// Config tunes an agent.
type Config struct {
	// ControlRTO is the retransmission timeout for reconfiguration control
	// messages (default 2 ms — LAN scale, §5.3).
	ControlRTO sim.Time
	// WindowClamp caps the receive window (in bytes) advertised on the old
	// path during reconfiguration; the paper found min(adv, 64 KB) best
	// (§5.3). 0 disables clamping; set ZeroWindow to advertise 0 instead.
	WindowClamp int
	ZeroWindow  bool
	// IdleTimeout garbage-collects session state with no traffic
	// (default 5 min).
	IdleTimeout sim.Time
	// LockTimeout bounds how long a hop keeps a subsession locked without
	// resolution. A requestor that crashes mid-lock (or whose cancelLock
	// is lost, §3.6) would otherwise block every later reconfiguration of
	// the segment forever; CollectIdle force-releases such locks. The
	// timeout must exceed the longest legitimate reconfiguration
	// (including the §3.5 two-path drain). Default 30 s; negative
	// disables.
	LockTimeout sim.Time
	// AttemptTimeout bounds how long a right anchor keeps a
	// reconfiguration attempt alive before the path switches. Until then
	// the right anchor only replies, so its attempt timer (the control
	// retransmit clock) carries this deadline, armed when it accepts the
	// lock: a left anchor that crashed, or aborted and lost its
	// cancelLock (§3.6), would otherwise leave the attempt pending
	// forever. At the deadline the staged new path is torn down and the
	// attempt fails. A switched attempt is exempt: its oldPathFIN, on the
	// same timer, ends it. Default 10 s; negative disables.
	AttemptTimeout sim.Time
	// HeartbeatInterval, when positive, makes the agent send keepalive
	// signals for idle sessions to its neighbors so good subsessions are
	// not timed out (§2.1: "agents can use heartbeat signals to keep good
	// subsessions alive"). Received heartbeats refresh the session.
	HeartbeatInterval sim.Time
	// GCInterval, when positive, runs CollectIdle periodically.
	GCInterval sim.Time
	// TransitChaining makes this agent chain TRANSIT sessions (the host
	// must be Forwarding): an ISP edge router initiating Dysco chains on
	// behalf of end-hosts that do not run Dysco (§2.4 partial deployment).
	// Rewritten inbound packets are forwarded onward instead of being
	// delivered to a local stack or application.
	TransitChaining bool
	// StateOpCost models the time a daemon spends exporting or importing
	// middlebox state (conntrack invocation + serialization, §5.3); it is
	// what makes state transfer dominate Figure 15's reconfiguration
	// times. Default 20 ms; set negative for zero.
	StateOpCost sim.Time
	// RewriteCost is the CPU cost charged per rewritten packet
	// (default 300 ns, the incremental-checksum header rewrite).
	RewriteCost sim.Time
}

func (c *Config) fillDefaults() {
	if c.ControlRTO == 0 {
		c.ControlRTO = 2 * time.Millisecond
	}
	if c.WindowClamp == 0 && !c.ZeroWindow {
		c.WindowClamp = 64 << 10
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.LockTimeout == 0 {
		c.LockTimeout = 30 * time.Second
	}
	if c.AttemptTimeout == 0 {
		c.AttemptTimeout = 10 * time.Second
	}
	if c.RewriteCost == 0 {
		c.RewriteCost = 300 * time.Nanosecond
	}
	if c.StateOpCost == 0 {
		c.StateOpCost = 20 * time.Millisecond
	} else if c.StateOpCost < 0 {
		c.StateOpCost = 0
	}
}

// Stats counts agent events.
type Stats struct {
	SessionsOpened    uint64
	PacketsRewritten  uint64
	TagsApplied       uint64
	TagsMatched       uint64
	ReconfigsStarted  uint64
	ReconfigsDone     uint64
	ReconfigsFailed   uint64
	CtrlRetransmits   uint64
	OldPathPackets    uint64
	NewPathPackets    uint64
	SessionsCollected uint64
}

// rewriteEntry maps an observed five-tuple to its rewrite: the embedded
// Rule carries the delta and option translations of §3.4/§4.2 (the pure
// kernel shared with internal/dataplane), and the remaining fields are
// the simulation-side routing/tracking state around it.
type rewriteEntry struct {
	Rule
	// sess owns the entry and is never nil. While installed, tbl/key say
	// where and idx is its position in sess.entries; tbl is nil otherwise.
	sess *Session
	tbl  map[packet.FiveTuple]*rewriteEntry
	key  packet.FiveTuple
	idx  int
	// dirRight: the packet travels client→server.
	dirRight bool
	// deliver: after ingress rewrite, hand the packet to the local stack
	// (end-host or TCP-terminating proxy) instead of the packet App.
	deliver bool
	// anchorSide marks entries on an anchor's session side so the data
	// path maintains the §3.5 counters.
	anchorTrack bool
	// newPath marks new-path entries during two-path operation.
	newPath bool
	// pkts/bytes count traffic rewritten through this entry, reported as
	// the per-subsession totals of the observability metrics registry.
	pkts  uint64
	bytes uint64
}

// Agent is the per-host Dysco agent: the data-plane interceptor (kernel
// module equivalent) plus the user-space reconfiguration daemon.
type Agent struct {
	Host   *netsim.Host
	Cfg    Config
	Policy PolicyFunc
	// App, when set, makes this host a packet-level middlebox: rewritten
	// packets are run through it and re-emitted.
	App App
	// Stats is exported for experiments.
	Stats Stats

	// OnReconfigDone, when set, observes every reconfiguration this agent
	// anchors (experiments use it for Figure 13 timings).
	OnReconfigDone func(sess packet.FiveTuple, ok bool, took sim.Time)
	// OnReconfigSwitch fires at a left anchor when the new path goes into
	// use ("from the moment a SYN message is sent until the new path is
	// used", the §5.3 timing).
	OnReconfigSwitch func(sess packet.FiveTuple, sinceStart sim.Time)

	eng      *sim.Engine
	findConn FindConnFunc
	ingress  map[packet.FiveTuple]*rewriteEntry
	egress   map[packet.FiveTuple]*rewriteEntry
	sessions map[packet.FiveTuple]*Session // by IDLeft (and IDRight when different)
	// live lists every record a sessions key reaches, once, at its
	// Session.idx (bind/unbind keep it): the GC sweep and EachSession
	// scan it, not the map.
	live     []*Session
	nextPort packet.Port
	nextTag  uint32
	tagged   map[uint32]*Session
	daemon   *daemon

	// obs is the per-host event recorder (nil = observability off; every
	// emission is then a no-op and the hot path allocates nothing).
	obs *obs.Recorder
	// mRewriteLat/mReconfigDur are resolved once at SetRecorder time so
	// the data path observes through a pointer instead of a map lookup.
	mRewriteLat  *stats.Histogram
	mReconfigDur *stats.Histogram
}

// SetRecorder attaches an event recorder (and its hub's metrics registry)
// to this agent. Existing sessions are back-filled so their transitions
// emit too; pass nil to detach. Safe to call at any time.
func (a *Agent) SetRecorder(r *obs.Recorder) {
	a.obs = r
	if r != nil {
		a.mRewriteLat = r.Metrics().Histogram(obs.MRewriteLatency, obs.RewriteLatencyBounds()...)
		a.mReconfigDur = r.Metrics().Histogram(obs.MReconfigDuration, obs.ReconfigDurationBounds()...)
	} else {
		a.mRewriteLat = nil
		a.mReconfigDur = nil
	}
	a.EachSession(func(sess *Session) { sess.obs = r })
}

// Recorder returns the attached event recorder (nil when detached).
func (a *Agent) Recorder() *obs.Recorder { return a.obs }

// NewAgent attaches a Dysco agent to a host. The agent registers ingress
// and egress hooks and binds the daemon's UDP port.
func NewAgent(h *netsim.Host, cfg Config) *Agent {
	cfg.fillDefaults()
	a := &Agent{
		Host:     h,
		Cfg:      cfg,
		eng:      h.Net.Eng,
		ingress:  make(map[packet.FiveTuple]*rewriteEntry),
		egress:   make(map[packet.FiveTuple]*rewriteEntry),
		sessions: make(map[packet.FiveTuple]*Session),
		nextPort: subPortBase,
		nextTag:  1,
		tagged:   make(map[uint32]*Session),
	}
	a.daemon = newDaemon(a)
	h.AddIngressHook(a.ingressHook)
	h.AddEgressHook(a.egressHook)
	h.BindUDP(DaemonPort, a.daemon.handleUDP)
	if cfg.HeartbeatInterval > 0 {
		a.eng.Schedule(cfg.HeartbeatInterval, a.heartbeatTick)
	}
	if cfg.GCInterval > 0 {
		a.eng.Schedule(cfg.GCInterval, a.gcTick)
	}
	return a
}

// heartbeatTick sends a keepalive for every session idle longer than the
// heartbeat interval, then re-arms.
func (a *Agent) heartbeatTick() {
	now := a.eng.Now()
	a.EachSession(func(sess *Session) {
		if now-sess.lastActive < a.Cfg.HeartbeatInterval {
			return
		}
		if sess.RightHost != 0 {
			a.daemon.send(sess.RightHost, &ctrlMsg{Type: msgHeartbeat, Session: sess.IDRight})
		}
		if sess.LeftHost != 0 {
			a.daemon.send(sess.LeftHost, &ctrlMsg{Type: msgHeartbeat, Session: sess.IDLeft})
		}
	})
	a.eng.Schedule(a.Cfg.HeartbeatInterval, a.heartbeatTick)
}

// gcTick collects idle/closed sessions periodically.
func (a *Agent) gcTick() {
	a.CollectIdle()
	a.eng.Schedule(a.Cfg.GCInterval, a.gcTick)
}

// RestartDaemon models a crash and restart of the user-space
// reconfiguration daemon: every in-flight attempt this host anchors is
// lost (timers stopped, Reconfig detached without a state transition — a
// crash does not step the machine), as is the daemon's control dedup
// state. Kernel-side state — sessions, rewrite entries, and locks —
// survives, mirroring the paper's kernel-module / user-daemon split
// (§4.1). Locks orphaned by the crash are reclaimed by CollectIdle's
// LockTimeout; peer anchors observe retransmission exhaustion and abort
// (§3.6).
func (a *Agent) RestartDaemon() {
	old := a.daemon
	ids := make([]uint64, 0, len(old.reconfigs))
	for id := range old.reconfigs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		rc := old.reconfigs[id]
		rc.rtxTimer.Stop()
		rc.lastMsg = nil
		rc.Sess.Reconfig = nil
	}
	a.daemon = newDaemon(a)
	a.Host.BindUDP(DaemonPort, a.daemon.handleUDP)
}

// Session returns the session record for the given session id (either
// side), or nil.
func (a *Agent) Session(id packet.FiveTuple) *Session { return a.sessions[id] }

// Sessions returns the number of tracked sessions: records, not keys, so
// a session a NAT renames counts once.
func (a *Agent) Sessions() int { return len(a.live) }

// EachSession visits every distinct session record at this hop, in
// five-tuple order. Callers schedule events and send packets (keepalives,
// bulk reconfiguration), so visiting in list or map order would make two
// runs with the same seed diverge. fn may remove sessions: it walks a
// sorted copy of the list.
func (a *Agent) EachSession(fn func(*Session)) {
	sessions := slices.Clone(a.live)
	slices.SortFunc(sessions, byIDLeft)
	for _, sess := range sessions {
		fn(sess)
	}
}

// byIDLeft orders session records by IDLeft five-tuple.
func byIDLeft(x, y *Session) int {
	switch {
	case x.IDLeft.Less(y.IDLeft):
		return -1
	case y.IDLeft.Less(x.IDLeft):
		return 1
	}
	return 0
}

// bind is the one place a key enters the session table: it points key at
// sess and lists sess. A record displaced from key by another keeps its
// other key, if it has one, and leaves the list when its last key goes:
// no lookup and no sweep can reach it any more.
func (a *Agent) bind(key packet.FiveTuple, sess *Session) {
	old := a.sessions[key]
	a.sessions[key] = sess
	if old == sess {
		return
	}
	if old != nil {
		a.unlistUnkeyed(old)
	}
	if !a.listed(sess) {
		sess.idx = len(a.live)
		a.live = append(a.live, sess)
	}
}

// unbind drops key from the session table if it reaches sess; sess leaves
// the list with its last key.
func (a *Agent) unbind(key packet.FiveTuple, sess *Session) {
	if a.sessions[key] == sess {
		delete(a.sessions, key)
		a.unlistUnkeyed(sess)
	}
}

// listed reports whether sess is in the live list.
func (a *Agent) listed(sess *Session) bool {
	return sess.idx < len(a.live) && a.live[sess.idx] == sess
}

// unlistUnkeyed swap-removes the listed sess from the live list once
// neither of its keys reaches it.
func (a *Agent) unlistUnkeyed(sess *Session) {
	if a.sessions[sess.IDLeft] == sess || a.sessions[sess.IDRight] == sess {
		return
	}
	n := len(a.live) - 1
	last := a.live[n]
	a.live[sess.idx], last.idx = last, sess.idx
	a.live[n] = nil
	a.live = a.live[:n]
}

// install is the one place an entry enters a rewrite table (a.ingress or
// a.egress): it displaces whatever held key and lists e with its owner.
func (a *Agent) install(tbl map[packet.FiveTuple]*rewriteEntry, key packet.FiveTuple, e *rewriteEntry) *rewriteEntry {
	a.uninstall(tbl[key])
	e.tbl, e.key, e.idx = tbl, key, len(e.sess.entries)
	tbl[key] = e
	e.sess.entries = append(e.sess.entries, e)
	return e
}

// uninstall is the one place an entry leaves its table and its owner's
// list; a nil or already-uninstalled entry is a no-op.
func (a *Agent) uninstall(e *rewriteEntry) {
	if e == nil || e.tbl == nil {
		return
	}
	delete(e.tbl, e.key)
	e.tbl = nil
	owned := e.sess.entries
	last := owned[len(owned)-1]
	owned[e.idx], last.idx = last, e.idx
	e.sess.entries = owned[:len(owned)-1]
}

// subPortBase is the first port subsession tuples draw from; they take
// ports in (even, odd) pairs up to 65535 and wrap.
const subPortBase packet.Port = 40000

// newSubTuple allocates a subsession five-tuple from this host toward
// next. After a wrap a candidate may still belong to a live or
// not-yet-collected session: it is free when no ingress entry is keyed by
// its reverse tuple (every caller installs one for the tuple it gets).
// It reports false when every candidate toward next is taken; the caller
// then fails only the setup it was allocating for.
func (a *Agent) newSubTuple(next packet.Addr) (packet.FiveTuple, bool) {
	for range (1<<16 - int(subPortBase)) / 2 {
		p := a.nextPort
		if a.nextPort += 2; a.nextPort == 0 {
			a.nextPort = subPortBase
		}
		sub := packet.FiveTuple{Proto: packet.ProtoTCP, SrcIP: a.Host.Addr, DstIP: next, SrcPort: p, DstPort: p + 1}
		if a.ingress[sub.Reverse()] == nil {
			return sub, true
		}
	}
	return packet.FiveTuple{}, false
}

// ---------- egress path ----------

func (a *Agent) egressHook(p *packet.Packet, dir netsim.Direction) netsim.Verdict {
	if !p.IsTCP() {
		return netsim.Pass
	}
	if e, ok := a.egress[p.Tuple]; ok {
		if e.sess.Reconfig != nil && e.sess.Reconfig.switched && e.anchorTrack && !e.newPath {
			// Two-path phase: steer/split between old and new paths.
			a.steerEgress(p, e)
			return netsim.Consume
		}
		if p.Flags.Has(packet.FlagSYN) && p.Flags.Has(packet.FlagACK) &&
			e.sess.wsOfferLocal == -1 {
			// Record the local endpoint's window-scale offer from its
			// SYN-ACK (needed for window translation at anchors).
			e.sess.wsOfferLocal = wsOffer(p)
		}
		if p.Flags.Has(packet.FlagSYN) && !p.Flags.Has(packet.FlagACK) &&
			e.dirRight && len(e.sess.Remainder) > 0 {
			// SYN retransmission: re-attach the Dysco payload before the
			// rewrite (the payload carries the right-side session id).
			a.attachSynPayload(p, e.sess)
		}
		a.applyEgress(p, e)
		return netsim.Pass
	}
	if p.Flags.Has(packet.FlagSYN) && !p.Flags.Has(packet.FlagACK) {
		return a.egressSYN(p)
	}
	return netsim.Pass
}

// egressSYN handles a SYN leaving this host with no existing mapping:
// either a new locally-originated session (consult policy) or a SYN
// emerging from the local middlebox application (match by tag).
func (a *Agent) egressSYN(p *packet.Packet) netsim.Verdict {
	if p.Opts.HasDyscoTag {
		if sess, ok := a.tagged[p.Opts.DyscoTag]; ok {
			a.Stats.TagsMatched++
			delete(a.tagged, p.Opts.DyscoTag)
			p.Opts.HasDyscoTag = false
			p.Opts.DyscoTag = 0
			// The app may have modified the five-tuple (NAT): the session
			// identity on our right is whatever emerged.
			sess.IDRight = p.Tuple
			if sess.IDRight != sess.IDLeft {
				a.bind(sess.IDRight, sess)
			}
			if cl, ok := a.App.(Classifier); ok {
				// §2.2: the classifier injects the next middlebox(es)
				// into the untraversed portion of the address list.
				if hops := cl.NextHops(sess.IDRight, p); len(hops) > 0 {
					sess.Remainder = append(append([]packet.Addr(nil), hops...), sess.Remainder...)
				}
			}
			return a.continueChain(p, sess)
		}
		// Unknown tag: strip it and let the packet go.
		p.Opts.HasDyscoTag = false
		p.Opts.DyscoTag = 0
		return netsim.Pass
	}
	if a.Policy == nil {
		return netsim.Pass
	}
	chain := a.Policy(p)
	if len(chain) == 0 {
		return netsim.Pass
	}
	if a.Cfg.TransitChaining && p.Tuple.SrcIP == a.Host.Addr {
		return netsim.Pass // never chain the edge router's own traffic
	}
	sess := a.openSession(&Session{
		IDLeft:       p.Tuple,
		IDRight:      p.Tuple,
		Remainder:    append(append([]packet.Addr(nil), chain...), p.Tuple.DstIP),
		wsOfferLocal: wsOffer(p),
	}, "policy", 0)
	a.Stats.SessionsOpened++
	return a.continueChain(p, sess)
}

// openSession registers a newly born session record under IDLeft: it
// stamps the record's activity clock and recorder and logs the birth with
// its origin and, for a new-path hop, the reconfiguration's ReqID.
func (a *Agent) openSession(sess *Session, origin string, reqID uint64) *Session {
	sess.lastActive = a.eng.Now()
	sess.obs = a.obs
	a.bind(sess.IDLeft, sess)
	a.obs.Emit(obs.Event{Kind: obs.KSessionOpen, Sess: sess.IDLeft, ReqID: reqID, Detail: origin})
	return sess
}

func wsOffer(p *packet.Packet) int8 {
	if p.Opts.WScale >= 0 {
		return p.Opts.WScale
	}
	return 0
}

// continueChain allocates the next subsession for a forward SYN and
// installs the four rewrite entries for this hop, then rewrites the SYN
// and attaches the Dysco payload. With no subsession tuple free toward
// the next hop it removes the half-built session and drops the SYN: the
// endpoint's SYN retransmission retries the setup.
func (a *Agent) continueChain(p *packet.Packet, sess *Session) netsim.Verdict {
	next := sess.Remainder[0]
	sub, ok := a.newSubTuple(next)
	if !ok {
		a.removeSession(sess)
		return netsim.Drop
	}
	sess.SubRight = sub
	sess.RightHost = next
	// Forward: session (right side id) → subsession.
	out := a.install(a.egress, sess.IDRight, &rewriteEntry{Rule: Rule{To: sub}, sess: sess, dirRight: true, anchorTrack: sess.IsLeftEnd()})
	// Reverse: subsession back → session. Delivery goes to the local
	// stack unless this host runs a packet app or chains transit traffic
	// (an edge router forwards the rewritten packet onward, §2.4).
	a.install(a.ingress, sub.Reverse(), &rewriteEntry{
		Rule: Rule{To: sess.IDRight.Reverse()}, sess: sess, dirRight: false,
		deliver: a.App == nil && !a.Cfg.TransitChaining, anchorTrack: sess.IsLeftEnd(),
	})
	a.attachSynPayload(p, sess)
	a.applyEgress(p, out)
	return netsim.Pass
}

func (a *Agent) attachSynPayload(p *packet.Packet, sess *Session) {
	p.Payload = encodeSynPayload(&synPayload{Session: sess.IDRight, List: sess.Remainder})
}

// applyEgress rewrites an outgoing packet onto its subsession: the shared
// Rule kernel applies the §3.4 output-side delta to the acknowledgment
// number, SACK blocks, timestamp echo, and rescales the window.
func (a *Agent) applyEgress(p *packet.Packet, e *rewriteEntry) {
	a.track(p, e, false)
	if e.sess.Draining {
		a.clampWindow(p, e.sess.drainWScale)
	}
	e.Rule.ApplyEgress(p, true)
	a.Stats.PacketsRewritten++
	e.pkts++
	e.bytes += uint64(p.DataLen())
	if a.obs != nil {
		a.obs.Emit(obs.Event{Kind: obs.KRewrite, Sess: e.sess.IDLeft, Dir: "egress", Bytes: p.DataLen()})
	}
	a.chargeRewrite()
}

// applyIngress rewrites an incoming subsession packet back to the session
// header: the shared Rule kernel applies the input-side delta to the
// sequence number and timestamp value.
func (a *Agent) applyIngress(p *packet.Packet, e *rewriteEntry) {
	e.Rule.ApplyIngress(p, true)
	a.track(p, e, true)
	a.Stats.PacketsRewritten++
	e.pkts++
	e.bytes += uint64(p.DataLen())
	if a.obs != nil {
		a.obs.Emit(obs.Event{Kind: obs.KRewrite, Sess: e.sess.IDLeft, Dir: "ingress", Bytes: p.DataLen()})
	}
	a.chargeRewrite()
}

// chargeRewrite bills the configured per-rewrite CPU cost to the host.
// Every default agent runs it per rewritten packet (fillDefaults sets
// RewriteCost), so TestRewritePathZeroAlloc measures it at that default.
func (a *Agent) chargeRewrite() {
	if a.Cfg.RewriteCost > 0 {
		done := a.Host.CPU.Acquire(a.Cfg.RewriteCost)
		// Rewrite latency includes CPU queueing: completion minus arrival.
		a.mRewriteLat.Observe(float64(done - a.eng.Now()))
	}
}

// clampWindow applies the configured old-path window strategy to a packet
// this host advertises while it is being deleted (§5.3: "the Dysco agent
// on the proxy advertises a small window to the senders").
func (a *Agent) clampWindow(p *packet.Packet, shift int8) {
	if a.Cfg.ZeroWindow {
		p.Window = 0
		return
	}
	if a.Cfg.WindowClamp <= 0 {
		return
	}
	if shift < 0 {
		shift = 0
	}
	clamp := uint32(a.Cfg.WindowClamp) >> uint(shift)
	if clamp == 0 {
		clamp = 1
	}
	if uint32(p.Window) > clamp {
		p.Window = uint16(clamp)
	}
}

// seqInit seeds or advances a sequence-space counter: there is no natural
// zero in mod-2³² space, so the first observation initializes it.
func seqInit(val *uint32, ok *bool, v uint32) {
	if !*ok {
		*val, *ok = v, true
		return
	}
	if packet.SeqGT(v, *val) {
		*val = v
	}
}

// track maintains the §3.5 counters in local sequence space. SYNs seed the
// stream-position counters (the data stream starts at ISN+1).
func (a *Agent) track(p *packet.Packet, e *rewriteEntry, in bool) {
	sess := e.sess
	sess.lastActive = a.eng.Now()
	if p.Flags.Has(packet.FlagFIN) {
		d := 0
		if !e.dirRight {
			d = 1
		}
		sess.finSeen[d] = true
	}
	if !e.anchorTrack {
		return
	}
	if in {
		if p.Flags.Has(packet.FlagSYN) {
			seqInit(&sess.rcvdHi, &sess.rcvdHiOK, packet.SeqAdd(p.Seq, 1))
			seqInit(&sess.rcvdAckedHi, &sess.rcvdAckedOK, packet.SeqAdd(p.Seq, 1))
		} else if p.DataLen() > 0 || p.Flags.Has(packet.FlagFIN) {
			seqInit(&sess.rcvdHi, &sess.rcvdHiOK, dataSeqEnd(p))
		}
		if p.Flags.Has(packet.FlagACK) {
			seqInit(&sess.sentAckedHi, &sess.sentAckedOK, p.Ack)
		}
		if sess.Reconfig != nil && sess.Reconfig.switched {
			a.daemon.checkOldPathDone(sess.Reconfig)
		}
	} else {
		if p.Flags.Has(packet.FlagSYN) {
			seqInit(&sess.sentHi, &sess.sentHiOK, packet.SeqAdd(p.Seq, 1))
			seqInit(&sess.sentAckedHi, &sess.sentAckedOK, p.Seq) // not yet acked
		} else if p.DataLen() > 0 || p.Flags.Has(packet.FlagFIN) {
			seqInit(&sess.sentHi, &sess.sentHiOK, dataSeqEnd(p))
		}
		if p.Flags.Has(packet.FlagACK) {
			seqInit(&sess.rcvdAckedHi, &sess.rcvdAckedOK, p.Ack)
		}
	}
	sess.seenData = true
}

// dataSeqEnd is SeqEnd ignoring the SYN bit (data stream positions only).
func dataSeqEnd(p *packet.Packet) uint32 {
	n := int64(p.DataLen())
	if p.Flags.Has(packet.FlagFIN) {
		n++
	}
	return packet.SeqAdd(p.Seq, n)
}

// ---------- ingress path ----------

func (a *Agent) ingressHook(p *packet.Packet, dir netsim.Direction) netsim.Verdict {
	if !p.IsTCP() {
		return netsim.Pass
	}
	if p.Flags.Has(packet.FlagSYN) && !p.Flags.Has(packet.FlagACK) && p.Tuple.DstIP == a.Host.Addr {
		if v, handled := a.ingressChainSYN(p); handled {
			return v
		}
	}
	e, ok := a.ingress[p.Tuple]
	if !ok {
		return netsim.Pass
	}
	if e.newPath && e.anchorTrack && e.sess.Reconfig != nil && !e.sess.Reconfig.switched {
		// First new-path arrival before the NewPathACK: switch now (the
		// peer anchor has clearly switched already).
		a.daemon.activateSwitch(e.sess.Reconfig)
	}
	if rc := e.sess.Reconfig; rc != nil && rc.switched && e.anchorTrack {
		a.noteTwoPathIngress(p, e, rc)
	}
	return a.rewriteIn(p, e)
}

// rewriteIn rewrites p back to its session header through e and hands it
// on: to the local stack, through the middlebox application, or — no app
// and not for local delivery — back out (a wire middlebox host acting as a
// pure Dysco forwarder).
func (a *Agent) rewriteIn(p *packet.Packet, e *rewriteEntry) netsim.Verdict {
	a.applyIngress(p, e)
	switch {
	case e.deliver:
		a.Host.DeliverLocal(p)
	case a.App != nil:
		a.runApp(p, e)
	default:
		a.Host.Send(p)
	}
	return netsim.Consume
}

// ingressChainSYN establishes this hop of the chain when a SYN carrying a
// Dysco payload arrives (§2.1). Returns handled=false for non-Dysco SYNs.
func (a *Agent) ingressChainSYN(p *packet.Packet) (netsim.Verdict, bool) {
	sp, isDysco, err := decodeSynPayload(p.Payload)
	if !isDysco {
		return netsim.Pass, false
	}
	if err != nil {
		return netsim.Drop, true
	}
	if e := a.ingress[p.Tuple]; e != nil {
		// SYN retransmission: the entries exist. Dysco metadata never
		// reaches applications.
		p.Payload = nil
		return a.rewriteIn(p, e), true
	}
	if len(sp.List) == 0 || sp.List[0] != a.Host.Addr {
		// Misrouted chain SYN.
		return netsim.Drop, true
	}
	sess := a.openSession(&Session{
		IDLeft:    sp.Session,
		IDRight:   sp.Session,
		LeftHost:  p.Tuple.SrcIP,
		SubLeft:   p.Tuple,
		Remainder: sp.List[1:],
	}, "chain-syn", 0)
	a.Stats.SessionsOpened++
	final := len(sess.Remainder) == 0
	// Ingress: left subsession → session header.
	in := a.install(a.ingress, p.Tuple, &rewriteEntry{
		Rule: Rule{To: sp.Session}, sess: sess, dirRight: true,
		deliver: final || a.App == nil, anchorTrack: final,
	})
	// Egress for the reverse direction: session reverse → left subsession
	// reverse.
	a.install(a.egress, sp.Session.Reverse(), &rewriteEntry{
		Rule: Rule{To: p.Tuple.Reverse()}, sess: sess, dirRight: false, anchorTrack: final,
	})
	if final {
		sess.wsOfferLocal = -1 // filled when the SYN-ACK passes on egress
	}
	// Strip the Dysco payload before anything above sees it.
	p.Payload = nil
	return a.rewriteIn(p, in), true
}

// runApp pushes a rewritten packet through the local middlebox application
// and re-emits its outputs (which traverse the egress hook and get mapped
// onto the next subsession).
func (a *Agent) runApp(p *packet.Packet, e *rewriteEntry) {
	dir := netsim.Ingress
	if p.Flags.Has(packet.FlagSYN) && !p.Flags.Has(packet.FlagACK) && e.dirRight {
		// Tag forward SYNs through the app so a five-tuple-modifying app
		// (NAT) can be matched on the way out (§2.1).
		tag := a.nextTag
		a.nextTag++
		p.Opts.HasDyscoTag = true
		p.Opts.DyscoTag = tag
		a.tagged[tag] = e.sess
		a.Stats.TagsApplied++
	}
	if !e.dirRight {
		dir = netsim.Egress // reverse direction flows "back" through the app
	}
	for _, out := range a.App.Process(p, dir) {
		a.Host.Send(out)
	}
}

// ReportDelta lets a size-changing packet application (transcoder,
// ad-inserter) register its current deltas for a session so that deleting
// it fixes sequence numbers elsewhere (§3.4). The dysco_splice(fd_in,
// fd_out, delta) library call maps here.
func (a *Agent) ReportDelta(sessID packet.FiveTuple, d Deltas) error {
	sess := a.sessions[sessID]
	if sess == nil {
		return fmt.Errorf("core: ReportDelta: unknown session %v", sessID)
	}
	sess.MboxDeltas = d
	return nil
}

// removeSession drops all state for a listed session at this hop
// (idempotent). A spliced record takes its partner and both proxy
// connections with it. A key another record has taken over stays.
func (a *Agent) removeSession(sess *Session) {
	if !a.listed(sess) {
		return
	}
	for len(sess.entries) > 0 {
		a.uninstall(sess.entries[len(sess.entries)-1])
	}
	a.unbind(sess.IDLeft, sess)
	a.unbind(sess.IDRight, sess)
	a.Stats.SessionsCollected++
	a.obs.Emit(obs.Event{Kind: obs.KSessionClose, Sess: sess.IDLeft})
	if sess.Splice != nil {
		for _, c := range sess.spliceConns {
			c.Detach()
		}
		a.removeSession(sess.Splice)
	}
}

// closed reports whether sess has seen FINs both ways and then stayed
// quiet for closedQuiet: nothing is left in flight to need its state.
func (a *Agent) closed(sess *Session) bool {
	return sess.finSeen[0] && sess.finSeen[1] && a.eng.Now()-sess.lastActive > closedQuiet
}

// EachSubsession visits the installed rewrite entries in deterministic
// (direction, key five-tuple) order with their per-subsession traffic
// totals, for the observability reports.
func (a *Agent) EachSubsession(fn func(dir string, from, to packet.FiveTuple, pkts, bytes uint64)) {
	for _, side := range []struct {
		dir string
		m   map[packet.FiveTuple]*rewriteEntry
	}{{"egress", a.egress}, {"ingress", a.ingress}} {
		keys := make([]packet.FiveTuple, 0, len(side.m))
		for k := range side.m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
		for _, k := range keys {
			e := side.m[k]
			fn(side.dir, k, e.To, e.pkts, e.bytes)
		}
	}
}

// CollectIdle removes sessions idle longer than the configured timeout and
// fully-closed sessions, and force-releases locks held past LockTimeout
// (orphaned by a requestor crash or a lost cancelLock). Experiments call
// it periodically; the paper's agents time out subsessions the same way
// (§2.1). A tick costs what is due, not what is held: one read-only pass
// over the live list picks the records with work (due), and only those
// are sorted, by IDLeft as EachSession would visit them: removal and the
// forced unlock emit events, so list order would leak into the event hash.
func (a *Agent) CollectIdle() int {
	n := 0
	now := a.eng.Now()
	var due []*Session
	for _, sess := range a.live {
		if a.due(sess, now) {
			due = append(due, sess)
		}
	}
	slices.SortFunc(due, byIDLeft)
	for _, sess := range due {
		if !a.listed(sess) {
			continue // removed with its splice partner
		}
		if sess.Reconfig == nil && a.lockOrphaned(sess, now) {
			// Orphaned lock: no local anchor state references it and the
			// holder has gone quiet for longer than any legitimate attempt
			// runs. Release it and let blocked requests proceed.
			sess.setLock(Unlocked)
			a.daemon.processBlocked(sess)
		}
		if sess.Reconfig != nil {
			continue
		}
		if a.closed(sess) || a.idle(sess, now) {
			a.removeSession(sess)
			n++
		}
	}
	return n
}

// due reports whether CollectIdle has work on sess at now: the three
// conditions its body acts on, none while a reconfiguration holds sess.
func (a *Agent) due(sess *Session, now sim.Time) bool {
	return sess.Reconfig == nil && (a.lockOrphaned(sess, now) || a.closed(sess) || a.idle(sess, now))
}

// lockOrphaned reports whether sess's lock has been held past LockTimeout.
func (a *Agent) lockOrphaned(sess *Session, now sim.Time) bool {
	return a.Cfg.LockTimeout >= 0 && sess.lockState != Unlocked && now-sess.lockSince > a.Cfg.LockTimeout
}

// idle reports whether sess has seen neither a packet nor a neighbor's
// keepalive for IdleTimeout.
func (a *Agent) idle(sess *Session, now sim.Time) bool {
	return now-sess.lastActive > a.Cfg.IdleTimeout && now-sess.lastKeepalive > a.Cfg.IdleTimeout
}
