// Package obs is the observability layer: a deterministic, virtual-clock
// stamped structured event log, a metrics registry, and a span model that
// stitches one reconfiguration's events across hosts into a causal
// timeline. Instrumented packages (core, tcp) hold a per-host *Recorder
// and emit typed events at every state-machine transition, control
// message, tuple rewrite, session birth/close, and TCP loss-recovery
// action; a Hub merges the per-host logs into one deterministic stream.
//
// Two properties are load-bearing:
//
//   - Nil-safety. Every Recorder (and Metrics/Histogram) method is a no-op
//     on a nil receiver, so instrumentation sites call unconditionally and
//     the disabled configuration adds zero allocations to the packet hot
//     path (events are plain values built on the caller's stack).
//
//   - Determinism. Events are stamped with the engine's virtual clock and
//     a per-recorder sequence number; the merged stream is ordered by
//     (time, host, seq), which is a total order. Two runs of the same
//     scenario with the same seed produce byte-identical logs, and the
//     determinism regression tests compare exactly Hub.Hash.
package obs

import (
	"fmt"
	"strings"

	"repro/internal/packet"
	"repro/internal/sim"
)

// Kind classifies an event. Every variant must have at least one emitter
// outside this package — dyscolint's obsexhaust rule enforces it, so the
// event taxonomy can never silently lag the code it describes.
type Kind uint8

// Event kinds. Values start at 1 so the zero Event is recognizably unset.
const (
	// KLock is a subsession lock-machine transition (setLock, §3.2).
	KLock Kind = iota + 1
	// KReconfig is a per-anchor reconfiguration-machine transition
	// (setState); From == "" marks the anchor's birth state.
	KReconfig
	// KCtrl is a daemon control message; Detail is the message type and
	// Dir "send" or "recv".
	KCtrl
	// KSessionOpen is a Dysco session coming into existence at a host.
	KSessionOpen
	// KSessionClose is a session being garbage-collected.
	KSessionClose
	// KRewrite is a data-path five-tuple rewrite; Dir is the hook side.
	KRewrite
	// KRetransmit is a TCP retransmission (fast or bulk).
	KRetransmit
	// KRTO is a TCP retransmission-timeout firing.
	KRTO
	// KFault is an injected fault taking effect (internal/fault); Detail
	// names the fault operation, Dir is "inject" or "clear".
	KFault
)

// kindCount is the number of declared kinds.
const kindCount = int(KFault)

func (k Kind) String() string {
	switch k {
	case KLock:
		return "lock"
	case KReconfig:
		return "reconfig"
	case KCtrl:
		return "ctrl"
	case KSessionOpen:
		return "session-open"
	case KSessionClose:
		return "session-close"
	case KRewrite:
		return "rewrite"
	case KRetransmit:
		return "retransmit"
	case KRTO:
		return "rto"
	case KFault:
		return "fault"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kinds returns all declared kinds in value order.
func Kinds() []Kind {
	out := make([]Kind, 0, kindCount)
	for k := KLock; int(k) <= kindCount; k++ {
		out = append(out, k)
	}
	return out
}

// Event is one structured observation. Time, Host, Seq, and LC are
// assigned by the Recorder at emit time; emitters fill the rest. All
// fields are values (strings are shared constants), so building an Event
// never allocates.
type Event struct {
	Time sim.Time
	Host string
	// Seq is the per-recorder emission index: (Time, Host, Seq) totally
	// orders the merged stream.
	Seq  uint64
	Kind Kind
	// LC is the host's Lamport clock at emission: every stored event
	// ticks the clock, and control-message receipt merges the sender's
	// clock first, so LC strictly increases along every happens-before
	// edge (program order and send→recv). Stamped by Emit.
	LC uint64
	// MsgLC is, for KCtrl receive events, the Lamport clock the received
	// datagram carried on the wire — the LC of the matching send event.
	// The causal DAG matches send→recv edges on it (EmitCtrlRecv).
	MsgLC uint64
	// Local is the emitting host's own address for KCtrl events; with
	// Peer it names the (sender, receiver) address pair that identifies
	// a message's endpoints without a name↔address table.
	Local packet.Addr
	// Sess identifies the session (IDLeft for Dysco sessions, the local
	// tuple for TCP events); zero when not session-scoped.
	Sess packet.FiveTuple
	// ReqID ties the event to one reconfiguration (0 = none); spans are
	// stitched on it.
	ReqID uint64
	// From/To are state names for KLock/KReconfig transitions.
	From, To string
	// Detail is kind-specific: control message type, session origin, etc.
	Detail string
	// Dir is "send"/"recv" for KCtrl and "egress"/"ingress" for KRewrite.
	Dir string
	// Peer is the remote daemon for KCtrl (0 = none).
	Peer packet.Addr
	// Bytes is the payload size for KRewrite/KRetransmit/KRTO.
	Bytes int
}

// String renders the event as one aligned text line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12v %-10s %-13s", e.Time, e.Host, e.Kind)
	if e.LC != 0 {
		fmt.Fprintf(&b, " lc=%d", e.LC)
	}
	if e.MsgLC != 0 {
		fmt.Fprintf(&b, " mlc=%d", e.MsgLC)
	}
	if e.ReqID != 0 {
		fmt.Fprintf(&b, " rc=%d", e.ReqID)
	}
	if e.From != "" || e.To != "" {
		fmt.Fprintf(&b, " %s->%s", e.From, e.To)
	}
	if e.Dir != "" {
		fmt.Fprintf(&b, " %s", e.Dir)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " %s", e.Detail)
	}
	if e.Peer != 0 {
		fmt.Fprintf(&b, " peer=%v", e.Peer)
	}
	if e.Sess != (packet.FiveTuple{}) {
		fmt.Fprintf(&b, " sess=%v", e.Sess)
	}
	if e.Bytes != 0 {
		fmt.Fprintf(&b, " bytes=%d", e.Bytes)
	}
	return b.String()
}

// DefaultLimit bounds stored events per recorder when no explicit limit
// is set; counts keep accumulating past it.
const DefaultLimit = 200_000

// Clock is a Lamport logical clock: Tick before (or at) every local
// event, Merge with the remote value carried by every received message.
// Together they make the clock consistent with happens-before — if a
// causally precedes b then a's LC is strictly below b's — while staying
// a single uint64 with no allocation or wall-time dependence, so ticking
// it on the packet hot path is free.
type Clock struct {
	v uint64
}

// Tick advances the clock for a local event and returns the new value.
func (c *Clock) Tick() uint64 {
	c.v++
	return c.v
}

// Merge folds a remote clock value in: the local clock becomes at least
// remote, so the next Tick produces a value strictly above both. Merging
// is monotone, idempotent, and commutative (max).
func (c *Clock) Merge(remote uint64) {
	if remote > c.v {
		c.v = remote
	}
}

// Now returns the current clock value without ticking.
func (c *Clock) Now() uint64 { return c.v }

// Recorder is the per-host event sink. The zero value is not usable;
// obtain one from Hub.Recorder. A nil *Recorder is a valid disabled
// recorder: every method is a no-op.
type Recorder struct {
	eng  *sim.Engine
	hub  *Hub
	host string

	// disabled is a bitmask over Kind values (bit k = Kind k off).
	disabled uint32
	limit    int
	events   []Event
	seq      uint64
	// clock is this host's Lamport clock: ticked by every counted
	// emission, merged by EmitCtrlRecv with the value each control
	// datagram piggybacks.
	clock Clock
	// counts[k] counts emissions of Kind k, including those dropped by
	// the storage limit (so counters stay exact under truncation).
	counts    [kindCount + 1]uint64
	truncated bool
}

// Emit records e, stamping it with the current virtual time, this
// recorder's host, and the next sequence number. No-op on a nil receiver
// or a disabled kind. An out-of-range kind panics: it means an emitter
// predates the taxonomy, which obsexhaust should have caught.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	if e.Kind == 0 || int(e.Kind) > kindCount {
		panic(fmt.Sprintf("obs: emit of invalid kind %d", int(e.Kind)))
	}
	if r.disabled&(1<<e.Kind) != 0 {
		return
	}
	r.counts[e.Kind]++
	// The clock ticks even when storage is full: wire clock values
	// (EmitCtrlSend) must stay unique and increasing per host whether or
	// not the event survived truncation.
	r.clock.Tick()
	if len(r.events) >= r.limit {
		r.truncated = true
		return
	}
	e.Time = r.eng.Now()
	e.Host = r.host
	e.Seq = r.seq
	e.LC = r.clock.Now()
	r.seq++
	// Event storage is the recorder's one deliberate allocation: nil and
	// disabled-kind recorders return before reaching it, which is the
	// configuration TestRewritePathZeroAlloc pins at zero allocs per
	// rewrite.
	r.events = append(r.events, e)
}

// EmitCtrlSend is the blessed funnel for control-message send events: it
// records e (ticking the clock) and returns the clock value the caller
// must piggyback on the outgoing datagram. The returned value equals the
// stored event's LC, which is what lets the hub match the receiver's
// MsgLC back to exactly this transmission — a retransmission goes
// through the funnel again and gets a fresh, distinguishable value.
// Returns 0 on a nil receiver (observability off: the wire carries a
// zero clock, and Merge with zero is a no-op at the receiver).
//
// dyscolint's obsexhaust rule enforces that KCtrl event literals are
// built only inside calls to this funnel (or EmitCtrlRecv): a raw
// Emit(Event{Kind: KCtrl, …}) would leave the wire clock unstamped and
// the causal DAG unable to match the edge.
func (r *Recorder) EmitCtrlSend(e Event) uint64 {
	if r == nil {
		return 0
	}
	r.Emit(e)
	return r.clock.Now()
}

// EmitCtrlRecv is the blessed funnel for control-message receive events:
// it merges the clock value the datagram carried (wireLC), stamps it
// into the event's MsgLC for send→recv edge matching, and records the
// event — whose own LC, ticked after the merge, is therefore strictly
// above the matching send's. No-op on a nil receiver.
func (r *Recorder) EmitCtrlRecv(e Event, wireLC uint64) {
	if r == nil {
		return
	}
	r.clock.Merge(wireLC)
	e.MsgLC = wireLC
	r.Emit(e)
}

// Disable turns the given kinds off (events are neither stored nor
// counted). Used to keep per-packet kinds out of long runs.
func (r *Recorder) Disable(kinds ...Kind) {
	if r == nil {
		return
	}
	for _, k := range kinds {
		r.disabled |= 1 << k
	}
}

// Enable turns the given kinds back on.
func (r *Recorder) Enable(kinds ...Kind) {
	if r == nil {
		return
	}
	for _, k := range kinds {
		r.disabled &^= 1 << k
	}
}

// SetLimit bounds stored events; 0 restores DefaultLimit. Older events
// are kept and newer ones dropped.
func (r *Recorder) SetLimit(n int) {
	if r == nil {
		return
	}
	if n <= 0 {
		n = DefaultLimit
	}
	r.limit = n
}

// Truncated reports whether the storage limit dropped events.
func (r *Recorder) Truncated() bool { return r != nil && r.truncated }

// Events returns this recorder's events in emission order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Count returns the number of emissions of kind k (exact even when
// storage truncated).
func (r *Recorder) Count(k Kind) uint64 {
	if r == nil || k == 0 || int(k) > kindCount {
		return 0
	}
	return r.counts[k]
}

// Host returns the host name this recorder stamps on events.
func (r *Recorder) Host() string {
	if r == nil {
		return ""
	}
	return r.host
}

// Metrics returns the hub's shared metrics registry (nil for a nil
// recorder, so callers can resolve histograms unconditionally).
func (r *Recorder) Metrics() *Metrics {
	if r == nil {
		return nil
	}
	return r.hub.Metrics
}
