// Package fault is the deterministic fault-injection layer and the
// end-to-end safety harness built on it. A Plan is a declarative list of
// fault operations — link failures, loss bursts, duplication, reordering,
// corruption, partitions, host freezes and crash+restarts, and targeted
// control-plane message drops/delays — scheduled on the virtual clock and
// driven by a seed-derived random source, so the same (seed, plan) pair
// always produces the same fault schedule. The harness replays the
// repo's reconfiguration scenarios (proxy removal, chain replacement,
// state migration) under a sweep of seeds and plans, asserting the
// paper's safety properties (§3.7): byte streams arrive intact (P2/P4),
// every lock is eventually released, no session or reconfiguration state
// leaks after aborts (§3.6), and all sessions terminate (P5).
package fault

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// OpKind classifies one fault operation.
type OpKind int

// Fault operation kinds. Link-scoped kinds act on the target role's
// access link (optionally one direction); host-scoped kinds act on the
// whole host; ctrl-scoped kinds match individual daemon control messages
// on the wire.
const (
	// OpLinkDown takes the role's access link down for the window
	// (drops attributed to DropStats.LinkDown).
	OpLinkDown OpKind = iota
	// OpLinkLoss drops each matching packet with probability Prob.
	OpLinkLoss
	// OpLinkDup duplicates each matching packet with probability Prob.
	OpLinkDup
	// OpLinkReorder delays each matching packet by Delay with
	// probability Prob, reordering it behind its successors.
	OpLinkReorder
	// OpLinkCorrupt marks each matching packet corrupted with
	// probability Prob; the receiving host's checksum verification drops
	// it, so corruption degrades to loss.
	OpLinkCorrupt
	// OpPartition drops every packet between role groups A and B.
	OpPartition
	// OpHostFreeze makes the host drop everything it would send or
	// receive for the window; its state and timers survive.
	OpHostFreeze
	// OpHostCrash is OpHostFreeze plus a daemon restart at the end of
	// the window: the user-space daemon loses all reconfiguration state
	// while kernel session state survives (§4.1).
	OpHostCrash
	// OpCtrlDrop drops the Nth daemon control message of type Msg sent
	// by the role (any role if Host is empty) inside the window.
	OpCtrlDrop
	// OpCtrlDelay delays that message by Delay instead of dropping it.
	OpCtrlDelay
)

// numOpKinds is the number of declared operation kinds.
const numOpKinds = int(OpCtrlDelay) + 1

func (k OpKind) String() string {
	switch k {
	case OpLinkDown:
		return "linkDown"
	case OpLinkLoss:
		return "linkLoss"
	case OpLinkDup:
		return "linkDup"
	case OpLinkReorder:
		return "linkReorder"
	case OpLinkCorrupt:
		return "linkCorrupt"
	case OpPartition:
		return "partition"
	case OpHostFreeze:
		return "hostFreeze"
	case OpHostCrash:
		return "hostCrash"
	case OpCtrlDrop:
		return "ctrlDrop"
	case OpCtrlDelay:
		return "ctrlDelay"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// OpKinds returns every declared operation kind in value order.
func OpKinds() []OpKind {
	out := make([]OpKind, 0, numOpKinds)
	for k := OpKind(0); k < OpKind(numOpKinds); k++ {
		out = append(out, k)
	}
	return out
}

// Op is one fault operation inside a plan. Hosts are named by scenario
// role ("client", "server", "mid1", "mid2"), not by address, so the same
// plan applies to every scenario; an op whose role is absent from the
// scenario is skipped.
type Op struct {
	Kind OpKind
	// Host is the target role. Empty means "any role" for ctrl-scoped
	// ops and is invalid for link- and host-scoped ops.
	Host string
	// Dir restricts link-scoped ops to one direction of the access
	// link: "out" (role toward network), "in" (network toward role), or
	// "" for both.
	Dir string
	// A and B are the two role groups an OpPartition separates.
	A, B []string
	// At is when the op activates; For is how long it stays active
	// (0 = until the end of the run).
	At, For sim.Time
	// Prob is the per-packet probability for the probabilistic link ops.
	Prob float64
	// Delay is the extra latency for OpLinkReorder / OpCtrlDelay.
	Delay sim.Time
	// Msg is the control message type name ("requestLock", "ackLock",
	// "oldPathFIN", ...) a ctrl-scoped op matches.
	Msg string
	// Nth selects the Nth matching control message (1-based) within the
	// window; 0 matches every one.
	Nth int
}

// Desc renders the op as one stable human-readable line (also hashed
// into the fault schedule hash).
func (o Op) Desc() string {
	switch o.Kind {
	case OpPartition:
		return fmt.Sprintf("%v %v|%v", o.Kind, o.A, o.B)
	case OpCtrlDrop, OpCtrlDelay:
		who := o.Host
		if who == "" {
			who = "*"
		}
		return fmt.Sprintf("%v %s %s#%d", o.Kind, who, o.Msg, o.Nth)
	default:
		d := o.Dir
		if d == "" {
			d = "both"
		}
		return fmt.Sprintf("%v %s/%s", o.Kind, o.Host, d)
	}
}

// Plan is a named, declarative fault schedule.
type Plan struct {
	Name string
	// Desc is a one-line description for listings.
	Desc string
	// MayFailReconfig marks plans whose faults legitimately defeat a
	// reconfiguration attempt (crashes, partitions, sustained control
	// blackholes). The harness then only requires a clean abort — byte
	// streams intact and no leaked state — instead of success (§3.6
	// "unless the new path cannot be set up").
	MayFailReconfig bool
	Ops             []Op
}

// Validate rejects structurally bad plans before they reach a run.
func (p Plan) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("fault: plan has no name")
	}
	for i, o := range p.Ops {
		bad := func(why string) error {
			return fmt.Errorf("fault: plan %q op %d (%s): %s", p.Name, i, o.Desc(), why)
		}
		if o.Kind < 0 || o.Kind >= OpKind(numOpKinds) {
			return bad("unknown kind")
		}
		if o.At < 0 || o.For < 0 {
			return bad("negative time")
		}
		switch o.Kind {
		case OpLinkLoss, OpLinkDup, OpLinkReorder, OpLinkCorrupt:
			if o.Host == "" {
				return bad("link op needs a role")
			}
			if o.Prob <= 0 || o.Prob > 1 {
				return bad("probability out of (0,1]")
			}
			if o.Kind == OpLinkReorder && o.Delay <= 0 {
				return bad("reorder needs a positive delay")
			}
		case OpLinkDown, OpHostFreeze, OpHostCrash:
			if o.Host == "" {
				return bad("host/link op needs a role")
			}
			if o.Kind == OpHostCrash && o.For == 0 {
				return bad("crash needs a restart time (For > 0)")
			}
		case OpPartition:
			if len(o.A) == 0 || len(o.B) == 0 {
				return bad("partition needs two role groups")
			}
		case OpCtrlDrop, OpCtrlDelay:
			if !core.IsCtrlTypeName(o.Msg) {
				return bad("ctrl op needs a control message type name")
			}
			if o.Nth < 0 {
				return bad("negative Nth")
			}
			if o.Kind == OpCtrlDelay && o.Delay <= 0 {
				return bad("ctrl delay needs a positive delay")
			}
		}
		if o.Dir != "" && o.Dir != "out" && o.Dir != "in" {
			return bad(`dir must be "out", "in", or ""`)
		}
	}
	return nil
}

const ms = sim.Time(time.Millisecond)

// Builtins returns the built-in fault plans, in sweep order. Times are
// tuned to the harness scenarios: transfers start at ~0.5 ms, the
// reconfigurations run in the first tens of milliseconds.
func Builtins() []Plan {
	return []Plan{
		{
			Name: "baseline",
			Desc: "no faults (sanity: every oracle must hold trivially)",
		},
		{
			Name: "loss-burst",
			Desc: "20% loss on the client and mid1 access links during reconfiguration",
			Ops: []Op{
				{Kind: OpLinkLoss, Host: "client", At: 2 * ms, For: 60 * ms, Prob: 0.20},
				{Kind: OpLinkLoss, Host: "mid1", At: 2 * ms, For: 60 * ms, Prob: 0.20},
			},
		},
		{
			Name: "dup-reorder",
			Desc: "duplication plus reordering on both anchors' access links",
			Ops: []Op{
				{Kind: OpLinkDup, Host: "client", At: 2 * ms, For: 80 * ms, Prob: 0.10},
				{Kind: OpLinkReorder, Host: "client", At: 2 * ms, For: 80 * ms, Prob: 0.30, Delay: 500 * sim.Time(time.Microsecond)},
				{Kind: OpLinkDup, Host: "server", At: 2 * ms, For: 80 * ms, Prob: 0.10},
				{Kind: OpLinkReorder, Host: "server", At: 2 * ms, For: 80 * ms, Prob: 0.30, Delay: 500 * sim.Time(time.Microsecond)},
			},
		},
		{
			Name: "corrupt",
			Desc: "5% payload corruption on mid1's link (checksum drops, degrades to loss)",
			Ops: []Op{
				{Kind: OpLinkCorrupt, Host: "mid1", At: 2 * ms, For: 60 * ms, Prob: 0.05},
			},
		},
		{
			Name: "link-flap",
			Desc: "mid1's access link flaps down twice during the transfer",
			Ops: []Op{
				{Kind: OpLinkDown, Host: "mid1", At: 3 * ms, For: 4 * ms},
				{Kind: OpLinkDown, Host: "mid1", At: 15 * ms, For: 4 * ms},
			},
		},
		{
			Name:            "partition",
			Desc:            "client+mid1 partitioned from server+mid2 for 8 ms",
			MayFailReconfig: true,
			Ops: []Op{
				{Kind: OpPartition, A: []string{"client", "mid1"}, B: []string{"server", "mid2"}, At: 4 * ms, For: 8 * ms},
			},
		},
		{
			Name:            "crash-mid1",
			Desc:            "mid1 crashes mid-reconfiguration; daemon restarts 50 ms later",
			MayFailReconfig: true,
			Ops: []Op{
				{Kind: OpHostCrash, Host: "mid1", At: 3 * ms, For: 50 * ms},
			},
		},
		{
			Name:            "crash-client",
			Desc:            "the left anchor crashes mid-lock; daemon restarts 50 ms later",
			MayFailReconfig: true,
			Ops: []Op{
				{Kind: OpHostCrash, Host: "client", At: 4 * ms, For: 50 * ms},
			},
		},
		{
			Name: "ctrl-drop-reqlock",
			Desc: "drop the 1st and 2nd requestLock and delay an ackLock; retransmission must recover",
			Ops: []Op{
				{Kind: OpCtrlDrop, Msg: "requestLock", Nth: 1},
				{Kind: OpCtrlDrop, Msg: "requestLock", Nth: 2},
				{Kind: OpCtrlDelay, Msg: "ackLock", Nth: 1, Delay: 4 * ms},
			},
		},
		{
			Name: "ctrl-drop-fin",
			Desc: "drop the first two oldPathFIN datagrams; FIN retransmission must recover",
			Ops: []Op{
				{Kind: OpCtrlDrop, Msg: "oldPathFIN", Nth: 1},
				{Kind: OpCtrlDrop, Msg: "oldPathFIN", Nth: 2},
			},
		},
		{
			Name:            "ctrl-ack-blackhole",
			Desc:            "every ackLock vanishes past the retry budget: the attempt must abort cleanly (§3.6)",
			MayFailReconfig: true,
			Ops: []Op{
				{Kind: OpCtrlDrop, Msg: "ackLock", Nth: 0, At: 0, For: 600 * ms},
			},
		},
		{
			Name:            "ctrl-drop-ready",
			Desc:            "every stateReady vanishes past the retry budget: a state transfer must abort cleanly (§3.6)",
			MayFailReconfig: true,
			Ops: []Op{
				{Kind: OpCtrlDrop, Msg: "stateReady", Nth: 0, At: 0, For: 600 * ms},
			},
		},
	}
}

// PlanByName returns the built-in plan with the given name.
func PlanByName(name string) (Plan, bool) {
	for _, p := range Builtins() {
		if p.Name == name {
			return p, true
		}
	}
	return Plan{}, false
}
