package obs

import (
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/sim"
)

// TestClockProperties checks the Lamport clock laws with testing/quick:
// Merge is monotone (never decreases the clock), idempotent, and
// commutative, and Tick is strictly increasing and strictly above any
// previously merged remote value.
func TestClockProperties(t *testing.T) {
	monotone := func(local, remote uint64) bool {
		c := Clock{v: local}
		c.Merge(remote)
		return c.Now() >= local && c.Now() >= remote
	}
	if err := quick.Check(monotone, nil); err != nil {
		t.Errorf("Merge monotonicity: %v", err)
	}
	idempotent := func(local, remote uint64) bool {
		c := Clock{v: local}
		c.Merge(remote)
		once := c.Now()
		c.Merge(remote)
		return c.Now() == once
	}
	if err := quick.Check(idempotent, nil); err != nil {
		t.Errorf("Merge idempotence: %v", err)
	}
	commutative := func(local, a, b uint64) bool {
		c1, c2 := Clock{v: local}, Clock{v: local}
		c1.Merge(a)
		c1.Merge(b)
		c2.Merge(b)
		c2.Merge(a)
		return c1.Now() == c2.Now()
	}
	if err := quick.Check(commutative, nil); err != nil {
		t.Errorf("Merge commutativity: %v", err)
	}
	tickAbove := func(local, remote uint64) bool {
		if local == ^uint64(0) || remote == ^uint64(0) {
			return true // wrap: a simulation never gets near 2^64 events
		}
		c := Clock{v: local}
		c.Merge(remote)
		next := c.Tick()
		return next > local && next > remote && next == c.Now()
	}
	if err := quick.Check(tickAbove, nil); err != nil {
		t.Errorf("Tick strictly increasing: %v", err)
	}
}

// ctrlHub builds a two-host hub and plays a scripted control exchange
// through the EmitCtrlSend/EmitCtrlRecv funnels, mimicking what the core
// daemon does: the wire value returned by the send funnel is what the
// receive funnel merges.
type ctrlHub struct {
	eng  *sim.Engine
	hub  *Hub
	recs map[string]*Recorder
	addr map[string]packet.Addr
}

func newCtrlHub(hosts ...string) *ctrlHub {
	c := &ctrlHub{
		eng:  sim.NewEngine(1),
		recs: map[string]*Recorder{},
		addr: map[string]packet.Addr{},
	}
	c.hub = NewHub(c.eng)
	for i, h := range hosts {
		c.recs[h] = c.hub.Recorder(h)
		c.addr[h] = packet.MakeAddr(10, 0, 0, byte(i+1))
	}
	return c
}

// send emits a send event at from and returns a cell the wire clock is
// written into when the scheduled emission fires (the engine has not run
// yet when send returns).
func (c *ctrlHub) send(at sim.Time, from, to, typ string, reqID uint64) *uint64 {
	wire := new(uint64)
	c.eng.At(at, func() {
		*wire = c.recs[from].EmitCtrlSend(Event{
			Kind: KCtrl, ReqID: reqID, Detail: typ, Dir: "send",
			Peer: c.addr[to], Local: c.addr[from],
		})
	})
	return wire
}

// recv emits the matching receive event at to.
func (c *ctrlHub) recv(at sim.Time, from, to, typ string, reqID uint64, wire *uint64) {
	c.eng.At(at, func() {
		c.recs[to].EmitCtrlRecv(Event{
			Kind: KCtrl, ReqID: reqID, Detail: typ, Dir: "recv",
			Peer: c.addr[from], Local: c.addr[to],
		}, *wire)
	})
}

func TestBuildDAGMatchesSendRecv(t *testing.T) {
	c := newCtrlHub("a", "b")
	var w1, w2 uint64
	c.eng.At(1, func() {
		w1 = c.recs["a"].EmitCtrlSend(Event{Kind: KCtrl, ReqID: 9, Detail: "requestLock", Dir: "send", Peer: c.addr["b"], Local: c.addr["a"]})
	})
	c.recv(3, "a", "b", "requestLock", 9, &w1)
	c.eng.At(4, func() {
		w2 = c.recs["b"].EmitCtrlSend(Event{Kind: KCtrl, ReqID: 9, Detail: "ackLock", Dir: "send", Peer: c.addr["a"], Local: c.addr["b"]})
	})
	c.recv(6, "b", "a", "ackLock", 9, &w2)
	c.eng.Run(10)

	events := c.hub.Events()
	d := BuildDAG(events)
	if err := d.CheckOrder(); err != nil {
		t.Fatal(err)
	}
	if d.MessageEdges != 2 || d.DeadEndSends != 0 {
		t.Fatalf("MessageEdges=%d DeadEndSends=%d, want 2/0", d.MessageEdges, d.DeadEndSends)
	}
	// b's recv must have a message edge back to a's send, and the clocks
	// must chain: a.send lc=1, b.recv merges 1 then ticks → lc=2.
	if events[1].MsgLC != events[0].LC {
		t.Fatalf("recv MsgLC=%d, send LC=%d", events[1].MsgLC, events[0].LC)
	}
	if events[1].LC <= events[0].LC {
		t.Fatalf("recv LC=%d not above send LC=%d", events[1].LC, events[0].LC)
	}
	// The exchange closes a causal cycle a → b → a: a's final recv must be
	// above everything.
	last := events[len(events)-1]
	if last.Host != "a" || last.LC <= events[2].LC {
		t.Fatalf("final event %s not causally last", last)
	}
}

// TestBuildDAGFaultShapes covers the fault-injection cases: a dropped
// send is a dead-end node with no phantom edge, a retransmission is a
// distinct transmission matched only to its own delivery, and a
// duplicated delivery fans out from the one send that caused it.
func TestBuildDAGFaultShapes(t *testing.T) {
	c := newCtrlHub("a", "b")
	c.send(1, "a", "b", "requestLock", 9)       // dropped in flight
	w2 := c.send(5, "a", "b", "requestLock", 9) // retransmission
	c.recv(7, "a", "b", "requestLock", 9, w2)
	c.recv(8, "a", "b", "requestLock", 9, w2) // duplicated delivery
	c.eng.Run(10)

	d := BuildDAG(c.hub.Events())
	if err := d.CheckOrder(); err != nil {
		t.Fatal(err)
	}
	if d.DeadEndSends != 1 {
		t.Fatalf("DeadEndSends=%d, want 1 (the dropped transmission)", d.DeadEndSends)
	}
	if d.MessageEdges != 2 {
		t.Fatalf("MessageEdges=%d, want 2 (both deliveries of the retransmission)", d.MessageEdges)
	}
	// Both recvs must point at the retransmission (index 1), never the
	// dropped first send (index 0).
	for i, e := range d.Events {
		if e.Dir != "recv" {
			continue
		}
		msg := 0
		for _, p := range d.Preds(i) {
			if p.Kind == EdgeMessage {
				msg++
				if p.Idx != 1 {
					t.Fatalf("recv %d matched send index %d, want 1", i, p.Idx)
				}
			}
		}
		if msg != 1 {
			t.Fatalf("recv %d has %d message edges", i, msg)
		}
	}
}

func TestDagHashDistinguishesEdges(t *testing.T) {
	build := func(deliver bool) *DAG {
		c := newCtrlHub("a", "b")
		w := c.send(1, "a", "b", "requestLock", 9)
		if deliver {
			c.recv(3, "a", "b", "requestLock", 9, w)
		} else {
			// Same stored event shape at b, but carrying a clock that
			// matches no transmission (as if matching were broken).
			c.eng.At(3, func() {
				c.recs["b"].EmitCtrlRecv(Event{
					Kind: KCtrl, ReqID: 9, Detail: "requestLock", Dir: "recv",
					Peer: c.addr["a"], Local: c.addr["b"],
				}, 99)
			})
		}
		c.eng.Run(10)
		return BuildDAG(c.hub.Events())
	}
	matched, unmatched := build(true), build(false)
	if matched.DagHash() == unmatched.DagHash() {
		t.Fatal("DagHash must distinguish matched from unmatched edge sets")
	}
	if matched.DagHash() != build(true).DagHash() {
		t.Fatal("DagHash must be deterministic")
	}
	if matched.Edges() != unmatched.Edges()+1 {
		t.Fatalf("edges: %d vs %d", matched.Edges(), unmatched.Edges())
	}
}

func TestCheckOrderRejectsBrokenClocks(t *testing.T) {
	c := newCtrlHub("a", "b")
	w := c.send(1, "a", "b", "requestLock", 9)
	c.recv(3, "a", "b", "requestLock", 9, w)
	c.eng.Run(10)
	events := c.hub.Events()
	// Sabotage the receiver's clock below the sender's: the message edge
	// now violates the Lamport condition.
	events[1].LC = 1
	events[1].MsgLC = events[0].LC
	if err := BuildDAG(events).CheckOrder(); err == nil {
		t.Fatal("CheckOrder accepted a non-increasing clock along a message edge")
	}
}

// TestCriticalPathSynthetic scripts a three-host lock exchange with one
// slow hop and checks that the critical path follows the message chain,
// accounts the whole span, and validates.
func TestCriticalPathSynthetic(t *testing.T) {
	c := newCtrlHub("a", "b", "cst")
	reqID := uint64(9)
	// a initiates (reconfig birth), sends to b; b forwards to cst after a
	// long local delay; cst answers straight back to a.
	c.eng.At(0, func() {
		c.recs["a"].Emit(Event{Kind: KReconfig, ReqID: reqID, To: StLocking})
	})
	w1 := c.send(1, "a", "b", "requestLock", reqID)
	c.recv(2, "a", "b", "requestLock", reqID, w1)
	w2 := c.send(50, "b", "cst", "requestLock", reqID) // slow hop: 48 local
	c.recv(51, "b", "cst", "requestLock", reqID, w2)
	w3 := c.send(52, "cst", "a", "ackLock", reqID)
	c.recv(53, "cst", "a", "ackLock", reqID, w3)
	c.eng.At(53, func() {
		c.recs["a"].Emit(Event{Kind: KReconfig, ReqID: reqID, From: StLocking, To: StFailed})
	})
	c.eng.Run(60)

	spans := BuildSpans(c.hub.Events())
	if len(spans) != 1 {
		t.Fatalf("%d spans", len(spans))
	}
	sp := spans[0]
	cp := CriticalPath(sp)
	if err := cp.Validate(); err != nil {
		t.Fatalf("Validate: %v\n%s", err, cp.FormatTree())
	}
	if cp.Took() != sp.Took() {
		t.Fatalf("path took %v, span took %v", cp.Took(), sp.Took())
	}
	if cp.LocalWait+cp.MsgWait != sp.Took() {
		t.Fatalf("edge split %v+%v != %v", cp.LocalWait, cp.MsgWait, sp.Took())
	}
	// The gating hop is b's 48-tick local wait before forwarding.
	var worst Segment
	for _, seg := range cp.Segments {
		if seg.Wait > worst.Wait {
			worst = seg
		}
	}
	if worst.Event.Host != "b" || worst.Edge != "local" || worst.Wait != 48 {
		t.Fatalf("worst segment %+v, want b's 48-tick local wait\n%s", worst, cp.FormatTree())
	}
	// Byte-stable rendering.
	if cp.FormatTree() != CriticalPath(sp).FormatTree() {
		t.Fatal("FormatTree not stable")
	}
}

func TestCriticalPathValidateCatchesGaps(t *testing.T) {
	c := newCtrlHub("a", "b")
	c.eng.At(0, func() { c.recs["a"].Emit(Event{Kind: KReconfig, ReqID: 9, To: StLocking}) })
	// b's only span event is a recv whose send is missing from the span
	// (clock 77 matches nothing): the walk-back dead-ends at b, so the
	// path cannot reach the span's start.
	c.eng.At(5, func() {
		c.recs["b"].EmitCtrlRecv(Event{
			Kind: KCtrl, ReqID: 9, Detail: "requestLock", Dir: "recv",
			Peer: c.addr["a"], Local: c.addr["b"],
		}, 77)
	})
	c.eng.Run(10)
	spans := BuildSpans(c.hub.Events())
	if len(spans) != 1 {
		t.Fatalf("%d spans", len(spans))
	}
	cp := CriticalPath(spans[0])
	if err := cp.Validate(); err == nil {
		t.Fatal("Validate accepted a path that cannot reach the span start")
	}
}
