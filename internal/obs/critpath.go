package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/sim"
)

// Critical-path extraction: given one reconfiguration span and its
// happens-before DAG, find the longest causal chain from lock initiation
// to the span's last event. Every root-to-end chain in the DAG spans the
// same wall interval — what distinguishes the critical one is that every
// hop is the *gating* predecessor, the event the next one actually
// waited for. Walking back from the last event and always picking the
// latest-arriving predecessor yields exactly that chain: each segment's
// wait is real (the successor could not have fired earlier), so the
// waits sum to the span's Took() and attribute it host-by-host,
// message-by-message, phase-by-phase.

// Segment is one hop of a critical path: the event reached, how it was
// reached (Edge), how long it waited behind its gating predecessor, and
// the span phase the wait is attributed to (the phase holding the
// segment's own event).
type Segment struct {
	Event Event
	// Wait is Event.Time minus the previous segment's event time; 0 for
	// the first segment.
	Wait sim.Time
	// Edge is "start" for the first segment, else "local" (program
	// order) or "msg" (control-message delivery).
	Edge string
	// Phase is the span phase the wait falls in ("" outside all phases).
	Phase string
}

// PhaseWait is the total critical-path wait attributed to one phase.
type PhaseWait struct {
	Name string
	Wait sim.Time
}

// CritPath is the critical path of one reconfiguration span.
type CritPath struct {
	Span     *Span
	Segments []Segment
	// PhaseWaits aggregates segment waits per phase, in span phase
	// order (phases with zero wait are kept so the decomposition is
	// complete).
	PhaseWaits []PhaseWait
	// LocalWait and MsgWait split the total by edge kind.
	LocalWait sim.Time
	MsgWait   sim.Time

	dag  *DAG
	idxs []int32
}

// Took returns the path's end-to-end duration (equals Span.Took when
// the path is valid).
func (cp *CritPath) Took() sim.Time {
	if len(cp.Segments) == 0 {
		return 0
	}
	return cp.Segments[len(cp.Segments)-1].Event.Time - cp.Segments[0].Event.Time
}

// CriticalPath extracts the span's critical path. The DAG is built from
// the span's own events: ReqID stitching guarantees they are closed
// under the control messages of this reconfiguration, and the trigger
// datagram (ReqID 0) is deliberately outside — the span's clock starts
// at the initiator's first local event.
func CriticalPath(sp *Span) *CritPath {
	cp := &CritPath{Span: sp, dag: BuildDAG(sp.Events)}
	if len(sp.Events) == 0 {
		return cp
	}
	// Walk back from the last event, always to the latest-arriving
	// predecessor. Ties (equal times) prefer the message edge — the
	// remote event is the cause worth surfacing — then the later event
	// in merged order. Both rules are total, so the path is
	// deterministic.
	at := int32(len(sp.Events) - 1)
	var edges []string // edges[j] is the kind of the path edge INTO idxs[j]
	for {
		cp.idxs = append(cp.idxs, at)
		var best *Pred
		preds := cp.dag.Preds(int(at))
		for i := range preds {
			p := &preds[i]
			if best == nil {
				best = p
				continue
			}
			pt, bt := cp.dag.Events[p.Idx].Time, cp.dag.Events[best.Idx].Time
			if pt > bt ||
				(pt == bt && p.Kind == EdgeMessage && best.Kind != EdgeMessage) ||
				(pt == bt && p.Kind == best.Kind && p.Idx > best.Idx) {
				best = p
			}
		}
		if best == nil {
			edges = append(edges, "start")
			break
		}
		edges = append(edges, best.Kind.String())
		at = best.Idx
	}
	// Reverse into forward order and fill segments.
	for i, j := 0, len(cp.idxs)-1; i < j; i, j = i+1, j-1 {
		cp.idxs[i], cp.idxs[j] = cp.idxs[j], cp.idxs[i]
		edges[i], edges[j] = edges[j], edges[i]
	}
	var prev sim.Time
	for i, idx := range cp.idxs {
		e := sp.Events[idx]
		seg := Segment{Event: e, Edge: edges[i]}
		if i > 0 {
			seg.Wait = e.Time - prev
		}
		if pi := sp.phaseOf(e.Time); pi >= 0 {
			seg.Phase = sp.Phases[pi].Name
		}
		prev = e.Time
		cp.Segments = append(cp.Segments, seg)
	}
	for _, ph := range sp.Phases {
		cp.PhaseWaits = append(cp.PhaseWaits, PhaseWait{Name: ph.Name})
	}
	for _, seg := range cp.Segments[1:] {
		switch seg.Edge {
		case "msg":
			cp.MsgWait += seg.Wait
		default:
			cp.LocalWait += seg.Wait
		}
		for i := range cp.PhaseWaits {
			if cp.PhaseWaits[i].Name == seg.Phase {
				cp.PhaseWaits[i].Wait += seg.Wait
			}
		}
	}
	return cp
}

// Validate checks that the path is a genuine causal chain accounting
// for the whole span: it starts at the span's first event, ends at its
// last, every consecutive pair is connected by a program-order or
// send→recv edge of the span's DAG, and the segment waits sum to
// exactly Took(). Any violation means a bug in edge matching or clock
// stamping, not a property of the run.
func (cp *CritPath) Validate() error {
	sp := cp.Span
	if len(cp.Segments) == 0 {
		return fmt.Errorf("obs: critical path of rc=%d is empty", sp.ReqID)
	}
	first, last := cp.Segments[0].Event, cp.Segments[len(cp.Segments)-1].Event
	if first.Time != sp.Start {
		return fmt.Errorf("obs: critical path of rc=%d starts at %v, span starts at %v (root %s unreachable from span start)",
			sp.ReqID, first.Time, sp.Start, first)
	}
	if last.Time != sp.End {
		return fmt.Errorf("obs: critical path of rc=%d ends at %v, span ends at %v", sp.ReqID, last.Time, sp.End)
	}
	var sum sim.Time
	for _, seg := range cp.Segments {
		sum += seg.Wait
	}
	if sum != sp.Took() {
		return fmt.Errorf("obs: critical path waits of rc=%d sum to %v, span took %v", sp.ReqID, sum, sp.Took())
	}
	for i := 1; i < len(cp.idxs); i++ {
		u, v := cp.idxs[i-1], cp.idxs[i]
		connected := false
		for _, p := range cp.dag.Preds(int(v)) {
			if p.Idx == u {
				connected = true
				break
			}
		}
		if !connected {
			return fmt.Errorf("obs: critical path of rc=%d has no edge %s -> %s",
				sp.ReqID, cp.dag.Events[u], cp.dag.Events[v])
		}
	}
	return nil
}

// FormatTree renders the path as byte-stable text: a header, the
// per-phase wait decomposition, then one line per segment.
func (cp *CritPath) FormatTree() string {
	var b strings.Builder
	sp := cp.Span
	fmt.Fprintf(&b, "critical rc=%d outcome=%s took=%v segments=%d local=%v msg=%v\n",
		sp.ReqID, sp.Outcome, cp.Took(), len(cp.Segments), cp.LocalWait, cp.MsgWait)
	for _, pw := range cp.PhaseWaits {
		fmt.Fprintf(&b, "  phase %-15s wait=%v\n", pw.Name, pw.Wait)
	}
	for _, seg := range cp.Segments {
		fmt.Fprintf(&b, "  %-5s +%-12v %s\n", seg.Edge, seg.Wait, seg.Event.String())
	}
	return b.String()
}

// critPathJSON is the stable wire form of a critical path.
type critPathJSON struct {
	ReqID      uint64          `json:"reqid"`
	Outcome    string          `json:"outcome"`
	Took       int64           `json:"took"`
	LocalWait  int64           `json:"local_wait"`
	MsgWait    int64           `json:"msg_wait"`
	PhaseWaits []phaseWaitJSON `json:"phase_waits"`
	Segments   []segmentJSON   `json:"segments"`
}

type phaseWaitJSON struct {
	Name string `json:"name"`
	Wait int64  `json:"wait"`
}

type segmentJSON struct {
	Wait  int64  `json:"wait"`
	Edge  string `json:"edge"`
	Phase string `json:"phase,omitempty"`
	Event Event  `json:"event"`
}

// MarshalJSON renders the path in the shared JSON schema.
func (cp *CritPath) MarshalJSON() ([]byte, error) {
	j := critPathJSON{
		ReqID:      cp.Span.ReqID,
		Outcome:    cp.Span.Outcome,
		Took:       int64(cp.Took()),
		LocalWait:  int64(cp.LocalWait),
		MsgWait:    int64(cp.MsgWait),
		PhaseWaits: []phaseWaitJSON{},
		Segments:   []segmentJSON{},
	}
	for _, pw := range cp.PhaseWaits {
		j.PhaseWaits = append(j.PhaseWaits, phaseWaitJSON{Name: pw.Name, Wait: int64(pw.Wait)})
	}
	for _, seg := range cp.Segments {
		j.Segments = append(j.Segments, segmentJSON{
			Wait: int64(seg.Wait), Edge: seg.Edge, Phase: seg.Phase, Event: seg.Event,
		})
	}
	return json.Marshal(j)
}

// WriteCritPathsJSON writes critical paths as JSON lines.
func WriteCritPathsJSON(w io.Writer, cps []*CritPath) error {
	for _, cp := range cps {
		b, err := json.Marshal(cp)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}
