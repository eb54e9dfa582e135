package lab_test

import (
	"bytes"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// observedRun replays the fault registry's chain scenario at its Inspect
// size, per-packet events stored too, and returns the hub.
func observedRun(t *testing.T, seed int64) *obs.Hub {
	t.Helper()
	sc, _ := fault.ScenarioByName("chain")
	run := sc.Build(seed, sc.Inspect)
	run.StorePerPacket()
	run.Start()
	run.Run()
	if v := run.Violations(); len(v) > 0 {
		t.Fatalf("seed %d: %v", seed, v)
	}
	return run.Env.Hub()
}

// TestObservedReconfigSpan is the acceptance test of the observability
// layer: one middlebox replacement must produce a reconfiguration span
// whose lock → state-transfer → switchover → drain phases have monotone
// virtual timestamps and whose events come from at least three hosts,
// with the instrumented metrics populated alongside.
func TestObservedReconfigSpan(t *testing.T) {
	hub := observedRun(t, 7)
	events := hub.Events()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	for i := 1; i < len(events); i++ {
		if events[i].Time < events[i-1].Time {
			t.Fatalf("merged stream not time-ordered at %d", i)
		}
	}
	if hub.Truncated() {
		t.Fatal("event storage truncated; raise the limit")
	}

	spans := obs.BuildSpans(events)
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Outcome != "done" {
		t.Fatalf("outcome %q:\n%s", sp.Outcome, sp.FormatTree())
	}
	if sp.LeftAnchor != "client" || sp.RightAnchor != "server" {
		t.Fatalf("anchors %q/%q", sp.LeftAnchor, sp.RightAnchor)
	}
	if len(sp.Hosts) < 3 {
		t.Fatalf("span touched %v, want >= 3 hosts", sp.Hosts)
	}
	want := []string{obs.PhaseLock, obs.PhaseStateTransfer, obs.PhaseSwitchover, obs.PhaseDrain}
	if len(sp.Phases) != len(want) {
		t.Fatalf("phases %+v", sp.Phases)
	}
	for i, ph := range sp.Phases {
		if ph.Name != want[i] {
			t.Fatalf("phase %d = %q, want %q", i, ph.Name, want[i])
		}
		if ph.End < ph.Start {
			t.Fatalf("phase %q runs backwards: %+v", ph.Name, ph)
		}
		if i > 0 && ph.Start != sp.Phases[i-1].End {
			t.Fatalf("phases not contiguous at %d", i)
		}
	}

	// Event taxonomy coverage: the scenario exercises every Dysco kind.
	for _, k := range []obs.Kind{obs.KLock, obs.KReconfig, obs.KCtrl, obs.KSessionOpen, obs.KRewrite} {
		if hub.Count(k) == 0 {
			t.Errorf("no %v events recorded", k)
		}
	}

	// Metrics: the rewrite path and the reconfiguration duration were
	// instrumented on the way through.
	m := hub.Metrics
	if h := m.Hist(obs.MRewriteLatency); h == nil || h.N == 0 {
		t.Fatal("rewrite latency histogram empty")
	}
	if h := m.Hist(obs.MReconfigDuration); h == nil || h.N != 1 {
		t.Fatalf("reconfig duration histogram: %v", h)
	}
}

// TestSameSeedSameEvents extends the determinism regression to the event
// stream: same seed → equal hashes, byte-identical JSON and the same
// happens-before DAG.
func TestSameSeedSameEvents(t *testing.T) {
	h1 := observedRun(t, 7)
	h2 := observedRun(t, 7)
	if h1.Hash() != h2.Hash() {
		t.Fatalf("same seed produced different event streams:\nrun1:\n%s\nrun2:\n%s",
			head(h1.Dump(), 40), head(h2.Dump(), 40))
	}
	var b1, b2 bytes.Buffer
	if err := h1.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := h2.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("same seed produced different JSON event logs")
	}
	if d1, d2 := obs.BuildDAG(h1.Events()).DagHash(), obs.BuildDAG(h2.Events()).DagHash(); d1 != d2 {
		t.Fatalf("same seed produced different happens-before DAGs: %x vs %x", d1, d2)
	}
	// Unlike the packet trace, the event stream is expected to coincide
	// across seeds here: randomness reaches only quantities the event
	// vocabulary abstracts away (ISNs, timestamp clocks), so no
	// different-seed divergence assertion — TestSameSeedSameTrace already
	// proves the seed reaches the scenario.
}

// TestCausalOrderSubrange is the property behind the happens-before DAG:
// on a real recorded run, every causal edge (program order and matched
// send→recv) points forward in the merged (Time, Host, Seq) total order
// with strictly increasing Lamport clocks — causal order is a subrange
// of the Hub's total order. Any violation is a bug in edge matching or
// clock stamping, so CheckOrder failing here fails the build.
func TestCausalOrderSubrange(t *testing.T) {
	for _, seed := range []int64{7, 11} {
		hub := observedRun(t, seed)
		d := obs.BuildDAG(hub.Events())
		if err := d.CheckOrder(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if d.MessageEdges == 0 {
			t.Fatalf("seed %d: no send→recv edges matched — clock piggybacking broken", seed)
		}
		// On a loss-free run every control transmission is delivered and
		// observed, so no send may dangle.
		if d.DeadEndSends != 0 {
			t.Fatalf("seed %d: %d dead-end sends on a loss-free run", seed, d.DeadEndSends)
		}
		// Every ctrl recv must have been matched back to a transmission.
		for i, e := range d.Events {
			if e.Kind != obs.KCtrl || e.Dir != "recv" {
				continue
			}
			msg := 0
			for _, p := range d.Preds(i) {
				if p.Kind == obs.EdgeMessage {
					msg++
				}
			}
			if msg != 1 {
				t.Fatalf("seed %d: recv %s has %d message edges, want 1", seed, e, msg)
			}
		}
		// Same run, same graph.
		if d.DagHash() != obs.BuildDAG(hub.Events()).DagHash() {
			t.Fatalf("seed %d: DagHash not deterministic", seed)
		}
	}
}

// TestCriticalPathOnRecordedRun pins the acceptance criterion: each
// reconfiguration span's critical path is a valid causal chain whose
// end-to-end time equals the span's Took(), crosses hosts via message
// edges, and renders byte-identically across same-seed runs.
func TestCriticalPathOnRecordedRun(t *testing.T) {
	hub := observedRun(t, 7)
	spans := obs.BuildSpans(hub.Events())
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	sp := spans[0]
	cp := obs.CriticalPath(sp)
	if err := cp.Validate(); err != nil {
		t.Fatalf("Validate: %v\n%s", err, cp.FormatTree())
	}
	if cp.Took() != sp.Took() {
		t.Fatalf("path took %v, span took %v", cp.Took(), sp.Took())
	}
	if cp.MsgWait == 0 {
		t.Fatalf("a multi-host reconfiguration must wait on messages:\n%s", cp.FormatTree())
	}
	hosts := map[string]bool{}
	for _, seg := range cp.Segments {
		hosts[seg.Event.Host] = true
	}
	if len(hosts) < 2 {
		t.Fatalf("critical path stayed on %v, want >= 2 hosts", hosts)
	}
	// Per-phase waits decompose the whole duration.
	var sum sim.Time
	for _, pw := range cp.PhaseWaits {
		sum += pw.Wait
	}
	if sum != sp.Took() {
		t.Fatalf("phase waits sum to %v, span took %v\n%s", sum, sp.Took(), cp.FormatTree())
	}
	// Determinism: an independent same-seed run renders the same path.
	hub2 := observedRun(t, 7)
	cp2 := obs.CriticalPath(obs.BuildSpans(hub2.Events())[0])
	if cp.FormatTree() != cp2.FormatTree() {
		t.Fatalf("critical path not deterministic:\n%s\nvs\n%s", cp.FormatTree(), cp2.FormatTree())
	}
}
