package exp

import (
	"fmt"
	"strings"

	"repro/internal/fault"
	"repro/internal/obs"
)

// ObsBench is the observability micro-benchmark CI runs on every change
// (dyscobench -short): a chained transfer with one mid-stream middlebox
// replacement, fully instrumented — per-packet rewrite events included —
// so the hot-path metrics are exercised end to end. It returns the hub so
// the caller can persist the metrics summary (BENCH_obs.json in CI); the
// checks guard the contract the inspector depends on: the reconfiguration
// produces exactly one completed span, the latency histograms fill, and
// the event stream is reproducible run over run.
func ObsBench(seed int64) (*Result, *obs.Hub) {
	r := &Result{Name: "obsbench", Title: "Observability micro-benchmark: instrumented chain reconfiguration"}
	hub, err := obsBenchRun(seed)
	if err != nil {
		r.check("instrumented transfer completes", false, "%v", err)
		return r, hub
	}
	events := hub.Events()
	spans := obs.BuildSpans(events)
	done := 0
	for _, sp := range spans {
		if sp.Outcome == "done" {
			done++
		}
	}
	r.addRow("events=%d (truncated=%v), spans=%d (%d done)", len(events), hub.Truncated(), len(spans), done)
	reportObs(r, hub)
	r.check("exactly one completed reconfiguration span", len(spans) == 1 && done == 1,
		"spans=%d done=%d", len(spans), done)
	h := hub.Metrics.Hist(obs.MRewriteLatency)
	r.check("rewrite latency histogram filled by the packet path", h != nil && h.N > 0,
		"hist=%v", h)
	d := hub.Metrics.Hist(obs.MReconfigDuration)
	r.check("reconfiguration duration observed once", d != nil && d.N == 1, "hist=%v", d)
	r.check("per-packet events stored (full instrumentation mode)",
		hub.Count(obs.KRewrite) > 0, "rewrites=%d", hub.Count(obs.KRewrite))

	// Causal reconstruction: the happens-before DAG must order cleanly
	// (clocks strictly increasing along every edge), match every control
	// delivery on this loss-free run, and yield a critical path per span
	// that accounts the span's whole duration.
	dag := obs.BuildDAG(events)
	orderErr := dag.CheckOrder()
	r.addRow("dag: nodes=%d edges=%d (msg=%d deadend=%d) hash=%016x",
		len(dag.Events), dag.Edges(), dag.MessageEdges, dag.DeadEndSends, dag.DagHash())
	r.check("causal order is a subrange of the merged total order", orderErr == nil, "%v", orderErr)
	r.check("every control delivery matched to its transmission",
		dag.MessageEdges > 0 && dag.DeadEndSends == 0,
		"msg=%d deadend=%d", dag.MessageEdges, dag.DeadEndSends)
	cps := make([]*obs.CritPath, 0, len(spans))
	cpOK := true
	for _, sp := range spans {
		cp := obs.CriticalPath(sp)
		if err := cp.Validate(); err != nil {
			cpOK = false
			r.addRow("critical path rc=%d invalid: %v", sp.ReqID, err)
			continue
		}
		cps = append(cps, cp)
		r.addRow("critical path rc=%d: %d segments, local=%v msg=%v of %v",
			sp.ReqID, len(cp.Segments), cp.LocalWait, cp.MsgWait, cp.Took())
	}
	r.check("critical paths are valid causal chains accounting each span's Took", cpOK, "")
	obs.ObserveCritPaths(hub.Metrics, cps)

	// Determinism regression at the event-stream level: a second run with
	// the same seed must hash identically — and so must the reconstructed
	// causal graph and the rendered critical paths.
	hub2, err := obsBenchRun(seed)
	if err != nil {
		r.check("replay run completes", false, "%v", err)
		return r, hub
	}
	r.check("same seed reproduces the event stream byte for byte",
		hub.Hash() == hub2.Hash(), "hash1=%x hash2=%x", hub.Hash(), hub2.Hash())
	dag2 := obs.BuildDAG(hub2.Events())
	r.check("same seed reproduces the happens-before DAG",
		dag.DagHash() == dag2.DagHash(), "hash1=%x hash2=%x", dag.DagHash(), dag2.DagHash())
	trees := func(spans []*obs.Span) string {
		var s string
		for _, sp := range spans {
			s += obs.CriticalPath(sp).FormatTree()
		}
		return s
	}
	r.check("same seed reproduces the critical paths byte for byte",
		trees(spans) == trees(obs.BuildSpans(hub2.Events())), "")
	return r, hub
}

// obsBenchRun executes one instrumented run of the registry's chain
// scenario at its Inspect size, per-packet events stored.
func obsBenchRun(seed int64) (*obs.Hub, error) {
	sc, _ := fault.ScenarioByName("chain")
	in := sc.Build(seed, sc.Inspect)
	in.StorePerPacket()
	in.Start()
	in.Run()
	if v := in.Violations(); len(v) > 0 {
		return in.Env.Hub(), fmt.Errorf("obsbench: %s", strings.Join(v, "; "))
	}
	return in.Env.Hub(), nil
}
