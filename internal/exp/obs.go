package exp

import "repro/internal/obs"

// reportObs appends the observability summary rows every instrumented
// figure shares: metric histograms, loss-recovery counters, and the span
// census.
func reportObs(r *Result, hub *obs.Hub) {
	m := hub.Metrics
	if h := m.Hist(obs.MRewriteLatency); h != nil && h.N > 0 {
		r.addRow("obs %-30s %s", obs.MRewriteLatency, h.String())
	}
	if h := m.Hist(obs.MReconfigDuration); h != nil && h.N > 0 {
		r.addRow("obs %-30s %s", obs.MReconfigDuration, h.String())
	}
	for _, c := range []string{obs.MCtrlRetransmits, obs.MTCPRetransmits, obs.MTCPTimeouts} {
		if n := m.Counter(c); n > 0 {
			r.addRow("obs %-30s %d", c, n)
		}
	}
	spans := obs.BuildSpans(hub.Events())
	if len(spans) > 0 {
		done := 0
		for _, sp := range spans {
			if sp.Outcome == "done" {
				done++
			}
		}
		r.addRow("obs spans: %d reconfigurations traced, %d done", len(spans), done)
	}
}
