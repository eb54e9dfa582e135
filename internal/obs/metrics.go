package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Metrics is a registry of named counters and fixed-bucket histograms
// for hot-path costs: rewrite latency, reconfiguration start→done
// duration, retransmission counts, per-subsession packet/byte totals.
// All methods are nil-safe, and hot paths should resolve a *Histogram
// once (Histogram method) and observe through the pointer rather than
// paying a map lookup per packet.
type Metrics struct {
	counters map[string]uint64
	hists    map[string]*stats.Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]uint64),
		hists:    make(map[string]*stats.Histogram),
	}
}

// Add increments counter name by d.
func (m *Metrics) Add(name string, d uint64) {
	if m == nil {
		return
	}
	m.counters[name] += d
}

// Counter returns the current value of counter name (0 if absent).
func (m *Metrics) Counter(name string) uint64 {
	if m == nil {
		return 0
	}
	return m.counters[name]
}

// Histogram returns the histogram registered under name, creating it
// with the given bounds on first use. Re-registration with different
// bounds panics: bucket layout is part of a metric's identity.
func (m *Metrics) Histogram(name string, bounds ...float64) *stats.Histogram {
	if m == nil {
		return nil
	}
	if h, ok := m.hists[name]; ok {
		if len(bounds) != 0 && len(bounds) != len(h.Bounds) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with %d bounds, had %d", name, len(bounds), len(h.Bounds)))
		}
		return h
	}
	h := stats.NewHistogram(bounds...)
	m.hists[name] = h
	return h
}

// Hist returns the histogram named name, or nil if never registered.
func (m *Metrics) Hist(name string) *stats.Histogram {
	if m == nil {
		return nil
	}
	return m.hists[name]
}

// CounterNames returns registered counter names, sorted.
func (m *Metrics) CounterNames() []string {
	if m == nil {
		return nil
	}
	out := make([]string, 0, len(m.counters))
	for name := range m.counters {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// HistNames returns registered histogram names, sorted.
func (m *Metrics) HistNames() []string {
	if m == nil {
		return nil
	}
	out := make([]string, 0, len(m.hists))
	for name := range m.hists {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Clone deep-copies the registry (nil-safe).
func (m *Metrics) Clone() *Metrics {
	c := NewMetrics()
	if m == nil {
		return c
	}
	for _, name := range m.CounterNames() {
		c.counters[name] = m.counters[name]
	}
	for _, name := range m.HistNames() {
		c.hists[name] = m.hists[name].Clone()
	}
	return c
}

// Merge folds o into m: counters add, histograms merge (layouts must
// match; absent names are cloned in).
func (m *Metrics) Merge(o *Metrics) error {
	if m == nil || o == nil {
		return nil
	}
	for _, name := range o.CounterNames() {
		m.counters[name] += o.counters[name]
	}
	for _, name := range o.HistNames() {
		if h, ok := m.hists[name]; ok {
			if err := h.Merge(o.hists[name]); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		} else {
			m.hists[name] = o.hists[name].Clone()
		}
	}
	return nil
}

// Dump renders the registry as aligned text, names sorted.
func (m *Metrics) Dump() string {
	if m == nil {
		return ""
	}
	var b strings.Builder
	for _, name := range m.CounterNames() {
		fmt.Fprintf(&b, "%-34s %d\n", name, m.counters[name])
	}
	for _, name := range m.HistNames() {
		fmt.Fprintf(&b, "%-34s %s\n", name, m.hists[name].String())
	}
	return b.String()
}

// histJSON is the stable wire form of a histogram summary.
type histJSON struct {
	N        uint64    `json:"n"`
	Mean     float64   `json:"mean"`
	P50      float64   `json:"p50"`
	P90      float64   `json:"p90"`
	P99      float64   `json:"p99"`
	Min      float64   `json:"min"`
	Max      float64   `json:"max"`
	Overflow uint64    `json:"overflow"`
	Bounds   []float64 `json:"bounds"`
	Counts   []uint64  `json:"counts"`
}

// metricsJSON is the stable wire form of the registry. encoding/json
// sorts map keys, so the output is deterministic.
type metricsJSON struct {
	Counters   map[string]uint64   `json:"counters"`
	Histograms map[string]histJSON `json:"histograms"`
}

// MarshalJSON renders the registry as one JSON object (deterministic:
// object keys are sorted by the encoder). Nil-safe, so composite report
// structs can embed a possibly-nil *Metrics.
func (m *Metrics) MarshalJSON() ([]byte, error) {
	out := metricsJSON{
		Counters:   map[string]uint64{},
		Histograms: map[string]histJSON{},
	}
	if m != nil {
		for _, name := range m.CounterNames() {
			out.Counters[name] = m.counters[name]
		}
		for _, name := range m.HistNames() {
			h := m.hists[name]
			out.Histograms[name] = histJSON{
				N:        h.N,
				Mean:     h.Mean(),
				P50:      h.Quantile(0.50),
				P90:      h.Quantile(0.90),
				P99:      h.Quantile(0.99),
				Min:      h.Min,
				Max:      h.Max,
				Overflow: h.Overflow(),
				Bounds:   h.Bounds,
				Counts:   h.Counts,
			}
		}
	}
	return json.Marshal(out)
}

// WriteJSON writes the registry as one indented JSON object.
func (m *Metrics) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// Canonical metric and bucket names shared by the instrumented packages
// and the reporting tools.
const (
	// MRewriteLatency is the per-packet rewrite cost in nanoseconds,
	// including CPU queueing (core.Agent).
	MRewriteLatency = "rewrite_latency_ns"
	// MReconfigDuration is reconfiguration start→done in milliseconds
	// (core daemon).
	MReconfigDuration = "reconfig_duration_ms"
	// MCtrlRetransmits counts control-plane retransmissions.
	MCtrlRetransmits = "ctrl_retransmits"
	// MTCPRetransmits / MTCPTimeouts count TCP loss-recovery actions.
	MTCPRetransmits = "tcp_retransmits"
	MTCPTimeouts    = "tcp_rtos"
	// MDataplaneHits / MDataplaneMisses count concurrent rewrite-table
	// lookups that matched / missed (internal/dataplane).
	MDataplaneHits   = "dataplane_lookup_hits"
	MDataplaneMisses = "dataplane_lookup_misses"
	// MDataplaneShardEntries is the per-shard entry count distribution
	// at report time — the load-balance view of FiveTuple.Hash.
	MDataplaneShardEntries = "dataplane_shard_entries"
)

// RewriteLatencyBounds are the default buckets for MRewriteLatency:
// 64 ns doubling to ~1 ms.
func RewriteLatencyBounds() []float64 { return stats.ExpBounds(64, 2, 14) }

// ReconfigDurationBounds are the default buckets for MReconfigDuration:
// 0.25 ms doubling to ~2 s.
func ReconfigDurationBounds() []float64 { return stats.ExpBounds(0.25, 2, 13) }

// DataplaneOccupancyBounds are the default buckets for
// MDataplaneShardEntries: 1 entry doubling to ~1M.
func DataplaneOccupancyBounds() []float64 { return stats.ExpBounds(1, 2, 21) }
