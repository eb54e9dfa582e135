package main

// Clock labels: every number the benchmark prints is one of these.
const (
	// clockHost is wall-clock (or process CPU) time on the machine running
	// the benchmark: what a person regenerating figures or running the
	// rewrite engine pays. Noisy; compared by median within a bound.
	clockHost = "host"
	// clockSim is virtual time inside the deterministic simulator: the
	// paper's quantities. Repeats exactly per seed; compared for equality.
	clockSim = "sim"
	// clockCount is an event count read from a public counter. Exact per
	// seed on the sim workloads; on the wire workloads counts that depend
	// on goroutine interleaving are labelled host instead.
	clockCount = "count"
)

// metricSpec declares one metric: its printed name, unit, direction and
// how two runs of it are compared.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare (and the driver) call it a
	// regression. Per-layer metrics have none.
	Bound float64
	Clock string
	// Moves names the end-to-end metric (and workload) a per-layer metric
	// is expected to move; written down before the first measurement.
	Moves string
	Doc   string
}

// exact reports whether the metric must repeat bit-for-bit for one seed.
func (m metricSpec) exact() bool { return m.Clock == clockSim || m.Clock == clockCount }

// workloadSpec names a workload and records why it exists.
type workloadSpec struct {
	Name string
	Why  string
}

// workloads are fixed names: later issues cite them.
var workloads = []workloadSpec{
	{"bulk_chain4", "16 bulk TCP sessions through 4 forwarders: per-packet path only (sim heap, netsim links, tcp segments, core rewrite)"},
	{"conn_churn", "closed-loop connect/request/response/close: session install, FIN tracking, idle GC - the write side of the agent tables"},
	{"proxy_removal", "200 proxied bulk sessions spliced out under load with 1% control loss: reconfiguration beside the data plane"},
	{"wire_fastpath", "2 readers, 52-byte frames, cache-resident 8k-entry table, no writers: the raw kernel and its shared atomics"},
	{"wire_churn", "1 reader over cold 1500-byte frames beside 1 Install/Remove writer: snapshot copy cost and its garbage against reads"},
}

// endToEnd are the metrics every workload reports with tracing off. The
// driver's contract wants one flat list that every workload fills with a
// non-zero measured value, so only quantities all five workloads share
// are here; the per-workload paper quantities (sim_*) are per-layer
// metrics, compared for exact equality by -compare.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Clock: clockHost,
		Doc: "host time from fresh state to the first timed window: build + warm-up (sim) or engine build + installs + frame generation (wire); median over repeats"},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25, Clock: clockHost,
		Doc: "host time of the timed window: a fixed simulated span or a fixed frame count; median over repeats"},
	{Name: "pkts_per_s", Unit: "pkt/s", Better: "higher", Bound: 0.25, Clock: clockHost,
		Doc: "sim: packets received by all hosts in the window / wall_s; wire: frames processed by all readers / wall_s"},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25, Clock: clockHost,
		Doc: "process CPU time (user+system, all threads) spent in the timed window: shows a wall_s gain bought with a second core"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Clock: clockHost,
		Doc: "VmHWM of the process that ran the workload (one process per workload)"},
	{Name: "goodput_gbps", Unit: "Gbit/s", Better: "higher", Bound: 0.25, Clock: clockHost,
		Doc: "sim workloads: verified receiver payload per simulated second (exact per seed; proxy_removal: last quarter of the window, after removal); wire workloads: frame bytes rewritten per host second"},
}

// perLayer are the metrics of the traced pass. A metric that does not
// apply to a workload is printed as 0 there (the driver wants every name
// on every workload) and left out of the result file.
var perLayer = []metricSpec{
	// The paper's quantities, virtual time, exact per seed.
	{Name: "sim_goodput_gbps", Unit: "Gbit/s", Better: "higher", Clock: clockSim, Moves: "goodput_gbps", Doc: "verified receiver payload per simulated second (bulk_chain4, proxy_removal post-removal, conn_churn request+response bytes)"},
	{Name: "sim_setup_p50_us", Unit: "us", Better: "lower", Clock: clockSim, Moves: "sim_conns_per_s on conn_churn", Doc: "Connect to OnEstablished through the chain, median (conn_churn)"},
	{Name: "sim_setup_p99_us", Unit: "us", Better: "lower", Clock: clockSim, Moves: "sim_conns_per_s on conn_churn", Doc: "same, 99th percentile; n is sim_conns_per_s x window"},
	{Name: "sim_conns_per_s", Unit: "conn/s", Better: "higher", Clock: clockSim, Moves: "goodput_gbps on conn_churn", Doc: "completed request/response exchanges per simulated second (conn_churn)"},
	{Name: "sim_reconfig_p50_ms", Unit: "ms", Better: "lower", Clock: clockSim, Moves: "goodput_gbps on proxy_removal", Doc: "OnReconfigSwitch since-trigger, median over the 200 splices (proxy_removal)"},
	{Name: "sim_reconfig_p95_ms", Unit: "ms", Better: "lower", Clock: clockSim, Moves: "goodput_gbps on proxy_removal", Doc: "same, 95th percentile: n=200 leaves ten samples beyond it"},
	{Name: "installs_per_s", Unit: "op/s", Better: "higher", Clock: clockHost, Moves: "setup_s on wire_churn", Doc: "writer's completed Install+Remove calls per host second beside the reader (wire_churn)"},
	{Name: "ops_failed_share", Unit: "ratio", Better: "lower", Clock: clockCount, Moves: "correct", Doc: "failed / attempted operations (sessions, connections, reconfigurations, frames, control ops); any non-zero value fails the run"},

	// Counts from public counters over the timed window of an untraced repeat.
	{Name: "sim.events", Unit: "count", Better: "lower", Clock: clockCount, Moves: "wall_s on sim workloads", Doc: "sim.Engine.Processed over the window"},
	{Name: "sim.events_per_pkt", Unit: "ratio", Better: "lower", Clock: clockCount, Moves: "wall_s on sim workloads", Doc: "sim.events / netsim.pkts_in"},
	{Name: "sim.pending_max", Unit: "count", Better: "lower", Clock: clockCount, Moves: "sim.kernel_ns_per_event", Doc: "largest Engine.Pending seen at 10 ms slice boundaries"},
	{Name: "netsim.pkts_in", Unit: "count", Better: "higher", Clock: clockCount, Moves: "pkts_per_s", Doc: "sum of Host.Stats.PacketsIn over the window"},
	{Name: "netsim.queue_drops", Unit: "count", Better: "lower", Clock: clockCount, Moves: "goodput_gbps", Doc: "drop-tail overflows on all link ends over the window"},
	{Name: "netsim.queue_bytes_max", Unit: "B", Better: "lower", Clock: clockCount, Moves: "goodput_gbps", Doc: "deepest transmit queue seen at slice boundaries"},
	{Name: "netsim.cpu_util_max", Unit: "ratio", Better: "lower", Clock: clockSim, Moves: "goodput_gbps", Doc: "busiest simulated host CPU over the window; below 1 means links, not simulated CPUs, bound the run"},
	{Name: "tcp.segs_sent", Unit: "count", Better: "lower", Clock: clockCount, Moves: "goodput_gbps", Doc: "segments sent by every TCP endpoint the benchmark can see"},
	{Name: "tcp.retransmits", Unit: "count", Better: "lower", Clock: clockCount, Moves: "goodput_gbps", Doc: "retransmitted segments: first place a lossy reconfiguration shows"},
	{Name: "tcp.timeouts", Unit: "count", Better: "lower", Clock: clockCount, Moves: "goodput_gbps", Doc: "retransmission timeouts"},
	{Name: "core.pkts_rewritten", Unit: "count", Better: "higher", Clock: clockCount, Moves: "wall_s on bulk_chain4", Doc: "sum of Agent.Stats.PacketsRewritten"},
	{Name: "core.sessions_max", Unit: "count", Better: "lower", Clock: clockCount, Moves: "wall_s on conn_churn", Doc: "most sessions tracked by one agent at a slice boundary"},
	{Name: "core.sessions_collected", Unit: "count", Better: "higher", Clock: clockCount, Moves: "wall_s on conn_churn", Doc: "sum of Agent.Stats.SessionsCollected"},
	{Name: "core.sessions_leaked", Unit: "count", Better: "lower", Clock: clockCount, Moves: "correct", Doc: "sessions still tracked after the drain (conn_churn); must be 0"},
	{Name: "core.ctrl_retransmits", Unit: "count", Better: "lower", Clock: clockCount, Moves: "sim_reconfig_p95_ms", Doc: "daemon control retransmissions"},
	{Name: "core.reconfigs_done", Unit: "count", Better: "higher", Clock: clockCount, Moves: "ops_failed_share", Doc: "sum of Agent.Stats.ReconfigsDone: each anchor counts its own, so one reconfiguration counts twice"},
	{Name: "core.reconfigs_failed", Unit: "count", Better: "lower", Clock: clockCount, Moves: "ops_failed_share", Doc: "Agent.Stats.ReconfigsFailed"},
	{Name: "core.oldpath_pkts", Unit: "count", Better: "lower", Clock: clockCount, Moves: "sim_reconfig_p50_ms", Doc: "packets still sent on the old path during two-path operation"},
	{Name: "core.newpath_pkts", Unit: "count", Better: "higher", Clock: clockCount, Moves: "sim_reconfig_p50_ms", Doc: "packets sent on the new path during two-path operation"},
	{Name: "dataplane.hits", Unit: "count", Better: "higher", Clock: clockCount, Moves: "pkts_per_s on wire workloads", Doc: "Table.Stats hits over the window"},
	{Name: "dataplane.misses", Unit: "count", Better: "lower", Clock: clockCount, Moves: "ops_failed_share", Doc: "Table.Stats misses over the window; every benchmark frame belongs to an installed flow"},
	{Name: "dataplane.max_shard_entries", Unit: "count", Better: "lower", Clock: clockCount, Moves: "installs_per_s", Doc: "entries in the fullest shard: the size of one copy-on-write snapshot copy"},
	{Name: "dataplane.rejected", Unit: "count", Better: "lower", Clock: clockCount, Moves: "ops_failed_share", Doc: "frames the raw path refused"},
	{Name: "go.allocs_per_pkt", Unit: "1/pkt", Better: "lower", Clock: clockHost, Moves: "wall_s, peak_rss_mb", Doc: "runtime.MemStats.Mallocs over the window / packets"},
	{Name: "go.bytes_per_pkt", Unit: "B/pkt", Better: "lower", Clock: clockHost, Moves: "wall_s, peak_rss_mb", Doc: "runtime.MemStats.TotalAlloc over the window / packets"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower", Clock: clockHost, Moves: "wall_s", Doc: "GC cycles completed during the window"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower", Clock: clockHost, Moves: "wall_s", Doc: "stop-the-world pause total during the window"},
	{Name: "go.cpu_s", Unit: "s", Better: "lower", Clock: clockHost, Moves: "cpu_s", Doc: "process CPU time over the window (the repeat the counts come from)"},
	{Name: "go.busy_share", Unit: "ratio", Better: "higher", Clock: clockHost, Moves: "wall_s", Doc: "go.cpu_s / (wall_s x busy threads); below 0.85 another tenant had the core and the repeat is left out"},

	// Host-time shares from a CPU profile of the traced window.
	{Name: "cpu.sim_share", Unit: "ratio", Better: "lower", Clock: clockHost, Moves: "wall_s on bulk_chain4", Doc: "share of profile samples whose innermost repo frame is in internal/sim"},
	{Name: "cpu.netsim_share", Unit: "ratio", Better: "lower", Clock: clockHost, Moves: "wall_s on bulk_chain4", Doc: "same, internal/netsim"},
	{Name: "cpu.tcp_share", Unit: "ratio", Better: "lower", Clock: clockHost, Moves: "wall_s on proxy_removal", Doc: "same, internal/tcp"},
	{Name: "cpu.packet_share", Unit: "ratio", Better: "lower", Clock: clockHost, Moves: "pkts_per_s on wire workloads", Doc: "same, internal/packet"},
	{Name: "cpu.core_share", Unit: "ratio", Better: "lower", Clock: clockHost, Moves: "wall_s on conn_churn", Doc: "same, internal/core"},
	{Name: "cpu.dataplane_share", Unit: "ratio", Better: "lower", Clock: clockHost, Moves: "pkts_per_s on wire workloads", Doc: "same, internal/dataplane"},
	{Name: "cpu.obs_share", Unit: "ratio", Better: "lower", Clock: clockHost, Moves: "wall_s", Doc: "same, internal/obs (tracing is off in the profiled window, so this is the cost of nil recorders)"},
	{Name: "cpu.mbox_share", Unit: "ratio", Better: "lower", Clock: clockHost, Moves: "wall_s on proxy_removal", Doc: "same, internal/mbox"},
	{Name: "cpu.app_share", Unit: "ratio", Better: "lower", Clock: clockHost, Moves: "wall_s", Doc: "same, internal/app"},
	{Name: "cpu.stats_share", Unit: "ratio", Better: "lower", Clock: clockHost, Moves: "wall_s", Doc: "same, internal/stats"},
	{Name: "cpu.bench_share", Unit: "ratio", Better: "lower", Clock: clockHost, Moves: "wall_s", Doc: "same, the benchmark's own load generators, verifiers and span recorder (plus internal packages without a share of their own)"},
	{Name: "cpu.runtime_bg_share", Unit: "ratio", Better: "lower", Clock: clockHost, Moves: "cpu_s", Doc: "samples with no repo frame on the stack: background GC workers, scheduler, signal handling"},

	// Ablations by existing configuration, one extra window each.
	{Name: "core.host_cost_ratio", Unit: "ratio", Better: "lower", Clock: clockHost, Moves: "wall_s on bulk_chain4", Doc: "wall_s with agents / wall_s of the same line with plain forwarding hosts and no agents (bulk_chain4)"},
	{Name: "core.sim_goodput_gap_pct", Unit: "%", Better: "lower", Clock: clockSim, Moves: "goodput_gbps on bulk_chain4", Doc: "(baseline - dysco) / baseline simulated goodput: Fig 9's under-1.5-points claim (bulk_chain4)"},
	{Name: "obs.host_cost_ratio", Unit: "ratio", Better: "lower", Clock: clockHost, Moves: "wall_s when observability is on", Doc: "wall_s with env.Observe() on / wall_s with it off (sim workloads)"},
	{Name: "obs.events", Unit: "count", Better: "lower", Clock: clockCount, Moves: "obs.host_cost_ratio", Doc: "events emitted in the observed run, all kinds, all hosts"},
	{Name: "obs.hash", Unit: "hash48", Better: "lower", Clock: clockCount, Moves: "determinism", Doc: "low 48 bits of obs.Hub.Hash over the stored event stream; must be equal between two runs of one seed"},
	{Name: "bench.trace_cost_ratio", Unit: "ratio", Better: "lower", Clock: clockHost, Moves: "none: overhead of the traced pass itself", Doc: "profiled+spanned window / wall_s"},
	{Name: "bench.reruns", Unit: "count", Better: "lower", Clock: clockHost, Moves: "none: noise guard", Doc: "repeats left out of the medians because go.busy_share was below 0.85"},

	// Isolated kernels: timed calls into each layer's public functions.
	{Name: "sim.kernel_ns_per_event", Unit: "ns", Better: "lower", Clock: clockHost, Moves: "wall_s on sim workloads", Doc: "Schedule+Run of no-op events with the heap preloaded to sim.pending_max"},
	{Name: "packet.kernel_parse_ns", Unit: "ns", Better: "lower", Clock: clockHost, Moves: "dataplane.struct_ns_per_frame", Doc: "packet.Parse of the workload's frame"},
	{Name: "packet.kernel_append_ns", Unit: "ns", Better: "lower", Clock: clockHost, Moves: "dataplane.struct_ns_per_frame", Doc: "Packet.AppendTo into a reused buffer"},
	{Name: "packet.kernel_parseview_ns", Unit: "ns", Better: "lower", Clock: clockHost, Moves: "pkts_per_s on wire workloads", Doc: "packet.ParseView of the workload's frame"},
	{Name: "packet.kernel_hash_ns", Unit: "ns", Better: "lower", Clock: clockHost, Moves: "pkts_per_s on wire workloads", Doc: "FiveTuple.Hash"},
	{Name: "packet.kernel_checksum_ns_per_kb", Unit: "ns/KB", Better: "lower", Clock: clockHost, Moves: "dataplane.struct_ns_per_frame", Doc: "packet.Checksum over the workload's frame, per 1024 bytes"},
	{Name: "core.kernel_rule_ns", Unit: "ns", Better: "lower", Clock: clockHost, Moves: "wall_s on bulk_chain4", Doc: "Rule.ApplyEgress + Rule.ApplyIngress on a packet with timestamps and two SACK blocks"},
	{Name: "obs.kernel_emit_ns", Unit: "ns", Better: "lower", Clock: clockHost, Moves: "obs.host_cost_ratio", Doc: "Recorder.Emit of a rewrite event"},
	{Name: "dataplane.kernel_lookup_ns", Unit: "ns", Better: "lower", Clock: clockHost, Moves: "pkts_per_s on wire workloads", Doc: "Table.Lookup over the workload's flows"},
	{Name: "dataplane.kernel_rawrule_ns", Unit: "ns", Better: "lower", Clock: clockHost, Moves: "pkts_per_s on wire workloads", Doc: "Entry.Raw().Apply* on a parsed View"},
	{Name: "dataplane.inline_ns_per_frame_1r", Unit: "ns", Better: "lower", Clock: clockHost, Moves: "pkts_per_s on wire workloads", Doc: "ProcessRawInline, one reader, no writer"},
	{Name: "dataplane.glue_ns", Unit: "ns", Better: "lower", Clock: clockHost, Moves: "pkts_per_s on wire workloads", Doc: "inline - parseview - lookup - rawrule"},
	{Name: "dataplane.scaling_2r", Unit: "ratio", Better: "higher", Clock: clockHost, Moves: "pkts_per_s on wire_fastpath", Doc: "2-reader pkt/s / 1-reader pkt/s; 2 is perfect"},
	{Name: "dataplane.fed_ns_per_frame", Unit: "ns", Better: "lower", Clock: clockHost, Moves: "nothing end-to-end yet", Doc: "Start / FeedRawWorker / Stop with 1 feeder and 1 worker"},
	{Name: "dataplane.feed_full_share", Unit: "ratio", Better: "lower", Clock: clockHost, Moves: "nothing end-to-end yet", Doc: "FeedRawWorker calls that found the ring full"},
	{Name: "dataplane.ring_ns_per_frame", Unit: "ns", Better: "lower", Clock: clockHost, Moves: "nothing end-to-end yet", Doc: "fed - inline"},
	{Name: "dataplane.struct_ns_per_frame", Unit: "ns", Better: "lower", Clock: clockHost, Moves: "nothing end-to-end: the oracle path", Doc: "Parse, ProcessInline, AppendTo"},
	{Name: "dataplane.install_p50_us", Unit: "us", Better: "lower", Clock: clockHost, Moves: "installs_per_s, setup_s on wire_churn", Doc: "one Table.Install on the loaded table, median"},
	{Name: "dataplane.install_p95_us", Unit: "us", Better: "lower", Clock: clockHost, Moves: "installs_per_s", Doc: "same, 95th percentile"},
	{Name: "dataplane.remove_p50_us", Unit: "us", Better: "lower", Clock: clockHost, Moves: "installs_per_s", Doc: "one Table.Remove, median"},
	{Name: "dataplane.bulk_install_s", Unit: "s", Better: "lower", Clock: clockHost, Moves: "setup_s on wire workloads", Doc: "installing every flow and mirror entry into the empty table"},
}

func specByName(specs []metricSpec) map[string]metricSpec {
	m := make(map[string]metricSpec, len(specs))
	for _, s := range specs {
		m[s.Name] = s
	}
	return m
}
