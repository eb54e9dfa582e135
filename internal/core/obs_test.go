package core

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/packet"
)

// TestObsStateNameConstants cross-checks the span builder's state-name
// constants against this package's String renderings. obs cannot import
// core, so it matches on rendered names — this test is what keeps the two
// vocabularies from drifting.
func TestObsStateNameConstants(t *testing.T) {
	pairs := []struct {
		got  string
		want string
	}{
		{RcLocking.String(), obs.StLocking},
		{RcSettingUp.String(), obs.StSettingUp},
		{RcStateWait.String(), obs.StStateWait},
		{RcTwoPath.String(), obs.StTwoPath},
		{RcDone.String(), obs.StDone},
		{RcFailed.String(), obs.StFailed},
	}
	for _, p := range pairs {
		if p.got != p.want {
			t.Fatalf("core renders %q, obs span builder matches %q", p.got, p.want)
		}
	}
}

// TestRewritePathZeroAlloc pins the per-packet rewrite path at zero
// allocations on every branch: each shape below is one input that drives
// one branch of applyEgress/applyIngress, the shared Rule kernel, the
// draining-window clamp and the anchor's §3.5 counters, and each runs
// alone inside AllocsPerRun, so an allocation on any one branch shows up
// as at least one allocation per run. The whole table runs twice: with
// the host unobserved (nil recorder) and with a recorder attached whose
// per-packet kind is disabled — events are stack-built values and the
// emit call returns before touching storage. The agent keeps its default
// config, so chargeRewrite bills the default RewriteCost on every
// rewrite, as it does in every default agent.
func TestRewritePathZeroAlloc(t *testing.T) {
	env := newBenchEnv(1)
	a := env.aClient
	if a.Cfg.RewriteCost <= 0 {
		t.Fatal("default config charges no rewrite cost; chargeRewrite would go unmeasured")
	}
	to := packet.FiveTuple{SrcIP: 9, DstIP: 8, SrcPort: 7, DstPort: 6}
	ft := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	pkt := func(flags packet.TCPFlags, payload int, ts *packet.Timestamp, sack ...packet.SACKBlock) *packet.Packet {
		p := packet.NewTCP(ft, flags, 100, 200, make([]byte, payload))
		p.Opts.TS, p.Opts.SACK = ts, sack
		return p
	}
	data := pkt(packet.FlagACK, 1400, &packet.Timestamp{Val: 1, Ecr: 2})
	sack := pkt(packet.FlagACK, 0, &packet.Timestamp{Val: 1, Ecr: 2},
		packet.SACKBlock{Start: 300, End: 400}, packet.SACKBlock{Start: 500, End: 600})
	noTS := pkt(packet.FlagACK, 1400, nil)
	ecr0 := pkt(packet.FlagACK, 1400, &packet.Timestamp{Val: 1, Ecr: 0})
	syn := pkt(packet.FlagSYN, 0, &packet.Timestamp{Val: 1, Ecr: 0})
	fin := pkt(packet.FlagFIN|packet.FlagACK, 0, nil)
	ack := pkt(packet.FlagACK, 0, nil)

	// Plain hop entries (no §3.5 tracking) with every kernel stage on,
	// the 65 535 clamp, and every stage off.
	sess := &Session{IDLeft: ft, IDRight: ft}
	deltas := &rewriteEntry{sess: sess, Rule: Rule{To: to, AckAdd: -12345, TSEcrAdd: -77,
		SeqAdd: 41, TSAdd: 13, WinFrom: 0, WinTo: 2}}
	clamp := &rewriteEntry{sess: sess, Rule: Rule{To: to, WinFrom: 3, WinTo: 0}}
	bare := &rewriteEntry{sess: sess, Rule: Rule{To: to}}

	// A session whose host is being deleted clamps what it advertises.
	drain := &Session{IDLeft: ft, IDRight: ft, Draining: true}
	draining := &rewriteEntry{sess: drain, Rule: Rule{To: to}}
	drainCfg := func(zero bool, clampBytes int, shift int8) {
		a.Cfg.ZeroWindow, a.Cfg.WindowClamp, drain.drainWScale = zero, clampBytes, shift
	}

	// An anchor's entries: egress carries client→server traffic, ingress
	// the reverse; both maintain the §3.5 counters. twoPath is an anchor
	// in two-path state whose old-path FIN is already out, so each
	// arrival checks for completion and finds nothing to do.
	anchor := &Session{IDLeft: ft, IDRight: ft}
	out := &rewriteEntry{sess: anchor, Rule: Rule{To: to}, anchorTrack: true, dirRight: true}
	in := &rewriteEntry{sess: anchor, Rule: Rule{To: to}, anchorTrack: true}
	twoPath := &Session{IDLeft: ft, IDRight: ft}
	twoPath.Reconfig = &Reconfig{Sess: twoPath, rcState: RcTwoPath, switched: true, sentOldFIN: true}
	inTwoPath := &rewriteEntry{sess: twoPath, Rule: Rule{To: to}, anchorTrack: true}
	unseen := func(s *Session) { s.sentHiOK, s.sentAckedOK, s.rcvdHiOK, s.rcvdAckedOK = false, false, false, false }

	shapes := []struct {
		name string
		fn   func()
	}{
		{"egress data, all deltas, window scaled", func() { data.Window = 1000; a.applyEgress(data, deltas) }},
		{"egress SACK blocks", func() { a.applyEgress(sack, deltas) }},
		{"egress without timestamps", func() { a.applyEgress(noTS, deltas) }},
		{"egress timestamp Ecr 0", func() { a.applyEgress(ecr0, deltas) }},
		{"egress without ACK flag", func() { a.applyEgress(syn, deltas) }},
		{"egress window clamped at 65535", func() { data.Window = 65535; a.applyEgress(data, clamp) }},
		{"egress no deltas", func() { a.applyEgress(sack, bare) }},
		{"ingress data, seq and TS deltas", func() { a.applyIngress(data, deltas) }},
		{"ingress without timestamps", func() { a.applyIngress(noTS, deltas) }},
		{"ingress no deltas", func() { a.applyIngress(data, bare) }},
		{"draining, ZeroWindow", func() { drainCfg(true, 0, 0); a.applyEgress(data, draining) }},
		{"draining, clamp off", func() { drainCfg(false, 0, 0); a.applyEgress(data, draining) }},
		{"draining, WindowClamp, negative shift", func() {
			drainCfg(false, 4096, -1)
			data.Window = 8000
			a.applyEgress(data, draining)
		}},
		{"draining, WindowClamp shifted to 0", func() {
			drainCfg(false, 1, 3)
			data.Window = 8000
			a.applyEgress(data, draining)
		}},
		{"draining, window under WindowClamp", func() {
			drainCfg(false, 64<<10, 0)
			data.Window = 100
			a.applyEgress(data, draining)
		}},
		{"anchor egress SYN", func() { unseen(anchor); a.applyEgress(syn, out) }},
		{"anchor egress data", func() { data.Seq = packet.SeqAdd(data.Seq, 1400); a.applyEgress(data, out) }},
		{"anchor egress FIN", func() { a.applyEgress(fin, out) }},
		{"anchor egress pure ACK", func() { a.applyEgress(ack, out) }},
		{"anchor ingress SYN", func() { unseen(anchor); a.applyIngress(syn, in) }},
		{"anchor ingress data", func() { data.Seq = packet.SeqAdd(data.Seq, 1400); a.applyIngress(data, in) }},
		{"anchor ingress FIN", func() { a.applyIngress(fin, in) }},
		{"anchor ingress pure ACK", func() { a.applyIngress(ack, in) }},
		{"anchor ingress in two-path state", func() { a.applyIngress(ack, inTwoPath) }},
	}
	run := func(mode string) {
		for _, s := range shapes {
			if n := testing.AllocsPerRun(1000, s.fn); n != 0 {
				t.Errorf("%s %s: %.1f allocs/op, want 0", mode, s.name, n)
			}
		}
	}
	run("unobserved")

	// The bare shared kernel (what internal/dataplane runs per packet,
	// with none of the agent's tracking around it), with option
	// translation off as the dataplane ablation runs it.
	if n := testing.AllocsPerRun(1000, func() { deltas.ApplyEgress(sack, false) }); n != 0 {
		t.Errorf("Rule.ApplyEgress without option translation allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { deltas.ApplyIngress(data, false) }); n != 0 {
		t.Errorf("Rule.ApplyIngress without option translation allocates %.1f/op", n)
	}

	hub := obs.NewHub(env.eng)
	r := hub.Recorder("client")
	r.Disable(obs.KRewrite)
	a.SetRecorder(r)
	run("disabled-kind")
	if got := r.Count(obs.KRewrite); got != 0 {
		t.Fatalf("disabled kind still counted: %d", got)
	}

	// Sanity: with the kind enabled the same path does emit.
	r.Enable(obs.KRewrite)
	a.applyEgress(data, deltas)
	if r.Count(obs.KRewrite) != 1 {
		t.Fatal("enabled rewrite kind did not emit")
	}
	if !anchor.finSeen[0] || !anchor.finSeen[1] || !anchor.seenData {
		t.Fatal("anchor shapes did not reach the §3.5 counters")
	}
}

// TestEachSubsession checks the per-subsession packet/byte totals the
// metrics registry reports.
func TestEachSubsession(t *testing.T) {
	env := newBenchEnv(2)
	a := env.aClient
	from := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	e := a.install(a.egress, from, &rewriteEntry{Rule: Rule{To: packet.FiveTuple{SrcIP: 9, DstIP: 8}}, sess: &Session{}})
	p := packet.NewTCP(from, packet.FlagACK, 1, 1, make([]byte, 100))
	a.Cfg.RewriteCost = 0
	a.applyEgress(p, e)
	var saw int
	a.EachSubsession(func(dir string, f, to packet.FiveTuple, pkts, bytes uint64) {
		saw++
		if dir != "egress" || f != from || to != e.To || pkts != 1 || bytes != 100 {
			t.Fatalf("subsession %s %v->%v pkts=%d bytes=%d", dir, f, to, pkts, bytes)
		}
	})
	if saw != 1 {
		t.Fatalf("EachSubsession visited %d entries", saw)
	}
}

// TestHotpathHelpersZeroAlloc pins the packet-layer and obs-layer
// helpers of the per-packet path at zero allocations per call, one input
// per branch. Core's own kernels are covered by TestRewritePathZeroAlloc
// above, tcp's by TestTCPFastPathZeroAlloc and the raw path's by
// internal/dataplane's TestRawPathZeroAlloc.
func TestHotpathHelpersZeroAlloc(t *testing.T) {
	env := newBenchEnv(3)
	ft := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: packet.ProtoTCP}
	p := packet.NewTCP(ft, packet.FlagACK|packet.FlagPSH, 100, 200, make([]byte, 64))
	syn := packet.NewTCP(ft, packet.FlagSYN, 100, 0, nil)
	fin := packet.NewTCP(ft, packet.FlagFIN|packet.FlagACK, 100, 200, make([]byte, 64))
	nt := packet.FiveTuple{SrcIP: 9, DstIP: 8, SrcPort: 7, DstPort: 6, Proto: packet.ProtoTCP}

	var nilRec *obs.Recorder
	hub := obs.NewHub(env.eng)
	disabled := hub.Recorder("helper-test")
	disabled.Disable(obs.KRewrite)
	ev := obs.Event{Kind: obs.KRewrite, Sess: ft, Dir: "egress", Bytes: 64}
	full := hub.Recorder("helper-full")
	full.SetLimit(1)
	full.Emit(ev) // the one stored event; every later one is counted, not stored

	kernels := []struct {
		name string
		fn   func()
	}{
		{"packet.SeqAdd", func() { _ = packet.SeqAdd(100, 50) }},
		{"packet.SeqDiff", func() { _ = packet.SeqDiff(100, 200) }},
		{"packet.SeqLT", func() { _ = packet.SeqLT(100, 200) }},
		{"packet.SeqLEQ", func() { _ = packet.SeqLEQ(100, 200) }},
		{"packet.SeqGT", func() { _ = packet.SeqGT(100, 200) }},
		{"packet.SeqGEQ", func() { _ = packet.SeqGEQ(100, 200) }},
		{"packet.SeqMax(lo, hi)", func() { _ = packet.SeqMax(100, 200) }},
		{"packet.SeqMax(hi, lo)", func() { _ = packet.SeqMax(200, 100) }},
		{"packet.SeqMin(lo, hi)", func() { _ = packet.SeqMin(100, 200) }},
		{"packet.SeqMin(hi, lo)", func() { _ = packet.SeqMin(200, 100) }},
		{"packet.ChecksumUpdate16", func() { _ = packet.ChecksumUpdate16(0x1234, 1, 2) }},
		{"packet.ChecksumUpdate32", func() { _ = packet.ChecksumUpdate32(0x1234, 1, 2) }},
		{"packet.FiveTuple.Reverse", func() { _ = ft.Reverse() }},
		{"packet.Packet.DataLen", func() { _ = p.DataLen() }},
		{"packet.Packet.SeqEnd", func() { _ = p.SeqEnd() }},
		{"packet.Packet.SeqEnd(SYN)", func() { _ = syn.SeqEnd() }},
		{"packet.Packet.SeqEnd(FIN)", func() { _ = fin.SeqEnd() }},
		{"packet.Packet.RewriteTuple", func() { p.RewriteTuple(nt) }},
		{"packet.Packet.RewriteSeqAck", func() { p.RewriteSeqAck(300, 400) }},
		{"packet.TCPFlags.Has", func() { _ = p.Flags.Has(packet.FlagACK) }},
		{"packet.FiveTuple.Hash", func() { _ = ft.Hash() }},
		{"packet.Bucket", func() { _ = packet.Bucket(ft.Hash(), 64) }},
		{"obs.Recorder.Emit(nil)", func() { nilRec.Emit(ev) }},
		{"obs.Recorder.Emit(disabled)", func() { disabled.Emit(ev) }},
		{"obs.Recorder.Emit(full)", func() { full.Emit(ev) }},
	}
	for _, k := range kernels {
		if n := testing.AllocsPerRun(200, k.fn); n != 0 {
			t.Errorf("%s: %.1f allocs/run, want 0", k.name, n)
		}
	}
	if !full.Truncated() || len(full.Events()) != 1 {
		t.Fatalf("full recorder stored %d events (truncated=%v), want 1 and truncated", len(full.Events()), full.Truncated())
	}

	// The one branch that may allocate is the crash path: an emitter
	// outside the taxonomy panics.
	defer func() {
		if recover() == nil {
			t.Fatal("Emit of kind 0 did not panic")
		}
	}()
	disabled.Emit(obs.Event{})
}
