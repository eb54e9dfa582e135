package tcp

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
)

// TestTCPFastPathZeroAlloc pins the tcp per-segment kernels — window
// math, RTT sampling, SACK scoreboard queries — at zero allocations per
// call on every branch. It runs on a connection that really carried
// data, so the RTT estimator and SACK scoreboard start from their
// steady-state shapes; each input below then sets the few fields its
// branch depends on and runs alone inside AllocsPerRun.
func TestTCPFastPathZeroAlloc(t *testing.T) {
	h := newHarness(t, netsim.LinkConfig{Delay: time.Millisecond}, 7)
	got := 0
	h.server.Listen(80, func(c *Conn) {
		c.OnData = func(b []byte) { got += len(b) }
	})
	c := h.client.Connect(h.hs.Addr, 80, Config{})
	c.OnEstablished = func() { c.Send(make([]byte, 64<<10)) }
	h.eng.Run(time.Second)
	if got != 64<<10 {
		t.Fatalf("transfer incomplete: delivered %d bytes", got)
	}
	if !c.hasRTT || !c.tsOK {
		t.Fatal("connection has no RTT sample or no timestamps; sampleRTT path untested")
	}

	// ACKs as sampleRTT sees them: with a timestamp echo (from the past,
	// from the future, or 0), and without timestamps (Karn's rule: time
	// the one armed segment). Built once, outside the measured region,
	// exactly like the real receive path reuses the parsed packet.
	now := h.client.TSNow()
	ack := func(ts *packet.Timestamp) *packet.Packet {
		p := packet.NewTCP(c.tuple.Reverse(), packet.FlagACK, c.rcvNxt, c.sndNxt, nil)
		p.Opts.TS = ts
		return p
	}
	tsAck := ack(&packet.Timestamp{Val: 1, Ecr: now - 5})
	futureAck := ack(&packet.Timestamp{Val: 1, Ecr: now + 5})
	ecr0Ack := ack(&packet.Timestamp{Val: 1, Ecr: 0})
	karnAck := ack(nil)
	karn := func(rtt time.Duration, first bool) {
		c.rttArmed, c.rttClean, c.rttSeq, c.rttAt = true, true, c.sndNxt, c.eng.Now()-rtt
		c.hasRTT = !first
		c.sampleRTT(c.sndNxt, karnAck)
	}
	srtt := func(d time.Duration) { c.srtt, c.rttvar = d, d/2 }

	sb := &sackScoreboard{ranges: []packet.SACKBlock{
		{Start: 1000, End: 2000},
		{Start: 3000, End: 4000},
	}}

	kernels := []struct {
		name string
		fn   func()
	}{
		{"Conn.flight", func() { _ = c.flight() }},
		{"Conn.sendWindow", func() { c.peerWnd, c.cwnd = 1<<20, 1<<20; _ = c.sendWindow() }},
		{"Conn.sendWindow(closed)", func() { c.peerWnd = 0; c.sndNxt = packet.SeqAdd(c.sndUna, 10); _ = c.sendWindow() }},
		{"Conn.recvWindow", func() { c.oooBytes = 0; _ = c.recvWindow() }},
		{"Conn.recvWindow(overfull)", func() { c.oooBytes = recvBuf + 1; _ = c.recvWindow() }},
		{"Conn.advertisedWindow", func() { c.oooBytes, c.rcvWScale = 0, 7; _ = c.advertisedWindow() }},
		{"Conn.advertisedWindow(clamped)", func() { c.oooBytes, c.rcvWScale = 0, 0; _ = c.advertisedWindow() }},
		{"Conn.sampleRTT(timestamp)", func() { srtt(time.Second); c.sampleRTT(c.sndNxt, tsAck) }},
		{"Conn.sampleRTT(timestamp from the future)", func() { c.sampleRTT(c.sndNxt, futureAck) }},
		{"Conn.sampleRTT(Ecr 0, unarmed)", func() { c.rttArmed = false; c.sampleRTT(c.sndNxt, ecr0Ack) }},
		{"Conn.sampleRTT(Karn, first sample, minRTO)", func() { karn(0, true) }},
		{"Conn.sampleRTT(Karn, first sample, maxRTO)", func() { karn(100*time.Second, true) }},
		{"Conn.sampleRTT(Karn, sample above srtt)", func() { srtt(time.Millisecond); karn(time.Second, false) }},
		{"Conn.sampleRTT(Karn, sample below srtt)", func() { srtt(time.Second); karn(time.Millisecond, false) }},
		{"Conn.backoffRTO", func() { c.rto = time.Second; c.backoffRTO() }},
		{"Conn.backoffRTO(maxRTO)", func() { c.rto = maxRTO; c.backoffRTO() }},
		{"sackScoreboard.isSacked", func() { _ = sb.isSacked(1500) }},
		{"sackScoreboard.isSacked(hole)", func() { _ = sb.isSacked(2500) }},
		{"sackScoreboard.sackedAbove(below all)", func() { _ = sb.sackedAbove(500) }},
		{"sackScoreboard.sackedAbove(inside a range)", func() { _ = sb.sackedAbove(3500) }},
		{"sackScoreboard.firstHole(leading hole)", func() { _, _ = sb.firstHole(500, 5000) }},
		{"sackScoreboard.firstHole(tail)", func() { _, _ = sb.firstHole(3000, 5000) }},
		{"sackScoreboard.firstHole(covered)", func() { _, _ = sb.firstHole(3000, 3500) }},
	}
	for _, k := range kernels {
		if n := testing.AllocsPerRun(200, k.fn); n != 0 {
			t.Errorf("%s: %.1f allocs/run, want 0", k.name, n)
		}
	}
}
