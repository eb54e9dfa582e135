package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// BenchmarkChainedTransfer measures end-to-end throughput of a one-mbox
// Dysco chain (agent rewrite path included) in virtual bytes per benched
// second.
func BenchmarkChainedTransfer(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := newBenchEnv(int64(i))
		got := 0
		env.sServer.Listen(80, func(c *tcp.Conn) {
			c.OnData = func(p []byte) { got += len(p) }
		})
		c := env.sClient.Connect(env.server.Addr, 80, tcp.Config{})
		c.OnEstablished = func() { c.Send(make([]byte, 1<<20)) }
		env.eng.Run(5 * time.Second)
		if got != 1<<20 {
			b.Fatalf("delivered %d", got)
		}
		b.SetBytes(1 << 20)
	}
}

// BenchmarkReconfiguration measures a full proxyless middlebox deletion
// (lock, new path, two-path drain, teardown) on an active session.
func BenchmarkReconfiguration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := newBenchEnv(int64(i))
		env.sServer.Listen(80, func(c *tcp.Conn) {
			c.OnData = func(p []byte) {}
		})
		c := env.sClient.Connect(env.server.Addr, 80, tcp.Config{})
		c.OnEstablished = func() { c.Send(make([]byte, 256<<10)) }
		env.eng.Run(5 * time.Millisecond)
		ok := false
		env.aClient.OnReconfigDone = func(_ packet.FiveTuple, o bool, d sim.Time) { ok = o }
		env.aClient.StartReconfig(c.Tuple(), ReconfigOptions{
			RightAnchor: env.server.Addr,
		})
		env.eng.Run(10 * time.Second)
		if !ok {
			b.Fatal("reconfig failed")
		}
	}
}

// newBenchEnv builds the 1-mbox chain used by the package benchmarks,
// without *testing.T plumbing.
func newBenchEnv(seed int64) *chainEnv {
	return newChainEnv(nil, 1, netsim.LinkConfig{Delay: 100 * time.Microsecond, Bandwidth: netsim.Gbps(1)}, seed)
}

// BenchmarkAgentRewrite measures the raw per-packet rewrite path.
func BenchmarkAgentRewrite(b *testing.B) {
	env := newBenchEnv(1)
	a := env.aClient
	sess := &Session{IDLeft: packet.FiveTuple{SrcIP: 1, DstIP: 2}, IDRight: packet.FiveTuple{SrcIP: 1, DstIP: 2}}
	e := &rewriteEntry{
		Rule: Rule{To: packet.FiveTuple{SrcIP: 9, DstIP: 8, SrcPort: 7, DstPort: 6},
			AckAdd: -12345, TSEcrAdd: -77},
		sess: sess,
	}
	p := packet.NewTCP(packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4},
		packet.FlagACK, 100, 200, make([]byte, 1400))
	p.Opts.TS = &packet.Timestamp{Val: 1, Ecr: 2}
	a.Cfg.RewriteCost = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.applyEgress(p, e)
	}
}

// BenchmarkCollectIdle measures one GC tick over 4 096 live sessions, with
// none due and with 400 due (closed and quiet): the per-tick cost of the
// agent's idle state, which the sweep keeps to the due records.
func BenchmarkCollectIdle(b *testing.B) {
	for _, due := range []int{0, 400} {
		b.Run(fmt.Sprintf("sessions=4096/due=%d", due), func(b *testing.B) {
			a := sweepAgent()
			for i := due; i < 4096; i++ {
				openSweep(a, 1000+i, false)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < due; j++ {
					openSweep(a, 1000+j, true)
				}
				b.StartTimer()
				if n := a.CollectIdle(); n != due {
					b.Fatalf("CollectIdle removed %d, want %d", n, due)
				}
			}
		})
	}
}
