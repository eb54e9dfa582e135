package lab_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/lab"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/tcp"
)

// cost is what one end-to-end case spent over its measured window. Every
// field but allocs is exact per seed.
type cost struct {
	pkts, events, segs, bytes, obsEvents uint64
	pendingMax                           int
	allocs                               uint64
}

// line renders the exact part of c as one golden line.
func (c cost) line(name string) string {
	per := func(n uint64) float64 { return float64(n) / float64(c.pkts) }
	return fmt.Sprintf("%s pkts=%d events_per_pkt=%.4f pending_max=%d segs_per_mb=%.4f obs_per_pkt=%.4f\n",
		name, c.pkts, per(c.events), c.pendingMax, float64(c.segs)/(float64(c.bytes)/(1<<20)), per(c.obsEvents))
}

// costCase is one small end-to-end run: build wires the testbed and starts
// its traffic; segs reads the segments its TCP endpoints sent so far and
// bytes the application bytes delivered so far.
type costCase struct {
	name           string
	warmup, window time.Duration
	// maxAllocs is the ceiling on Go heap allocations per packet over the
	// window: map growth is randomized, so this one is not exact.
	maxAllocs float64
	build     func() (env *lab.Env, segs, bytes func() uint64)
}

// measure runs c's warm-up, then its window in 1 ms slices, sampling
// Pending() at every slice boundary as the benchmark harness does.
func measure(t *testing.T, c costCase) cost {
	t.Helper()
	env, segs, bytes := c.build()
	hub := env.Observe()
	env.RunFor(c.warmup)
	read := func() (x cost) {
		for _, h := range env.Net.Hosts() {
			x.pkts += h.Stats.PacketsIn
		}
		for _, k := range obs.Kinds() {
			x.obsEvents += hub.Count(k)
		}
		x.events, x.segs, x.bytes = env.Eng.Processed, segs(), bytes()
		return x
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	start, mallocs := read(), ms.Mallocs
	pendingMax := env.Eng.Pending()
	for end := env.Eng.Now() + c.window; env.Eng.Now() < end; {
		env.RunFor(time.Millisecond)
		pendingMax = max(pendingMax, env.Eng.Pending())
	}
	runtime.ReadMemStats(&ms)
	x := read()
	return cost{
		pkts: x.pkts - start.pkts, events: x.events - start.events,
		segs: x.segs - start.segs, bytes: x.bytes - start.bytes,
		obsEvents: x.obsEvents - start.obsEvents, pendingMax: pendingMax,
		allocs: ms.Mallocs - mallocs,
	}
}

// connSegs sums SegsSent over conns as they are when called.
func connSegs(conns *[]*tcp.Conn) func() uint64 {
	return func() uint64 {
		var n uint64
		for _, c := range *conns {
			n += c.Stats.SegsSent
		}
		return n
	}
}

// chain4: four bulk sessions over client - four forwarders - server, the
// shape of the bulk_chain4 benchmark workload at a quarter of its sessions.
func chain4() (*lab.Env, func() uint64, func() uint64) {
	env := lab.NewEnv(1)
	link := netsim.LinkConfig{Delay: 20 * time.Microsecond, Bandwidth: netsim.Gbps(1), QueueBytes: 4 << 20}
	clients, mids, servers := env.Line(link, true, 1, 4)
	client, server := clients[0], servers[0]
	env.ChainPolicy(client, 5001, mids...)

	var conns []*tcp.Conn
	var delivered uint64
	server.Stack.Listen(5001, func(c *tcp.Conn) {
		conns = append(conns, c)
		c.OnData = func(b []byte) { delivered += uint64(len(b)) }
	})
	chunk := make([]byte, 64<<10)
	for i := 0; i < 4; i++ {
		env.Eng.Schedule(time.Duration(i)*100*time.Microsecond, func() {
			c := client.Stack.Connect(server.Addr(), 5001, tcp.Config{})
			conns = append(conns, c)
			refill := func() {
				for c.BufferedOut() < 256<<10 {
					if c.Send(chunk) != nil {
						return
					}
				}
			}
			c.OnEstablished, c.OnSendBufferLow = refill, refill
		})
	}
	return env, connSegs(&conns), func() uint64 { return delivered }
}

// churn: two closed loops over client - forwarder - server, each
// connecting, sending 100 bytes, reading 1000 and closing, then starting
// over: the conn_churn workload's loop.
func churn() (*lab.Env, func() uint64, func() uint64) {
	env := lab.NewEnv(1)
	link := netsim.LinkConfig{Delay: 200 * time.Microsecond, Bandwidth: netsim.Gbps(10)}
	clients, mids, servers := env.Line(link, true, 1, 1)
	client, server := clients[0], servers[0]
	env.ChainPolicy(client, 8080, mids...)

	var conns []*tcp.Conn
	var delivered uint64
	req, resp := make([]byte, 100), make([]byte, 1000)
	server.Stack.Listen(8080, func(c *tcp.Conn) {
		conns = append(conns, c)
		got := 0
		c.OnData = func(b []byte) {
			delivered += uint64(len(b))
			if got += len(b); got == len(req) {
				_ = c.Send(resp)
			}
		}
		c.OnPeerFIN = c.Close
	})
	var loop func()
	loop = func() {
		c := client.Stack.Connect(server.Addr(), 8080, tcp.Config{})
		conns = append(conns, c)
		got := 0
		c.OnEstablished = func() { _ = c.Send(req) }
		c.OnData = func(b []byte) {
			delivered += uint64(len(b))
			if got += len(b); got == len(resp) {
				c.Close()
				loop()
			}
		}
	}
	for i := 0; i < 2; i++ {
		env.Eng.Schedule(time.Duration(i)*300*time.Microsecond, loop)
	}
	return env, connSegs(&conns), func() uint64 { return delivered }
}

// proxyRemoval: the fault registry's proxyremoval at its sweep size, with
// one 512 KB transfer from the first SYN to the horizon: the proxied
// transfer, the proxy splicing itself out, and the quiet period in which
// idle state is collected.
func proxyRemoval() (*lab.Env, func() uint64, func() uint64) {
	sc, _ := fault.ScenarioByName("proxyremoval")
	in := sc.Build(1, sc.Sweep)
	client, server := in.Clients[0], in.Servers[0]
	var conns []*tcp.Conn
	var delivered uint64
	server.Stack.Listen(80, func(c *tcp.Conn) {
		conns = append(conns, c)
		c.OnData = func(b []byte) { delivered += uint64(len(b)) }
	})
	c := client.Stack.Connect(server.Addr(), 80, tcp.Config{})
	conns = append(conns, c)
	c.OnEstablished = func() { _ = c.Send(make([]byte, sc.Sweep.Bytes)) }
	segs := func() uint64 {
		n := connSegs(&conns)()
		for _, p := range in.Proxy.Pairs() {
			n += p.Client.Stats.SegsSent + p.Server.Stats.SegsSent
		}
		return n
	}
	return in.Env, segs, func() uint64 { return delivered }
}

// TestPerPacketCost pins what a packet costs end to end, in units that do
// not depend on the host: engine events and peak pending events per
// packet, TCP segments per delivered MB and obs events per packet, on
// three small cases, against testdata/cost.golden. An extra event per hop
// moves events_per_pkt by one. Allocations per packet are held to a
// ceiling. Regenerate with
// `go test ./internal/lab -run TestPerPacketCost -update` only when a
// change means to move the cost, and give the before and after in
// CHANGES.md.
func TestPerPacketCost(t *testing.T) {
	cases := []costCase{
		{"chain4", 20 * time.Millisecond, 50 * time.Millisecond, 0.5, chain4},
		{"churn", 50 * time.Millisecond, 200 * time.Millisecond, 3.35, churn},
		{"proxyremoval", 0, 12 * time.Second, 1.5, proxyRemoval},
	}
	var got strings.Builder
	for _, c := range cases {
		x := measure(t, c)
		if x.pkts == 0 || x.bytes == 0 {
			t.Fatalf("%s: %d packets, %d bytes delivered in the window", c.name, x.pkts, x.bytes)
		}
		got.WriteString(x.line(c.name))
		a, report := float64(x.allocs)/float64(x.pkts), t.Logf
		if a > c.maxAllocs {
			report = t.Errorf
		}
		report("%s: %.4f allocations per packet, ceiling %.4f", c.name, a, c.maxAllocs)
	}
	checkGolden(t, "cost.golden", got.String(), "per-packet costs")
}
