package exp

import (
	"fmt"
	"time"

	"repro/internal/lab"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcp"
)

// lanLink is the testbed access link: 10 Gbps with LAN-scale propagation.
func lanLink() netsim.LinkConfig {
	return netsim.LinkConfig{Delay: 20 * time.Microsecond, Bandwidth: netsim.Gbps(10)}
}

// measureSetupLatency runs sequential connect() handshakes and returns the
// observed latencies (the time for the TCP socket connect(), §5.1).
func measureSetupLatency(env *lab.Env, client, server *lab.Node, n int) []sim.Time {
	server.Stack.Listen(80, func(c *tcp.Conn) {})
	out := make([]sim.Time, 0, n)
	for i := 0; i < n; i++ {
		start := env.Eng.Now()
		done := false
		c := client.Stack.Connect(server.Addr(), 80, tcp.Config{})
		c.OnEstablished = func() {
			out = append(out, env.Eng.Now()-start)
			done = true
		}
		env.RunFor(50 * time.Millisecond)
		if !done {
			break
		}
		c.Close()
		env.RunFor(10 * time.Millisecond)
	}
	return out
}

// Fig8 reproduces Figure 8: session-setup latency for Dysco vs baseline
// with 1 and 4 middleboxes, with checksum offloaded (a) and in software
// (b), plus the §5.1 worst-case difference (~94 µs in the paper).
func Fig8(seed int64) *Result {
	r := &Result{Name: "fig8", Title: "Session setup latency (§5.1, Figure 8)"}
	const handshakes = 300
	type cell struct {
		mean, sd float64
	}
	grid := map[string]cell{}
	for _, offload := range []bool{true, false} {
		for _, nm := range []int{1, 4} {
			for _, dysco := range []bool{true, false} {
				env := lab.NewEnv(seed)
				clients, mids, servers := env.Line(lanLink(), dysco, 1, nm)
				for _, h := range env.Net.Hosts() {
					h.ChecksumOffload = offload
				}
				if dysco {
					env.ChainPolicy(clients[0], 80, mids...)
				}
				lat := measureSetupLatency(env, clients[0], servers[0], handshakes)
				xs := make([]float64, len(lat))
				for i, d := range lat {
					xs[i] = float64(d.Microseconds())
				}
				s := stats.Summarize(xs)
				key := fmt.Sprintf("offload=%-5v mbox=%d dysco=%-5v", offload, nm, dysco)
				grid[key] = cell{s.Mean, s.Stddev}
				r.addRow("%s  mean=%7.1fµs sd=%5.1fµs n=%d", key, s.Mean, s.Stddev, s.N)
			}
		}
	}
	// §5.1: the worst case for Dysco is 4 middleboxes without offload;
	// the paper measured a 94 µs mean difference.
	worstD := grid["offload=false mbox=4 dysco=true "]
	worstB := grid["offload=false mbox=4 dysco=false"]
	diff := worstD.mean - worstB.mean
	r.addRow("worst-case Dysco overhead (4 mbox, no offload): %+.1fµs", diff)
	r.check("dysco setup within ~100µs of baseline (paper: 94µs)",
		diff >= 0 && diff < 200, "diff=%.1fµs", diff)
	for _, nm := range []int{1, 4} {
		d := grid[fmt.Sprintf("offload=%-5v mbox=%d dysco=%-5v", true, nm, true)]
		b := grid[fmt.Sprintf("offload=%-5v mbox=%d dysco=%-5v", true, nm, false)]
		r.check(fmt.Sprintf("dysco slower than baseline at %d mbox (offloaded)", nm),
			d.mean >= b.mean, "dysco=%.1fµs baseline=%.1fµs", d.mean, b.mean)
	}
	// More middleboxes must cost more for both systems.
	r.check("baseline latency grows with chain length too",
		grid["offload=true  mbox=4 dysco=false"].mean > grid["offload=true  mbox=1 dysco=false"].mean,
		"4mbox=%.1fµs 1mbox=%.1fµs",
		grid["offload=true  mbox=4 dysco=false"].mean, grid["offload=true  mbox=1 dysco=false"].mean)
	r.check("latency grows with chain length",
		grid["offload=true  mbox=4 dysco=true "].mean > grid["offload=true  mbox=1 dysco=true "].mean,
		"4mbox=%.1fµs 1mbox=%.1fµs",
		grid["offload=true  mbox=4 dysco=true "].mean, grid["offload=true  mbox=1 dysco=true "].mean)
	r.addNote("latencies are simulated; the paper's testbed measured ~100-400µs at the same shape")
	return r
}
