package lab_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/mbox"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files instead of comparing")

// TestSameSeedSameTrace runs the full chained-transfer-plus-reconfiguration
// scenario twice with the same seed and requires the byte-identical packet
// trace. This is the regression test for the determinism invariants the
// lint suite enforces statically (no wall clock, no unseeded randomness,
// no effects from map iteration): if any of them regresses dynamically,
// the two traces diverge here.
func TestSameSeedSameTrace(t *testing.T) {
	h1, d1 := tracedRun(t, 7)
	h2, d2 := tracedRun(t, 7)
	if h1 != h2 || d1 != d2 {
		t.Fatalf("same seed produced different traces (hash %#x vs %#x):\nrun1:\n%s\nrun2:\n%s",
			h1, h2, head(d1, 40), head(d2, 40))
	}
	// Different seeds must actually reach the randomness (ISNs, timer
	// jitter): identical traces would mean the seed is ignored and the
	// test above is vacuous.
	h3, _ := tracedRun(t, 8)
	if h1 == h3 {
		t.Fatalf("seeds 7 and 8 produced identical traces; seed is not reaching the scenario")
	}

	// The capture hash covers every header field of every packet at every
	// host boundary — sequence numbers included, which no obs event
	// carries — so pinning it per seed makes "the simulated path behaves
	// as before" a checked-in fact. Regenerate with
	// `go test ./internal/lab -run TestSameSeedSameTrace -update` only when
	// a behaviour change is intended.
	got := fmt.Sprintf("seed=7 %016x\nseed=8 %016x\n", h1, h3)
	golden := filepath.Join("testdata", "trace_hash.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("packet-capture hashes differ from %s:\ngot:\n%swant:\n%s", golden, got, want)
	}
}

// tracedRun executes one seeded scenario with a capture on every host
// boundary and returns the trace hash and rendering.
func tracedRun(t *testing.T, seed int64) (uint64, string) {
	t.Helper()
	link := netsim.LinkConfig{Delay: 100 * time.Microsecond, Bandwidth: netsim.Gbps(1)}
	env := lab.NewEnv(seed)
	client := env.AddNode("client", lab.HostOptions{Link: link, Stack: true, Agent: true})
	mb1 := env.AddNode("mb1", lab.HostOptions{Link: link, App: mbox.NewMonitor()})
	mb2 := env.AddNode("mb2", lab.HostOptions{Link: link, App: mbox.NewMonitor()})
	server := env.AddNode("server", lab.HostOptions{Link: link, Stack: true, Agent: true})
	env.Net.ComputeRoutes()
	env.ChainPolicy(client, 80, mb1)

	cap := trace.New(env.Eng, nil)
	for _, n := range []*lab.Node{client, mb1, mb2, server} {
		cap.Attach(n.Host)
	}

	const total = 128 << 10
	received := 0
	server.Stack.Listen(80, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { received += len(b) }
	})
	conn := client.Stack.Connect(server.Addr(), 80, tcp.Config{})
	var sendErr error
	conn.OnEstablished = func() { sendErr = conn.Send(make([]byte, total)) }
	env.RunFor(50 * time.Millisecond)
	if sendErr != nil {
		t.Fatalf("send: %v", sendErr)
	}
	err := client.Agent.StartReconfig(conn.Tuple(), core.ReconfigOptions{
		RightAnchor:    server.Addr(),
		NewMiddleboxes: []packet.Addr{mb2.Addr()},
		OnDone:         func(bool, sim.Time) {},
	})
	if err != nil {
		t.Fatalf("StartReconfig: %v", err)
	}
	env.RunFor(10 * time.Second)
	if received != total {
		t.Fatalf("seed %d: server received %d of %d bytes", seed, received, total)
	}
	if cap.Truncated {
		t.Fatalf("seed %d: capture truncated; raise the limit", seed)
	}
	return cap.Hash(), cap.Dump()
}

// head returns the first n lines of s.
func head(s string, n int) string {
	lines := 0
	for i := range s {
		if s[i] == '\n' {
			if lines++; lines == n {
				return s[:i+1]
			}
		}
	}
	return s
}
