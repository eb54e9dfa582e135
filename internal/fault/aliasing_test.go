package fault

import (
	"bytes"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/lab"
	"repro/internal/tcp"
)

// TestStreamSlicesSurviveLossDupAndCorrupt: TCP segments carry the very
// bytes the sender passed to Send, so a fault that damaged a payload in
// place would damage the sender's buffer and every later retransmission
// from it. The client streams sub-slices of one buffer through access links
// that lose, duplicate and corrupt packets; afterwards the buffer hashes as
// before and the server received exactly the stream.
func TestStreamSlicesSurviveLossDupAndCorrupt(t *testing.T) {
	env := lab.NewEnv(7)
	client := env.AddNode("client", lab.HostOptions{Link: harnessLink(), Stack: true})
	server := env.AddNode("server", lab.HostOptions{Link: harnessLink(), Stack: true})
	env.Net.ComputeRoutes()
	plan := Plan{Name: "loss-dup-corrupt", Ops: []Op{
		{Kind: OpLinkLoss, Host: "client", Prob: 0.02},
		{Kind: OpLinkDup, Host: "client", Prob: 0.05},
		{Kind: OpLinkCorrupt, Host: "client", Prob: 0.05},
		{Kind: OpLinkCorrupt, Host: "server", Prob: 0.05},
	}}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	NewInjector(env.Eng, env.Net, nil, 7, plan, map[string]Target{
		"client": target(client, env.Router.Addr),
		"server": target(server, env.Router.Addr),
	})

	buf := pattern(1 << 20)
	hash := func() uint64 {
		h := fnv.New64a()
		h.Write(buf)
		return h.Sum64()
	}
	before := hash()
	got := collectAt(server, 80)
	conn := client.Stack.Connect(server.Addr(), 80, tcp.Config{})
	conn.OnEstablished = func() {
		for off := 0; off < len(buf); off += 10_000 {
			if err := conn.Send(buf[off:min(off+10_000, len(buf))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	env.RunFor(30 * time.Second)

	corrupted := env.Router.Stats.DropsCorrupt + server.Host.Stats.DropsCorrupt
	if corrupted == 0 || conn.Stats.Retransmits == 0 {
		t.Fatalf("%d corrupted packets, %d retransmissions: the plan damaged nothing", corrupted, conn.Stats.Retransmits)
	}
	if hash() != before {
		t.Errorf("the sender's buffer changed under the faults")
	}
	if !bytes.Equal(*got, buf) {
		t.Errorf("server received %d bytes, want the exact %d-byte stream", len(*got), len(buf))
	}
}
