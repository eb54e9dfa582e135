package lab_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/packet"
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
	checkGolden(t, "trace_hash.golden", got, "packet-capture hashes")
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update; what names the contents in the failure message.
func checkGolden(t *testing.T, name, got, what string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
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
		t.Errorf("%s differ from %s:\ngot:\n%swant:\n%s", what, golden, got, want)
	}
}

// tracedRun replays the fault registry's chain scenario at its Inspect
// size with a capture on every host boundary and returns the FNV-1a hash
// of the rendered capture and the rendering itself: one tcpdump-style
// line per packet per boundary crossing.
func tracedRun(t *testing.T, seed int64) (uint64, string) {
	t.Helper()
	sc, _ := fault.ScenarioByName("chain")
	run := sc.Build(seed, sc.Inspect)
	run.Observe()
	var b strings.Builder
	for _, name := range []string{"client", "mb1", "mb2", "server"} {
		capture := func(p *packet.Packet, dir netsim.Direction) netsim.Verdict {
			fmt.Fprintf(&b, "%12v %-10s %-7v %v", run.Env.Eng.Now(), name, dir, p.Tuple)
			if p.IsTCP() {
				fmt.Fprintf(&b, " %v seq=%d ack=%d len=%d win=%d", p.Flags, p.Seq, p.Ack, p.DataLen(), p.Window)
				if n := len(p.Opts.SACK); n > 0 {
					fmt.Fprintf(&b, " sack=%d", n)
				}
			} else {
				fmt.Fprintf(&b, " len=%d", p.DataLen())
			}
			b.WriteByte('\n')
			return netsim.Pass
		}
		host := run.Env.Node(name).Host
		host.AddIngressHook(capture)
		host.AddEgressHook(capture)
	}
	run.Start()
	run.Run()
	if v := run.Violations(); len(v) > 0 {
		t.Fatalf("seed %d: %v", seed, v)
	}
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return h.Sum64(), b.String()
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
