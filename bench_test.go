// Package repro's root benchmarks regenerate the paper's evaluation
// through `go test -bench`: one benchmark per table/figure (the bench
// harness `cmd/dyscobench` prints the full rows/series; these benchmarks
// measure the wall-clock cost of regenerating each one and assert the
// paper's qualitative claims hold).
package repro

import (
	"os"
	"os/exec"
	"testing"

	"repro/internal/exp"
	"repro/internal/model"
)

// benchScale keeps `go test -bench=.` to minutes: the quick timeline with
// fewer sessions than even the harness quick scale.
func benchScale() exp.Scale { return exp.Scale{Time: 4, Sessions: 8, Label: "bench"} }

func runExp(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := exp.Run(id, benchScale(), 42+int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if !r.Passed() {
			for _, c := range r.Checks {
				if !c.OK {
					b.Errorf("check failed: %s (%s)", c.Name, c.Got)
				}
			}
		}
	}
}

// BenchmarkFig8SetupLatency regenerates Figure 8 (session setup latency,
// Dysco vs baseline, 1 and 4 middleboxes, checksum offload on/off).
func BenchmarkFig8SetupLatency(b *testing.B) { runExp(b, "fig8") }

// BenchmarkFig9Goodput regenerates Figure 9 (goodput vs session count).
func BenchmarkFig9Goodput(b *testing.B) { runExp(b, "fig9") }

// BenchmarkFig10HTTP regenerates Figure 10 (HTTP requests/s under a
// wrk-like load through 1 and 4 middleboxes).
func BenchmarkFig10HTTP(b *testing.B) { runExp(b, "fig10") }

// BenchmarkFig12ProxyRemoval regenerates Figure 12 (goodput and proxy CPU
// across staged proxy removals).
func BenchmarkFig12ProxyRemoval(b *testing.B) { runExp(b, "fig12") }

// BenchmarkFig13ReconfigTime regenerates Figure 13 (CDF of reconfiguration
// time for proxy removal).
func BenchmarkFig13ReconfigTime(b *testing.B) { runExp(b, "fig13") }

// BenchmarkFig14SACK regenerates Figure 14 (TCP behaviour across
// reconfiguration with SACK on/off).
func BenchmarkFig14SACK(b *testing.B) { runExp(b, "fig14") }

// BenchmarkFig15StateTransfer regenerates Figure 15 (firewall replacement
// with state migration).
func BenchmarkFig15StateTransfer(b *testing.B) { runExp(b, "fig15") }

// BenchmarkVerify runs the §3.7 Spin-equivalent verification battery.
func BenchmarkVerify(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Verify()
		if !r.Passed() {
			b.Fatal("verification failed")
		}
	}
}

// BenchmarkAblationWindow measures the old-path window-strategy ablation.
func BenchmarkAblationWindow(b *testing.B) { runExp(b, "ablation-window") }

// BenchmarkAblationEncap measures the rewrite-vs-encapsulation accounting.
func BenchmarkAblationEncap(b *testing.B) { runExp(b, "ablation-encap") }

// BenchmarkAblationState measures the rule-state-vs-host-state comparison.
func BenchmarkAblationState(b *testing.B) { runExp(b, "ablation-state") }

// BenchmarkLockModelExploration measures raw model-checking throughput on
// the Figure 5 contention configuration.
func BenchmarkLockModelExploration(b *testing.B) {
	cfg := model.LockConfig{Agents: 4, Requests: []model.Segment{{Left: 1, Right: 3}, {Left: 0, Right: 2}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, v := model.Explore(model.NewLockState(&cfg), 0); v != nil {
			b.Fatal(v)
		}
	}
}

// TestBenchModuleVets type-checks the perf ledger against this tree.
// bench/ is a nested module, so `go test ./...` never compiles it and a
// removed or renamed name it pins (BENCHMARK.json forbids editing bench/
// to follow) would otherwise first show as a failed perf run.
func TestBenchModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go vet on the bench module")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOFLAGS=", "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go -C bench vet ./...: %v\n%s", err, out)
	}
}
