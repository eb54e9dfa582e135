package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/stats"
)

// variant selects one of the configurations a workload can be built in.
// All of them exist in the program already; none is a benchmark-only mode.
type variant int

const (
	// plain is the workload as specified: agents on, observability off.
	plain variant = iota
	// observed turns env.Observe() on (sim workloads).
	observed
	// baseline replaces the Dysco hosts by plain forwarding hosts with no
	// agents (bulk_chain4: the paper's Baseline).
	baseline
)

// runCfg is everything one repeat is built from.
type runCfg struct {
	seed    int64
	scale   float64
	variant variant
}

// workload builds fresh state and brings it to the start of its timed
// window. Everything it does is set-up time.
type workload interface {
	prepare(cfg runCfg, tr *tracer) timed
}

// timed is a prepared workload: one timed window, then untimed checks.
type timed interface {
	// threads is how many goroutines the window keeps busy.
	threads() int
	// window runs the timed section. It calls begin exactly once, when
	// its load generators are ready to go: the clock starts there.
	window(tr *tracer, begin func())
	// finish verifies outputs and fills the outcome's counts.
	finish(o *outcome)
}

// outcome is what one repeat produced.
type outcome struct {
	setupS, wallS, cpuS float64
	threads             int
	// pkts is packets received by simulated hosts, or frames processed by
	// readers, during the window.
	pkts float64
	// goodputGbps is in the workload's own clock (see goodput_gbps).
	goodputGbps       float64
	attempted, failed int64
	// errs are output-correctness violations; any makes the run incorrect.
	errs []string
	// exact holds sim-clock values and counts that must repeat per seed.
	exact map[string]float64
	// host holds workload-specific host-clock values.
	host map[string]float64
	mem  memDelta
}

func (o *outcome) errorf(format string, args ...any) {
	if len(o.errs) < 20 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// busyShare is CPU time over wall time per busy thread.
func (o *outcome) busyShare() float64 {
	return o.cpuS / (o.wallS * float64(o.threads))
}

// memDelta is the Go runtime's allocation and GC activity over a window.
type memDelta struct {
	mallocs, bytes, gcCycles uint64
	gcPauseMs                float64
}

func memSince(a, b *runtime.MemStats) memDelta {
	return memDelta{
		mallocs:   b.Mallocs - a.Mallocs,
		bytes:     b.TotalAlloc - a.TotalAlloc,
		gcCycles:  uint64(b.NumGC - a.NumGC),
		gcPauseMs: float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6,
	}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// runRepeat builds the workload from fresh state, times its window, and
// collects its outcome. The garbage of the previous repeat is collected
// first so every window starts from the same heap.
func runRepeat(wl workload, cfg runCfg, tr *tracer) *outcome {
	return runRepeatHooked(wl, cfg, tr, func() {}, func() {})
}

// runRepeatHooked calls before and after just outside the timed window, so
// a profiler started there sees the window alone and its own start and
// stop are not timed.
func runRepeatHooked(wl workload, cfg runCfg, tr *tracer, before, after func()) *outcome {
	runtime.GC()
	o := &outcome{exact: map[string]float64{}, host: map[string]float64{}}

	t0 := time.Now()
	sp := tr.begin("setup", "bench")
	tw := wl.prepare(cfg, tr)
	tr.end(sp)
	o.setupS = time.Since(t0).Seconds()
	o.threads = tw.threads()

	var m0, m1 runtime.MemStats
	var c0 float64
	var t1 time.Time
	sp = tr.begin("window", "bench")
	tw.window(tr, func() {
		runtime.ReadMemStats(&m0)
		before()
		c0 = cpuSeconds()
		t1 = time.Now()
	})
	o.wallS = time.Since(t1).Seconds()
	o.cpuS = cpuSeconds() - c0
	tr.end(sp)
	after()
	runtime.ReadMemStats(&m1)
	o.mem = memSince(&m0, &m1)

	sp = tr.begin("finish", "bench")
	tw.finish(o)
	tr.end(sp)
	return o
}

// minBusyShare is the noise guard's threshold: below it another tenant
// had the core during the window.
const minBusyShare = 0.85

// maxReruns bounds how many noisy repeats a pass with a fixed repeat count
// may replace. A pass with a time budget replaces as many as fit in it.
const maxReruns = 2

// repeatSet is the untraced repeats of one pass: outs are the ones its
// medians use, leftOut the ones the noise guard set aside. Operations and
// errors count from both.
type repeatSet struct {
	outs, leftOut []*outcome
}

// runRepeats runs untraced repeats of cfg: n quiet ones when n > 0 (giving
// up after maxReruns noisy ones), otherwise as many as fit in budget (at
// least 3). Noise guard: a repeat whose busy share is under minBusyShare
// is left out of the medians when enough quiet repeats exist without it.
// Every repeat, quiet or not, must reproduce the first's exact values:
// determinism is an output check.
func runRepeats(wl workload, cfg runCfg, n int, budget time.Duration) *repeatSet {
	need := n
	if n <= 0 {
		need = 3
	}
	var quiet, noisy []*outcome
	var first *outcome
	start := time.Now()
	for {
		total := len(quiet) + len(noisy)
		if n > 0 && (len(quiet) >= n || total >= n+maxReruns) {
			break
		}
		// One more repeat must fit in what is left of the budget.
		if elapsed := time.Since(start); n <= 0 && total >= need && elapsed+elapsed/time.Duration(total) > budget {
			break
		}
		o := runRepeat(wl, cfg, nil)
		if first == nil {
			first = o
		} else if diff := diffExact(first.exact, o.exact); diff != "" {
			o.errorf("repeat %d differs from repeat 1 on the same seed: %s", total+1, diff)
		}
		if o.busyShare() < minBusyShare {
			noisy = append(noisy, o)
		} else {
			quiet = append(quiet, o)
		}
	}
	// Too few quiet repeats: the noisy ones are still measurements.
	for len(quiet) < need && len(noisy) > 0 {
		quiet, noisy = append(quiet, noisy[0]), noisy[1:]
	}
	return &repeatSet{outs: quiet, leftOut: noisy}
}

func (rs *repeatSet) all() []*outcome {
	return append(append([]*outcome(nil), rs.outs...), rs.leftOut...)
}

// diffExact names the first key on which two exact maps disagree.
func diffExact(a, b map[string]float64) string {
	for _, k := range sortedKeys(a) {
		if bv, ok := b[k]; !ok || bv != a[k] {
			return fmt.Sprintf("%s: %v vs %v", k, a[k], bv)
		}
	}
	for _, k := range sortedKeys(b) {
		if _, ok := a[k]; !ok {
			return fmt.Sprintf("%s: missing vs %v", k, b[k])
		}
	}
	return ""
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// samples extracts one number per repeat.
func (rs *repeatSet) samples(f func(*outcome) float64) []float64 {
	xs := make([]float64, len(rs.outs))
	for i, o := range rs.outs {
		xs[i] = f(o)
	}
	return xs
}

func (rs *repeatSet) attempted() (attempted, failed int64) {
	for _, o := range rs.all() {
		attempted += o.attempted
		failed += o.failed
	}
	return attempted, failed
}

func (rs *repeatSet) errs() []string {
	var errs []string
	for _, o := range rs.all() {
		errs = append(errs, o.errs...)
	}
	return errs
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the p-quantile by linear interpolation between closest ranks.
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Percentile(s, p)
}
