package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// smokeScale runs every workload at about a twentieth of its size.
const smokeScale = 0.05

// declared mirrors the keys of BENCHMARK.json the test pins.
type declared struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatalf("decode BENCHMARK.json: %v", err)
	}
	return d
}

// TestDeclarationMatchesSpec pins BENCHMARK.json to the tables in spec.go:
// same workloads, same metrics, same units, directions and bounds.
func TestDeclarationMatchesSpec(t *testing.T) {
	d := readDeclared(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, spec has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.Name || d.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %q, spec %q", i, d.Workloads[i].Name, w.Name)
		}
		if _, ok := registry[w.Name]; !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: bad name or why", w.Name)
		}
	}
	check := func(kind string, got []declaredMetric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, spec has %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, s := range want {
			g := got[i]
			if g.Name != s.Name || g.Unit != s.Unit || g.Better != s.Better {
				t.Errorf("%s %d: declared %+v, spec %s %s %s", kind, i, g, s.Name, s.Unit, s.Better)
			}
			if !name.MatchString(s.Name) || !unit.MatchString(s.Unit) {
				t.Errorf("%s %s: name or unit %q outside the allowed alphabet", kind, s.Name, s.Unit)
			}
			if s.Better != "lower" && s.Better != "higher" {
				t.Errorf("%s %s: better is %q", kind, s.Name, s.Better)
			}
			if seen[s.Name] {
				t.Errorf("%s %s: declared twice", kind, s.Name)
			}
			seen[s.Name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != s.Bound || s.Bound <= 0 || s.Bound > 0.25):
				t.Errorf("%s %s: bound declared %v, spec %v", kind, s.Name, g.Bound, s.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics have no bound", kind, s.Name)
			}
		}
	}
	check("end_to_end", d.EndToEnd, endToEnd, true)
	check("per_layer", d.PerLayer, perLayer, false)
	if len(d.Paths) != 1 || d.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", d.Paths)
	}
}

// TestSmoke runs both passes of all five workloads at smoke scale and
// checks what they print against what is declared.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	opt := options{seed: 1, scale: smokeScale, repeats: 2, outDir: t.TempDir()}
	for _, w := range workloads {
		ent := registry[w.Name]
		e2e := untracedPass(w.Name, ent, opt)
		layers, err := tracedPass(w.Name, ent, opt)
		if err != nil {
			t.Fatalf("%s traced pass: %v", w.Name, err)
		}
		for _, res := range []*workloadResult{&e2e, &layers} {
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d errors=%v", w.Name, res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			if res.Comparable {
				t.Errorf("%s: a run at scale %g must be marked non-comparable", w.Name, smokeScale)
			}
			for _, m := range res.Metrics {
				if m.Unit == "" || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s %s: unit %q value %v", w.Name, m.Name, m.Unit, m.Value)
				}
			}
		}

		// The driver's line carries exactly the declared names, and no
		// end-to-end value is zero.
		line := driverLineFor(&e2e, false)
		if len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics printed, %d declared", w.Name, len(line.Metrics), len(endToEnd))
		}
		for _, s := range endToEnd {
			if m, ok := line.Metrics[s.Name]; !ok || m.Value <= 0 || m.Unit != s.Unit {
				t.Errorf("%s %s: printed %+v", w.Name, s.Name, m)
			}
		}
		line = driverLineFor(&layers, true)
		if len(line.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics printed, %d declared", w.Name, len(line.Metrics), len(perLayer))
		}
		for _, m := range layers.Metrics {
			if _, ok := line.Metrics[m.Name]; !ok {
				t.Errorf("%s: %s reported but not declared", w.Name, m.Name)
			}
		}

		if m, _ := layers.metric("ops_failed_share"); m.Value != 0 {
			t.Errorf("%s: ops_failed_share = %v", w.Name, m.Value)
		}
		var shares float64
		for _, l := range profileLayers {
			m, ok := layers.metric("cpu." + l + "_share")
			if !ok {
				t.Errorf("%s: cpu.%s_share missing", w.Name, l)
			}
			shares += m.Value
		}
		if math.Abs(shares-1) > 0.02 {
			t.Errorf("%s: cpu shares sum to %v", w.Name, shares)
		}
		checkSpans(t, w.Name, opt.outDir)
	}
}

// checkSpans reads the workload's trace file: every span ends after it
// starts, and no child outlives its parent.
func checkSpans(t *testing.T, workload, dir string) {
	t.Helper()
	b, err := os.ReadFile(dir + "/" + workload + ".trace.json")
	if err != nil {
		t.Errorf("%s: %v", workload, err)
		return
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Errorf("%s trace: %v", workload, err)
		return
	}
	if len(tf.Spans) == 0 {
		t.Errorf("%s: no spans recorded", workload)
	}
	byID := map[int]span{}
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	for _, s := range tf.Spans {
		if s.End < s.Start || s.Self < 0 {
			t.Errorf("%s span %d %s: start %d end %d self %d", workload, s.ID, s.Name, s.Start, s.End, s.Self)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("%s span %d: parent %d not recorded", workload, s.ID, s.Parent)
			continue
		}
		if s.Start < p.Start || s.End > p.End || s.Trace != p.Trace {
			t.Errorf("%s span %d %s [%d,%d] outlives parent %d %s [%d,%d]", workload, s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
}

// TestFoldProfileAttribution checks the layer a symbol name is charged to.
func TestFoldProfileAttribution(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Engine).Run":           "sim",
		"repro/internal/core.(*Agent).removeSession": "core",
		"repro/internal/lab.NewEnv":                  "bench",
		"main.(*bulkSink).accept.func1":              "bench",
		"runtime.mallocgc":                           "",
		"container/heap.Push":                        "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestJudge pins the three verdicts of -compare.
func TestJudge(t *testing.T) {
	spec := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.10}
	steady := func(v float64) metricValue {
		return metricValue{Value: v, Samples: []float64{v * 0.99, v, v * 1.01}}
	}
	noisy := metricValue{Value: 1, Samples: []float64{0.8, 1, 1.2}}
	for _, c := range []struct {
		a, b metricValue
		want string
	}{
		{steady(1), steady(1.05), "ok"},
		{steady(1), steady(1.2), "regressed"},
		{steady(1), noisy, "unresolved"},
		{steady(1), steady(0.5), "ok"},
	} {
		if got := judge(spec, c.a, c.b).verdict; got != c.want {
			t.Errorf("judge(%v -> %v) = %s, want %s", c.a.Value, c.b.Value, got, c.want)
		}
	}
	higher := metricSpec{Name: "pkts_per_s", Better: "higher", Bound: 0.10}
	if got := judge(higher, steady(100), steady(80)).verdict; got != "regressed" {
		t.Errorf("a 20%% drop of a higher-is-better metric is %s", got)
	}
}
