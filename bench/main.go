// Command bench is the repository's performance ledger: five workloads,
// end-to-end metrics measured with tracing off, and a traced pass that
// attributes each workload's cost to the layers under it - all from
// outside, through the public API of the internal packages. See README.md.
//
//	go run -C bench . [-seed 1] [-workload all] [-json bench/out/result.json]
//	go run -C bench . -compare a.json b.json
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// entry binds a workload's name to its implementation and says which
// parts of the traced pass apply to it.
type entry struct {
	// impl is a wireLoad, or a sim workload: those run on the virtual
	// clock and have the observability ablation and the sim kernels.
	impl workload
	// hasBaseline workloads can be rebuilt without agents.
	hasBaseline bool
}

var registry = map[string]entry{
	"bulk_chain4":   {impl: bulkChain4{}, hasBaseline: true},
	"conn_churn":    {impl: connChurn{}},
	"proxy_removal": {impl: proxyRemoval{}},
	"wire_fastpath": {impl: wireFastpath},
	"wire_churn":    {impl: wireChurn},
}

// metricValue is one reported number: the median of its samples.
type metricValue struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Clock   string    `json:"clock"`
	Class   string    `json:"class"` // end_to_end or per_layer
	Value   float64   `json:"value"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Scale    float64 `json:"scale"`
	// Comparable is false for smoke runs at a scale other than 1.
	Comparable bool          `json:"comparable"`
	Repeats    int           `json:"repeats"`
	Reruns     int           `json:"reruns"`
	Attempted  int64         `json:"attempted"`
	Failed     int64         `json:"failed"`
	Correct    bool          `json:"correct"`
	Errors     []string      `json:"errors,omitempty"`
	Metrics    []metricValue `json:"metrics"`
}

func (r *workloadResult) metric(name string) (metricValue, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metricValue{}, false
}

// hostInfo says where the numbers were taken and how load was generated.
type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	OSArch     string `json:"os_arch"`
	Load       string `json:"load"`
}

func thisHost() hostInfo {
	h := hostInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		GOGC:       os.Getenv("GOGC"),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Load:       "closed loops generated in one process with at most 2 busy threads; traffic crosses simulated links or in-memory frames, never a socket, a real link or the loopback interface",
	}
	if h.GOGC == "" {
		h.GOGC = "100 (default)"
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// resultFile is what -json writes and -compare reads.
type resultFile struct {
	Host    hostInfo         `json:"host"`
	Results []workloadResult `json:"results"`
}

type options struct {
	seed    int64
	scale   float64
	repeats int
	seconds int
	outDir  string
}

func main() {
	var (
		opt      options
		workload = flag.String("workload", "all", "workload name, comma-separated names, or all")
		trace    = flag.Int("trace", 0, "single pass in this process: 0 = end-to-end metrics with tracing off, 1 = per-layer metrics from the traced pass; when not given, both passes run, each in a fresh child process")
		jsonOut  = flag.String("json", "", "write the result file here (default <out>/result.json when both passes run)")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments; exit 1 on any regression")
		list     = flag.Bool("list", false, "print the workload and metric glossary")
		declare  = flag.Bool("declare", false, "print BENCHMARK.json as spec.go declares it")
	)
	flag.Int64Var(&opt.seed, "seed", 1, "seed for the sim engine, flow choice and stagger")
	flag.Float64Var(&opt.scale, "scale", 1, "shrink timed windows (smoke tests only; results at a scale other than 1 are marked non-comparable)")
	flag.IntVar(&opt.repeats, "repeats", 0, "untraced repeats per workload (0 = as many as fit in -seconds, at least 3; 5 when both passes run)")
	flag.IntVar(&opt.seconds, "seconds", runSeconds, "time budget of one pass when -repeats is 0")
	flag.StringVar(&opt.outDir, "out", defaultOutDir(), "directory for trace files and child results")
	flag.Parse()

	var err error
	switch {
	case *list:
		printGlossary()
	case *declare:
		err = printDeclaration()
	case *compare:
		err = compareFiles(flag.Args())
	case flagGiven("trace"):
		err = singlePass(*workload, *trace == 1, opt, *jsonOut)
	default:
		err = bothPasses(*workload, opt, *jsonOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func flagGiven(name string) bool {
	given := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			given = true
		}
	})
	return given
}

// defaultOutDir keeps outputs under bench/ whether the binary is started
// from the repository root (run.sh) or from bench/ (go run -C bench).
func defaultOutDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return filepath.Join("bench", "out")
	}
	return "out"
}

func workloadNames(arg string) ([]string, error) {
	if arg == "all" {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.Name
		}
		return names, nil
	}
	names := strings.Split(arg, ",")
	for _, n := range names {
		if _, ok := registry[n]; !ok {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
	}
	return names, nil
}

// singlePass runs one pass of one workload in this process and prints, as
// the last line of standard output, the JSON object the driver reads.
func singlePass(name string, traced bool, opt options, jsonOut string) error {
	ent, ok := registry[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (a single pass takes one workload)", name)
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return err
	}
	var res workloadResult
	var err error
	if traced {
		res, err = tracedPass(name, ent, opt)
	} else {
		res = untracedPass(name, ent, opt)
	}
	if err != nil {
		return err
	}
	printResult(&res)
	if jsonOut != "" {
		if err := writeJSON(jsonOut, resultFile{Host: thisHost(), Results: []workloadResult{res}}); err != nil {
			return err
		}
	}
	return printDriverLine(&res, traced)
}

func newResult(name string, opt options) workloadResult {
	return workloadResult{Workload: name, Seed: opt.seed, Scale: opt.scale, Comparable: opt.scale == 1}
}

func (r *workloadResult) absorb(rs *repeatSet) {
	r.Repeats = len(rs.outs)
	r.Reruns = len(rs.leftOut)
	r.Attempted, r.Failed = rs.attempted()
	r.Errors = append(r.Errors, rs.errs()...)
}

// take counts one more window's operations and errors.
func (r *workloadResult) take(o *outcome) {
	r.Attempted += o.attempted
	r.Failed += o.failed
	r.Errors = append(r.Errors, o.errs...)
}

func (r *workloadResult) add(spec metricSpec, class string, samples []float64) {
	mv := metricValue{Name: spec.Name, Unit: spec.Unit, Clock: spec.Clock, Class: class,
		Value: median(samples), Min: quantile(samples, 0), Max: quantile(samples, 1), N: len(samples)}
	if len(samples) > 1 {
		mv.Samples = samples
	}
	r.Metrics = append(r.Metrics, mv)
}

// untracedPass measures the end-to-end metrics: repeats from fresh state
// with the same seed, tracing off, medians reported.
func untracedPass(name string, ent entry, opt options) workloadResult {
	res := newResult(name, opt)
	cfg := runCfg{seed: opt.seed, scale: opt.scale}
	rs := runRepeats(ent.impl, cfg, opt.repeats, time.Duration(opt.seconds)*time.Second)
	res.absorb(rs)
	values := map[string][]float64{
		"setup_s":      rs.samples(func(o *outcome) float64 { return o.setupS }),
		"wall_s":       rs.samples(func(o *outcome) float64 { return o.wallS }),
		"pkts_per_s":   rs.samples(func(o *outcome) float64 { return o.pkts / o.wallS }),
		"cpu_s":        rs.samples(func(o *outcome) float64 { return o.cpuS }),
		"peak_rss_mb":  {peakRSSMB()},
		"goodput_gbps": rs.samples(func(o *outcome) float64 { return o.goodputGbps }),
	}
	for _, spec := range endToEnd {
		res.add(spec, "end_to_end", values[spec.Name])
	}
	res.Correct = len(res.Errors) == 0 && res.Failed == 0
	return res
}

// tracedPass produces the per-layer metrics: exact counts from two
// untraced repeats, then a profiled and spanned window, the ablations the
// workload has, and the isolated kernels.
func tracedPass(name string, ent entry, opt options) (workloadResult, error) {
	res := newResult(name, opt)
	cfg := runCfg{seed: opt.seed, scale: opt.scale}
	rs := runRepeats(ent.impl, cfg, 2, 0)
	res.absorb(rs)
	ref := rs.outs[0]
	wall := median(rs.samples(func(o *outcome) float64 { return o.wallS }))

	m := map[string]float64{}
	for k, v := range ref.exact {
		m[k] = v
	}
	for k, v := range ref.host {
		m[k] = v
	}
	m["go.allocs_per_pkt"] = float64(ref.mem.mallocs) / ref.pkts
	m["go.bytes_per_pkt"] = float64(ref.mem.bytes) / ref.pkts
	m["go.gc_cycles"] = float64(ref.mem.gcCycles)
	m["go.gc_pause_ms"] = ref.mem.gcPauseMs
	m["go.cpu_s"] = ref.cpuS
	m["go.busy_share"] = ref.busyShare()
	m["bench.reruns"] = float64(len(rs.leftOut))

	// Traced windows: CPU profile and spans together, until the profile
	// holds enough samples.
	tr := newTracer()
	layers := map[string]int64{}
	var samples int64
	var tracedWall []float64
	var prof []byte
	for n := 0; n < maxTracedWindows && float64(samples) < 2000*opt.scale; n++ {
		tr.trace = n + 1
		var o *outcome
		var err error
		if o, prof, err = runProfiled(ent.impl, cfg, tr); err != nil {
			return res, err
		}
		if diff := diffExact(ref.exact, o.exact); diff != "" {
			res.Errors = append(res.Errors, "traced window differs from untraced repeat: "+diff)
		}
		res.take(o)
		tracedWall = append(tracedWall, o.wallS)
		folded, total, err := foldProfile(prof)
		if err != nil {
			return res, err
		}
		for l, c := range folded {
			layers[l] += c
		}
		samples += total
	}
	if samples == 0 {
		return res, errors.New("the CPU profile of the traced windows is empty")
	}
	for _, l := range profileLayers {
		m["cpu."+l+"_share"] = float64(layers[l]) / float64(samples)
	}
	m["bench.trace_cost_ratio"] = median(tracedWall) / wall
	// The last window's raw profile is kept for go tool pprof.
	if err := os.WriteFile(filepath.Join(opt.outDir, name+".cpu.pprof"), prof, 0o644); err != nil {
		return res, err
	}
	if err := writeTrace(filepath.Join(opt.outDir, name+".trace.json"), name, opt.seed, tr.all()); err != nil {
		return res, err
	}

	k := kernelTimer{calls: int(kernelCalls * opt.scale)}
	if wl, wire := ent.impl.(wireLoad); wire {
		wireKernels(k, wl, cfg, m)
		if wl.readers == 2 {
			m["dataplane.scaling_2r"] = ref.pkts / wall * m["dataplane.inline_ns_per_frame_1r"] / 1e9
		}
	} else {
		cfg.variant = observed
		o := runRepeat(ent.impl, cfg, nil)
		res.take(o)
		m["obs.host_cost_ratio"] = o.wallS / wall
		m["obs.events"] = o.exact["obs.events"]
		m["obs.hash"] = o.exact["obs.hash"]
		delete(o.exact, "obs.events")
		delete(o.exact, "obs.hash")
		if diff := diffExact(ref.exact, o.exact); diff != "" {
			res.Errors = append(res.Errors, "turning observability on changed the simulation: "+diff)
		}
		simKernels(k, int(ref.exact["sim.pending_max"]), m)
		packetKernels(k, simFrame(), m)
	}
	if ent.hasBaseline {
		cfg.variant = baseline
		o := runRepeat(ent.impl, cfg, nil)
		res.take(o)
		m["core.host_cost_ratio"] = wall / o.wallS
		m["core.sim_goodput_gap_pct"] = (o.goodputGbps - ref.goodputGbps) / o.goodputGbps * 100
	}

	m["ops_failed_share"] = float64(res.Failed) / float64(res.Attempted)
	for _, spec := range perLayer {
		if v, ok := m[spec.Name]; ok {
			res.add(spec, "per_layer", []float64{v})
		}
	}
	res.Correct = len(res.Errors) == 0 && res.Failed == 0
	return res, nil
}

// maxTracedWindows bounds the traced pass when the host delivers few
// profile samples per second.
const maxTracedWindows = 8

// runProfiled is runRepeat with spans on and a CPU profile of the timed
// window only.
func runProfiled(wl workload, cfg runCfg, tr *tracer) (*outcome, []byte, error) {
	var buf bytes.Buffer
	var startErr error
	o := runRepeatHooked(wl, cfg, tr,
		func() { startErr = startProfile(&buf) },
		pprof.StopCPUProfile)
	if startErr != nil {
		return nil, nil, fmt.Errorf("start CPU profile: %w", startErr)
	}
	return o, buf.Bytes(), nil
}

// printResult prints every metric by name with its unit.
func printResult(r *workloadResult) {
	fmt.Printf("== %s  seed=%d scale=%g repeats=%d reruns=%d attempted=%d failed=%d correct=%v\n",
		r.Workload, r.Seed, r.Scale, r.Repeats, r.Reruns, r.Attempted, r.Failed, r.Correct)
	for _, m := range r.Metrics {
		spread := ""
		if m.N > 1 {
			spread = fmt.Sprintf("  [min %.6g max %.6g n=%d]", m.Min, m.Max, m.N)
		}
		fmt.Printf("%-36s %16.6g %-7s %-5s%s\n", m.Name, m.Value, m.Unit, m.Clock, spread)
	}
	for _, e := range r.Errors {
		fmt.Printf("ERROR %s\n", e)
	}
}

// driverLine is the last line of a single pass's standard output.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLineFor carries every declared metric of the pass. A per-layer
// metric that does not apply to the workload is 0 here: the driver wants
// every name on every workload.
func driverLineFor(r *workloadResult, traced bool) driverLine {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	line := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverMetric{}}
	for _, spec := range specs {
		mv, _ := r.metric(spec.Name)
		line.Metrics[spec.Name] = driverMetric{Value: mv.Value, Unit: spec.Unit}
	}
	return line
}

func printDriverLine(r *workloadResult, traced bool) error {
	b, err := json.Marshal(driverLineFor(r, traced))
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// bothPasses is the ledger run: each workload's untraced and traced pass
// in a fresh child process each (fresh heap; peak_rss_mb is that child's
// high-water mark), merged into one result file.
func bothPasses(arg string, opt options, jsonOut string) error {
	names, err := workloadNames(arg)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return err
	}
	if jsonOut == "" {
		jsonOut = filepath.Join(opt.outDir, "result.json")
	}
	if opt.repeats == 0 {
		opt.repeats = 5
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out := resultFile{Host: thisHost()}
	var failed []string
	for _, name := range names {
		var merged workloadResult
		for pass := 0; pass <= 1; pass++ {
			part := filepath.Join(opt.outDir, fmt.Sprintf("%s.pass%d.json", name, pass))
			cmd := exec.Command(self,
				"-workload", name, "-trace", fmt.Sprint(pass), "-json", part,
				"-seed", fmt.Sprint(opt.seed), "-scale", fmt.Sprint(opt.scale),
				"-repeats", fmt.Sprint(opt.repeats), "-out", opt.outDir)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s pass %d: %w", name, pass, err)
			}
			rf, err := readResultFile(part)
			if err != nil {
				return err
			}
			if len(rf.Results) != 1 {
				return errors.New(part + ": want exactly one result")
			}
			r := rf.Results[0]
			if pass == 0 {
				merged = r
				continue
			}
			merged.Metrics = append(merged.Metrics, r.Metrics...)
			merged.Errors = append(merged.Errors, r.Errors...)
			merged.Correct = merged.Correct && r.Correct
		}
		if !merged.Correct {
			failed = append(failed, name)
		}
		out.Results = append(out.Results, merged)
	}
	if err := writeJSON(jsonOut, out); err != nil {
		return err
	}
	fmt.Printf("result file: %s\n", jsonOut)
	if len(failed) > 0 {
		return fmt.Errorf("incorrect outputs on %s", strings.Join(failed, ", "))
	}
	return nil
}

func printGlossary() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-14s %s\n", w.Name, w.Why)
	}
	for _, part := range []struct {
		title string
		specs []metricSpec
	}{{"end-to-end metrics (tracing off)", endToEnd}, {"per-layer metrics (traced pass)", perLayer}} {
		fmt.Printf("\n%s:\n", part.title)
		for _, s := range part.specs {
			bound := ""
			if s.Bound > 0 {
				bound = fmt.Sprintf(" bound %g%%", s.Bound*100)
			}
			moves := ""
			if s.Moves != "" {
				moves = " -> " + s.Moves
			}
			fmt.Printf("  %-34s %-7s %-6s %-5s%s  %s%s\n", s.Name, s.Unit, s.Better, s.Clock, bound, s.Doc, moves)
		}
	}
}

// runSeconds is how long the driver lets one pass measure.
const runSeconds = 16

// printDeclaration prints BENCHMARK.json from the tables in spec.go, in
// the schema the driver's contract gives. bench_test.go pins the
// checked-in file to the same tables.
func printDeclaration() error {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	decl := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		decl.Workloads = append(decl.Workloads, named{w.Name, w.Why})
	}
	for _, s := range endToEnd {
		bound := s.Bound
		decl.EndToEnd = append(decl.EndToEnd, metric{s.Name, s.Unit, s.Better, &bound})
	}
	for _, s := range perLayer {
		decl.PerLayer = append(decl.PerLayer, metric{s.Name, s.Unit, s.Better, nil})
	}
	b, err := json.MarshalIndent(decl, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
