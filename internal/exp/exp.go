// Package exp reproduces every table and figure of the paper's evaluation
// (§5) plus the ablations called out in DESIGN.md. Each experiment builds
// its testbed on internal/lab, runs in virtual time, and returns a Result
// with the same rows/series the paper reports.
//
// Scale substitutions (documented in EXPERIMENTS.md): sweeps default to a
// "quick" scale that divides durations and the largest session counts so
// the full suite runs in minutes of wall-clock time; -full restores the
// paper's parameters. Shapes are preserved at both scales.
package exp

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Result is one experiment's output.
type Result struct {
	Name  string
	Title string
	// Rows are pre-formatted table lines.
	Rows []string
	// Series are named time/parameter series for plot-shaped figures.
	Series map[string][]float64
	// Notes records scale substitutions and observations.
	Notes []string
	// Checks records pass/fail assertions on the paper's qualitative
	// claims ("who wins, by roughly what factor").
	Checks []Check
}

// Check is one qualitative assertion about the result.
type Check struct {
	Name string
	OK   bool
	Got  string
}

func (r *Result) addRow(format string, args ...any) {
	r.Rows = append(r.Rows, fmt.Sprintf(format, args...))
}

func (r *Result) addNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *Result) addSeries(name string, vals []float64) {
	if r.Series == nil {
		r.Series = make(map[string][]float64)
	}
	r.Series[name] = vals
}

func (r *Result) check(name string, ok bool, got string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, OK: ok, Got: fmt.Sprintf(got, args...)})
}

// Passed reports whether all checks passed.
func (r *Result) Passed() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// String renders the result for the harness output.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "==== %s — %s ====\n", r.Name, r.Title)
	for _, row := range r.Rows {
		b.WriteString(row)
		b.WriteString("\n")
	}
	if len(r.Series) > 0 {
		names := make([]string, 0, len(r.Series))
		for n := range r.Series {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "series %-28s", n)
			for _, v := range r.Series[n] {
				fmt.Fprintf(&b, " %.4g", v)
			}
			b.WriteString("\n")
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, c := range r.Checks {
		status := "PASS"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "check [%s] %s: %s\n", status, c.Name, c.Got)
	}
	return b.String()
}

// Scale divides the heavy parameters of the paper's experiments.
type Scale struct {
	// Time divides experiment durations (fig 12/14/15 run 120/60/120 s in
	// the paper).
	Time int
	// Sessions divides large session counts (fig 9's 10000, fig 12's 600).
	Sessions int
	// Quick is the default harness scale; Full restores paper parameters.
	Label string
}

// QuickScale keeps the full suite to minutes of wall time.
func QuickScale() Scale { return Scale{Time: 4, Sessions: 4, Label: "quick"} }

// FullScale runs the paper's parameters.
func FullScale() Scale { return Scale{Time: 1, Sessions: 1, Label: "full"} }

// All returns every experiment by id in paper order.
func All() []string {
	return []string{
		"fig8", "fig9", "fig10", "fig12", "fig13", "fig14", "fig15",
		"verify", "ablation-window", "ablation-rto", "ablation-encap",
		"ablation-state",
	}
}

// Run dispatches one experiment by id.
func Run(id string, sc Scale, seed int64) (*Result, error) {
	switch id {
	case "fig8":
		return Fig8(seed), nil
	case "fig9":
		return Fig9(sc, seed), nil
	case "fig10":
		return Fig10(sc, seed), nil
	case "fig12":
		return Fig12(sc, seed), nil
	case "fig13":
		return Fig13(sc, seed), nil
	case "fig14":
		return Fig14(seed), nil
	case "fig15":
		return Fig15(sc, seed), nil
	case "verify":
		return Verify(), nil
	case "ablation-window":
		return AblationWindow(sc, seed), nil
	case "ablation-rto":
		return AblationRTO(sc, seed), nil
	case "ablation-encap":
		return AblationEncap(seed), nil
	case "ablation-state":
		return AblationState(), nil
	default:
		return nil, fmt.Errorf("exp: unknown experiment %q (have %v)", id, All())
	}
}

// summarizeDurations renders a stats row over duration samples in µs.
func summarizeDurations(label string, ds []sim.Time) string {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d.Microseconds())
	}
	s := stats.Summarize(xs)
	return fmt.Sprintf("%-34s n=%-5d mean=%8.1fµs sd=%7.1fµs p50=%8.1fµs p99=%8.1fµs",
		label, s.N, s.Mean, s.Stddev, s.P50, s.P99)
}
