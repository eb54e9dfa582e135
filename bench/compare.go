package main

import (
	"errors"
	"fmt"
	"math"
)

// compareFiles is -compare a.json b.json: a is the baseline, b the
// candidate. One row per workload and end-to-end metric with both
// medians, the wider quartile spread, the change in the worse direction,
// the bound, and a verdict; every exact metric (virtual-time values,
// counts, obs.hash) must be equal. It fails on any regressed or differing
// row.
func compareFiles(paths []string) error {
	if len(paths) != 2 {
		return errors.New("-compare takes two result files: baseline candidate")
	}
	a, err := readResultFile(paths[0])
	if err != nil {
		return err
	}
	b, err := readResultFile(paths[1])
	if err != nil {
		return err
	}
	bounds := specByName(endToEnd)
	layer := specByName(perLayer)
	var regressed, unresolved, differing, missing int

	fmt.Printf("%-14s %-16s %14s %14s %8s %8s %7s  %s\n",
		"workload", "metric", "baseline", "candidate", "spread", "worse", "bound", "verdict")
	for _, ra := range a.Results {
		rb := findResult(b, ra.Workload)
		if rb == nil {
			fmt.Printf("%-14s missing from %s\n", ra.Workload, paths[1])
			missing++
			continue
		}
		if !ra.Comparable || !rb.Comparable || ra.Seed != rb.Seed {
			fmt.Printf("%-14s not comparable (scale %g vs %g, seed %d vs %d)\n",
				ra.Workload, ra.Scale, rb.Scale, ra.Seed, rb.Seed)
			missing++
			continue
		}
		for _, ma := range ra.Metrics {
			mb, ok := rb.metric(ma.Name)
			if !ok {
				fmt.Printf("%-14s %-16s missing from candidate\n", ra.Workload, ma.Name)
				missing++
				continue
			}
			if spec, ok := bounds[ma.Name]; ok {
				row := judge(spec, ma, mb)
				fmt.Printf("%-14s %-16s %14.6g %14.6g %7.1f%% %+7.1f%% %6.0f%%  %s\n",
					ra.Workload, ma.Name, ma.Value, mb.Value, row.spread*100, row.worse*100, spec.Bound*100, row.verdict)
				switch row.verdict {
				case "regressed":
					regressed++
				case "unresolved":
					unresolved++
				}
				continue
			}
			if spec := layer[ma.Name]; spec.exact() && ma.Value != mb.Value {
				fmt.Printf("%-14s %-36s %.17g != %.17g  differs (%s)\n", ra.Workload, ma.Name, ma.Value, mb.Value, spec.Clock)
				differing++
			}
		}
		if !ra.Correct || !rb.Correct {
			fmt.Printf("%-14s incorrect outputs (baseline correct=%v, candidate correct=%v)\n", ra.Workload, ra.Correct, rb.Correct)
			differing++
		}
	}
	fmt.Printf("regressed=%d unresolved=%d exact-differs=%d missing=%d\n", regressed, unresolved, differing, missing)
	if regressed+differing+missing > 0 {
		return errors.New("comparison failed")
	}
	return nil
}

func findResult(rf *resultFile, workload string) *workloadResult {
	for i := range rf.Results {
		if rf.Results[i].Workload == workload {
			return &rf.Results[i]
		}
	}
	return nil
}

type verdictRow struct {
	spread, worse float64
	verdict       string
}

// judge compares two medians of one end-to-end metric. worse is the
// candidate's change in the bad direction as a share of the baseline;
// spread is the wider of the two sides' quartile distances over their
// median. A change beyond the bound is a regression; a spread wider than
// the bound means the run cannot tell, and says so.
func judge(spec metricSpec, a, b metricValue) verdictRow {
	row := verdictRow{spread: math.Max(quartileSpread(a), quartileSpread(b))}
	row.worse = (b.Value - a.Value) / a.Value
	if spec.Better == "higher" {
		row.worse = -row.worse
	}
	switch {
	case row.worse > spec.Bound:
		row.verdict = "regressed"
	case row.spread > spec.Bound:
		row.verdict = "unresolved"
	default:
		row.verdict = "ok"
	}
	return row
}

// quartileSpread is the distance between a metric's first and third
// quartile as a share of its median; 0 for a single sample.
func quartileSpread(m metricValue) float64 {
	if len(m.Samples) < 2 || m.Value == 0 {
		return 0
	}
	return (quantile(m.Samples, 0.75) - quantile(m.Samples, 0.25)) / m.Value
}
