// Package stats provides the small statistical toolkit used by the
// experiment harness: summaries (mean/stddev/percentiles), empirical CDFs,
// and fixed-interval time series for goodput/CPU plots.
package stats

import (
	"math"
	"sort"
	"time"
)

// Summary holds aggregate statistics over a sample set.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
	P50    float64
	P90    float64
	P99    float64
}

// Summarize computes a Summary of xs. An empty input yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	if len(xs) > 1 {
		s.Stddev = math.Sqrt(sq / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50 = Percentile(sorted, 0.50)
	s.P90 = Percentile(sorted, 0.90)
	s.P99 = Percentile(sorted, 0.99)
	return s
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of an ascending-sorted
// slice using linear interpolation between closest ranks.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CDF is an empirical cumulative distribution over added samples.
type CDF struct {
	samples []float64
	sorted  bool
}

// Add appends a sample.
func (c *CDF) Add(x float64) {
	c.samples = append(c.samples, x)
	c.sorted = false
}

// AddDuration appends a sample measured in seconds.
func (c *CDF) AddDuration(d time.Duration) { c.Add(d.Seconds()) }

// N returns the number of samples.
func (c *CDF) N() int { return len(c.samples) }

func (c *CDF) ensureSorted() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// FractionBelow returns P(X <= x).
func (c *CDF) FractionBelow(x float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.ensureSorted()
	i := sort.SearchFloat64s(c.samples, x)
	// include equal values
	for i < len(c.samples) && c.samples[i] <= x {
		i++
	}
	return float64(i) / float64(len(c.samples))
}

// Quantile returns the p-quantile of the samples.
func (c *CDF) Quantile(p float64) float64 {
	c.ensureSorted()
	return Percentile(c.samples, p)
}

// Points returns up to n (x, P(X<=x)) pairs suitable for plotting.
func (c *CDF) Points(n int) [][2]float64 {
	if len(c.samples) == 0 || n <= 0 {
		return nil
	}
	c.ensureSorted()
	pts := make([][2]float64, 0, n)
	step := len(c.samples) / n
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(c.samples); i += step {
		pts = append(pts, [2]float64{c.samples[i], float64(i+1) / float64(len(c.samples))})
	}
	last := c.samples[len(c.samples)-1]
	pts = append(pts, [2]float64{last, 1})
	return pts
}

// TimeSeries accumulates values into fixed-width bins of virtual time,
// e.g. bytes delivered per one-second interval for a goodput plot.
type TimeSeries struct {
	Interval time.Duration
	bins     []float64
}

// NewTimeSeries returns a series with the given bin width.
func NewTimeSeries(interval time.Duration) *TimeSeries {
	if interval <= 0 {
		panic("stats: non-positive time series interval")
	}
	return &TimeSeries{Interval: interval}
}

// Add accumulates v into the bin containing time t.
func (ts *TimeSeries) Add(t time.Duration, v float64) {
	if t < 0 {
		return
	}
	idx := int(t / ts.Interval)
	for len(ts.bins) <= idx {
		ts.bins = append(ts.bins, 0)
	}
	ts.bins[idx] += v
}

// Bins returns the accumulated per-bin values.
func (ts *TimeSeries) Bins() []float64 { return ts.bins }

// Bin returns the value of bin i (0 if beyond the last touched bin).
func (ts *TimeSeries) Bin(i int) float64 {
	if i < 0 || i >= len(ts.bins) {
		return 0
	}
	return ts.bins[i]
}

// Rate returns bin values divided by the bin width in seconds: with byte
// counts added, this is bytes/second per interval.
func (ts *TimeSeries) Rate() []float64 {
	out := make([]float64, len(ts.bins))
	sec := ts.Interval.Seconds()
	for i, v := range ts.bins {
		out[i] = v / sec
	}
	return out
}

// MeanOver returns the mean per-bin value over bins [from, to).
func (ts *TimeSeries) MeanOver(from, to int) float64 { return MeanOver(ts.bins, from, to) }

// MeanOver returns the mean of xs[from:to], with the window clipped to xs;
// an empty window has mean 0.
func MeanOver(xs []float64, from, to int) float64 {
	from, to = max(from, 0), min(to, len(xs))
	if to <= from {
		return 0
	}
	var sum float64
	for _, v := range xs[from:to] {
		sum += v
	}
	return sum / float64(to-from)
}

// Mbps converts bytes-per-second to megabits-per-second.
func Mbps(bytesPerSec float64) float64 { return bytesPerSec * 8 / 1e6 }

// Gbps converts bytes-per-second to gigabits-per-second.
func Gbps(bytesPerSec float64) float64 { return bytesPerSec * 8 / 1e9 }
