// Package stats provides the metrics used by the paper's evaluation:
// the deviation-from-median imbalance statistic (the hash-polarization
// trigger of §8.3.3), percentiles for latency distributions (Figs. 12,
// 16), and simple time series.
package stats

import (
	"math"
	"sort"
	"time"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the middle value (average of the two middles for even
// lengths); 0 for empty input.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank on a sorted copy; 0 for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// DurationStats summarizes a latency distribution.
type DurationStats struct {
	Count  int
	Mean   time.Duration
	Median time.Duration
	P99    time.Duration
	Min    time.Duration
	Max    time.Duration
}

// SummarizeDurations computes DurationStats for a sample set.
func SummarizeDurations(ds []time.Duration) DurationStats {
	if len(ds) == 0 {
		return DurationStats{}
	}
	xs := make([]float64, len(ds))
	min, max := ds[0], ds[0]
	for i, d := range ds {
		xs[i] = float64(d)
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	return DurationStats{
		Count:  len(ds),
		Mean:   time.Duration(Mean(xs)),
		Median: time.Duration(Median(xs)),
		P99:    time.Duration(Percentile(xs, 99)),
		Min:    min,
		Max:    max,
	}
}

// TimeSeries accumulates (t, value) points, e.g. goodput over time for
// Fig. 15.
type TimeSeries struct {
	T []time.Duration
	V []float64
}

// Add appends one point.
func (ts *TimeSeries) Add(t time.Duration, v float64) {
	ts.T = append(ts.T, t)
	ts.V = append(ts.V, v)
}

// Len returns the number of points.
func (ts *TimeSeries) Len() int { return len(ts.T) }

// Bucketize aggregates per-event samples into fixed-width time buckets,
// returning bucket start times and the sum of values per bucket.
func (ts *TimeSeries) Bucketize(width time.Duration) ([]time.Duration, []float64) {
	if ts.Len() == 0 || width <= 0 {
		return nil, nil
	}
	maxT := ts.T[0]
	for _, t := range ts.T {
		if t > maxT {
			maxT = t
		}
	}
	n := int(maxT/width) + 1
	starts := make([]time.Duration, n)
	sums := make([]float64, n)
	for i := range starts {
		starts[i] = time.Duration(i) * width
	}
	for i, t := range ts.T {
		sums[int(t/width)] += ts.V[i]
	}
	return starts, sums
}
