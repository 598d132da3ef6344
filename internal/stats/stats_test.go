package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestMeanMedian(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean")
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if Median([]float64{5, 1, 3}) != 3 {
		t.Fatal("odd median")
	}
	if Median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("even median")
	}
	if Median(nil) != 0 {
		t.Fatal("empty median")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if Percentile(xs, 50) != 5 {
		t.Fatalf("p50 = %v", Percentile(xs, 50))
	}
	if Percentile(xs, 100) != 10 || Percentile(xs, 0) != 1 {
		t.Fatal("extremes")
	}
	if Percentile(xs, 99) != 10 {
		t.Fatal("p99 of 10 samples")
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty")
	}
}

func TestSummarizeDurations(t *testing.T) {
	ds := []time.Duration{time.Microsecond, 3 * time.Microsecond, 2 * time.Microsecond}
	s := SummarizeDurations(ds)
	if s.Count != 3 || s.Mean != 2*time.Microsecond || s.Median != 2*time.Microsecond {
		t.Fatalf("stats = %+v", s)
	}
	if s.Min != time.Microsecond || s.Max != 3*time.Microsecond {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if SummarizeDurations(nil).Count != 0 {
		t.Fatal("empty")
	}
}

func TestTimeSeriesBucketize(t *testing.T) {
	var ts TimeSeries
	ts.Add(100*time.Microsecond, 10)
	ts.Add(150*time.Microsecond, 5)
	ts.Add(900*time.Microsecond, 7)
	starts, sums := ts.Bucketize(500 * time.Microsecond)
	if len(starts) != 2 {
		t.Fatalf("buckets = %v %v", starts, sums)
	}
	if sums[0] != 15 || sums[1] != 7 {
		t.Fatalf("sums = %v", sums)
	}
	if s, v := new(TimeSeries).Bucketize(time.Second); s != nil || v != nil {
		t.Fatal("empty series")
	}
}

// Property: Percentile(xs, 100) is the max, Percentile(xs, 0) the min,
// and percentiles are monotone in p.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return Percentile(xs, 0) == s[0] &&
			Percentile(xs, 100) == s[len(s)-1] &&
			Percentile(xs, pa) <= Percentile(xs, pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
