package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
)

// A spec is one benchmark workload: how to build its world cold and how
// much work a second of run time buys on the reference container.
type spec struct {
	name string
	why  string
	// unit names what step counts; unitsPerSecond is the fixed work rate
	// that sizes a run: units = round(seconds × unitsPerSecond). It is a
	// constant of the benchmark, not a measurement, so op counts and every
	// virtual metric are functions of (code, seed, seconds) only.
	unit           string
	unitsPerSecond float64
	// hostSpans says the dialogue is essentially the only event source, so
	// the host time of a recorded span can be charged to its layer.
	hostSpans bool
	build     func(seed int64, units int, pr *probe) (world, error)
	// sources are the P4R programs build compiles, for the compiler probe.
	sources []source
}

// A world is one constructed workload instance, warmed up and paused at
// the start of its timed region.
type world interface {
	// step runs n more units of work and returns how many ops they held.
	step(n int) (ops uint64, err error)
	// finish quiesces the world, runs the correctness gates and reports
	// the virtual-clock results. A gate failure is an error.
	finish() (*result, error)
	// isolate lends the finished world to the direct per-layer probes.
	isolate() *isolated
}

// result is what a finished world reports: everything here is on the
// virtual clock or a count, so it repeats exactly for (code, seed, units).
type result struct {
	attempted uint64
	failed    uint64
	// samples are reaction latencies in virtual ns, one per reaction.
	samples []int64
	goodput float64
	// events is how many simulator events the timed region executed.
	events float64
	// layer holds the per-layer counters read once from each layer's
	// Stats(), already divided into the per-layer metric they feed.
	layer map[string]float64
}

// maxSlices is how many equal-work slices the timed region is cut into.
// wall_ns_per_op is the median slice, so one descheduled slice cannot
// move it.
const maxSlices = 20

// coldSetups is how many cold constructions setup_s is the median of.
const coldSetups = 9

// hostRun is the host-clock side of one pass over a workload.
type hostRun struct {
	units      int
	ops        uint64
	wallNsOp   float64   // median over slices
	slices     []float64 // ns per op of each slice, in run order
	sliceIQR   float64   // slice quartile spread / median
	allocsOp   float64
	bytesOp    float64
	liveHeapMB float64 // heap still reachable after a forced collection
	elapsed    time.Duration
	res        *result
	world      world
	setupFirst time.Duration
}

// unitsFor sizes a run. Every run has at least one unit.
func (sp *spec) unitsFor(seconds float64) int {
	n := int(seconds*sp.unitsPerSecond + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// pass builds one world and drives units of work through it in equal
// slices, timing each slice on the host clock.
func (sp *spec) pass(seed int64, units int, pr *probe) (*hostRun, error) {
	runtime.GC()
	t0 := time.Now()
	w, err := sp.build(seed, units, pr)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	hr := &hostRun{world: w, setupFirst: time.Since(t0)}

	slices := maxSlices
	if units < slices {
		slices = units
	}
	per := units / slices
	hr.units = per * slices
	perOp := make([]float64, 0, slices)

	if pr != nil {
		pr.begin()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < slices; i++ {
		s0 := time.Now()
		ops, err := w.step(per)
		d := time.Since(s0)
		if err != nil {
			return nil, err
		}
		if ops == 0 {
			return nil, fmt.Errorf("slice %d completed no ops", i)
		}
		hr.ops += ops
		perOp = append(perOp, float64(d.Nanoseconds())/float64(ops))
	}
	hr.elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	if pr != nil {
		pr.end()
	}
	hr.liveHeapMB = liveHeapMB()

	hr.slices = append([]float64(nil), perOp...)
	sort.Float64s(perOp)
	hr.wallNsOp = stats.Median(perOp)
	if len(perOp) >= 4 {
		q1, q3 := quartiles(perOp)
		hr.sliceIQR = (q3 - q1) / hr.wallNsOp
	}
	hr.allocsOp = float64(after.Mallocs-before.Mallocs) / float64(hr.ops)
	hr.bytesOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(hr.ops)

	hr.res, err = w.finish()
	if err != nil {
		return nil, err
	}
	return hr, nil
}

// setupMedian is the median wall time of coldSetups cold constructions,
// the first of which is the one the timed pass already paid for.
func (sp *spec) setupMedian(seed int64, units int, first time.Duration) (float64, error) {
	times := []float64{first.Seconds()}
	for i := 1; i < coldSetups; i++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := sp.build(seed, units, nil); err != nil {
			return 0, fmt.Errorf("cold build %d: %w", i, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return stats.Median(times), nil
}

// quartiles of a sorted slice, by the exclusive method Python's
// statistics.quantiles(n=4) uses, so -agree reports the same spread the
// acceptance check computes.
func quartiles(xs []float64) (q1, q3 float64) {
	at := func(p float64) float64 {
		n := len(xs)
		pos := p * float64(n+1)
		lo := int(pos)
		if lo < 1 {
			return xs[0]
		}
		if lo >= n {
			return xs[n-1]
		}
		frac := pos - float64(lo)
		return xs[lo-1] + frac*(xs[lo]-xs[lo-1])
	}
	return at(0.25), at(0.75)
}

// tail picks the highest percentile of sorted samples that still has at
// least ten samples beyond it, but no higher than p99, and returns its
// value and its rank as a percentile. Beyond p99 the value is a handful
// of loss patterns, and moves by several percent from seed to seed.
func tail(sorted []int64) (v int64, pct float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	idx := n - 11
	if p99 := (99*n+99)/100 - 1; idx > p99 {
		idx = p99
	}
	if idx < n/2 {
		idx = n / 2
	}
	return sorted[idx], 100 * float64(idx+1) / float64(n)
}

// liveHeapMB is what the program itself still holds: the heap objects
// that survive a forced collection. It is read with the world at its
// fullest, at the end of the timed region. The second collection drops
// what sync.Pool's victim cache kept alive through the first, so the
// reading does not depend on where the last background cycle happened to
// fall. Goroutine stacks are left out: they come in 32 KB spans and
// shrink only when a collection catches them shallow, so the same run
// reads one span more or less from one time to the next.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// peakRSSMB reads the process's resident-set high-water mark. A third of
// it is the binary's file-backed pages and the rest follows the
// collector's pacing, so it is a per-layer reading, not a bounded metric.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not in /proc/self/status")
}
