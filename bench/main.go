// Command bench is the repository's benchmark: five workloads over the
// real control and data path, reported on two clocks that are never
// mixed. Virtual time is what the modelled Mantis would do, and repeats
// exactly for a given (code, seed, seconds); host time is what this
// simulator costs, and repeats within the bounds in BENCHMARK.json.
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bench --agree <n> [--workload <name>]
//
// The last line of standard output is one JSON object; a wrong output
// prints no result and exits non-zero with the failing seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"repro/internal/fabric"
)

// specs are the workloads, in BENCHMARK.json's order. unitsPerSecond was
// sized on the 2-vCPU reference container so that --seconds N measures
// for about N seconds; see README.md for the calibration.
var specs = []*spec{
	{
		name: "dialogue_poll", unit: "iteration", unitsPerSecond: 18000, hostSpans: true,
		why:     "read path: 4x64-cell polls and codec payload dominate, commits are one init-table write",
		build:   buildPoll,
		sources: []source{{"dialogue_poll.p4r", pollSrc}},
	},
	{
		name: "dialogue_update", unit: "iteration", unitsPerSecond: 6600, hostSpans: true,
		why:     "write path: an 8-entry two-table update per iteration, three-phase commit and journal dominate",
		build:   buildUpdate,
		sources: []source{{"dialogue_update.p4r", updateSrc}},
	},
	{
		name: "dialogue_lossy", unit: "iteration", unitsPerSecond: 14000, hostSpans: true,
		why:     "recovery path: the same layers over 2% loss, 1% duplication and reordering; the tail is what matters",
		build:   buildLossy,
		sources: []source{{"dialogue_lossy.p4r", lossySrc}},
	},
	{
		name: "dataplane_trace", unit: "packet", unitsPerSecond: 1500000,
		why:     "data plane: a Zipf trace through five tables with the agent on the raw driver; ctlchan and ctlplane absent",
		build:   buildTrace,
		sources: []source{{"dataplane_trace.p4r", traceSrc}},
	},
	{
		name: "fabric_reroute", unit: "down+gray cycle pair", unitsPerSecond: 6,
		why:     "everything together: a 4x2 fabric rerouting around repeated link-down and gray failures under TCP load",
		build:   buildFabric,
		sources: []source{{"fabric.LeafP4R", fabric.LeafP4R}, {"fabric.SpineP4R", fabric.SpineP4R}},
	},
}

func findSpec(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// report is the benchmark's output contract: the last line of stdout.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	// The simulator is one logical thread: sim.Proc hands control over
	// unbuffered channels, and with more than one P every hand-off can
	// cross OS threads. That is scheduler noise, not program cost (README:
	// 55–85 µs/op at GOMAXPROCS=2 against 36.6–37.7 pinned).
	runtime.GOMAXPROCS(1)

	var (
		name    = flag.String("workload", "", "workload to run (see -list)")
		seed    = flag.Int64("seed", 1, "seed for the simulator, link RNGs and generated inputs")
		seconds = flag.Float64("seconds", 10, "how long the timed region should take on the reference container")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for trace-<workload>.json")
		agree   = flag.Int("agree", 0, "run two interleaved sets of this many runs per workload and compare them")
		jsonIn  = flag.String("benchmark-json", "BENCHMARK.json", "bounds for -agree")
		list    = flag.Bool("list", false, "list workloads and exit")
	)
	flag.Parse()

	if *list {
		for _, sp := range specs {
			fmt.Printf("%-16s unit=%s units/s=%g\n    %s\n", sp.name, sp.unit, sp.unitsPerSecond, sp.why)
		}
		return
	}
	if *agree > 0 {
		if err := runAgree(*agree, *name, *seconds, *jsonIn); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	sp := findSpec(*name)
	if sp == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (try -list)\n", *name)
		os.Exit(2)
	}
	var (
		rep *report
		err error
	)
	if *trace == 0 {
		rep, err = runUntraced(sp, *seed, sp.unitsFor(*seconds))
	} else {
		rep, err = runTraced(sp, *seed, sp.unitsFor(*seconds), *outDir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: FAIL workload=%s seed=%d: %v\n", sp.name, *seed, err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// virtMetrics turns a result's samples into the virtual-clock end-to-end
// metrics, and reports which percentile the tail is.
func virtMetrics(res *result) (p50us, tailus, tailPct float64, err error) {
	if len(res.samples) == 0 {
		return 0, 0, 0, fmt.Errorf("no reaction latency samples")
	}
	s := append([]int64(nil), res.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	tv, pct := tail(s)
	return float64(s[len(s)/2]) / 1e3, float64(tv) / 1e3, pct, nil
}

// runUntraced is --trace 0: one untraced pass, then the remaining cold
// constructions for setup_s.
func runUntraced(sp *spec, seed int64, units int) (*report, error) {
	hr, err := sp.pass(seed, units, nil)
	if err != nil {
		return nil, err
	}
	setup, err := sp.setupMedian(seed, units, hr.setupFirst)
	if err != nil {
		return nil, err
	}
	p50, tl, pct, err := virtMetrics(hr.res)
	if err != nil {
		return nil, err
	}
	values := map[string]float64{
		"setup_s":            setup,
		"wall_ns_per_op":     hr.wallNsOp,
		"allocs_per_op":      hr.allocsOp,
		"bytes_per_op":       hr.bytesOp,
		"live_heap_mb":       hr.liveHeapMB,
		"virt_react_p50_us":  p50,
		"virt_react_tail_us": tl,
		"virt_goodput_frac":  hr.res.goodput,
	}
	fmt.Printf("workload %s  seed %d  %d %ss  %d ops  GOMAXPROCS %d\n", sp.name, seed, hr.units, sp.unit, hr.ops, runtime.GOMAXPROCS(0))
	fmt.Printf("timed region %.3fs in %d slices (slice IQR %.2f%% of median); tail is p%.3f of %d samples; fail share %d/%d\n",
		hr.elapsed.Seconds(), min(maxSlices, hr.units), 100*hr.sliceIQR, pct, len(hr.res.samples), hr.res.failed, hr.res.attempted)
	fmt.Printf("slices (ns/op): %.0f\n", hr.slices)
	return makeReport(hr.res, endToEnd, values), nil
}

// makeReport prints the named metrics and packs them for the last line.
func makeReport(res *result, names []metric, values map[string]float64) *report {
	rep := &report{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]metricValue, len(names))}
	for _, m := range names {
		v := values[m.name]
		fmt.Printf("  %-36s %16.6f %-8s %s\n", m.name, v, m.unit, clockOf(m))
		rep.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return rep
}

// hostCounts are the metrics that count something the host did, so
// their unit alone does not say which clock they are on.
var hostCounts = map[string]bool{
	"allocs_per_op": true, "bytes_per_op": true, "rcl.allocs_per_exec": true, "rmt.allocs_per_pkt": true,
	"bench.trace_overhead_frac": true, "bench.slice_iqr_frac": true,
}

// clockOf names the clock a metric is on. Host metrics are compared
// within a bound; virtual ones repeat exactly for (code, seed, seconds).
func clockOf(m metric) string {
	switch m.unit {
	case "s", "ns", "1/s", "MB":
		return "host"
	}
	if hostCounts[m.name] {
		return "host"
	}
	return "virtual"
}

// runTraced is --trace 1: a quarter-length untraced pass, the same pass
// again with recorders interposed, the direct per-layer probes, and the
// consistency checks between them.
func runTraced(sp *spec, seed int64, units int, outDir string) (*report, error) {
	q := units / 4
	if q < 1 {
		q = 1
	}
	plain, err := sp.pass(seed, q, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	// Read now, so the high-water mark is the untraced pass's own.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	pr := newProbe()
	traced, err := sp.pass(seed, q, pr)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	if err := sameVirtual(plain.res, traced.res); err != nil {
		return nil, fmt.Errorf("tracing changed a virtual result: %w", err)
	}

	values := traced.res.layer
	ops := float64(traced.ops)
	for l := layerCore; l < numLayers; l++ {
		values[layerNames[l]+".self_virt_ns_per_op"] = float64(pr.selfVirt[l]) / ops
		if sp.hostSpans {
			values[layerNames[l]+".self_wall_ns_per_op"] = float64(pr.selfHost[l]) / ops
		}
	}
	if sp.hostSpans {
		if err := pr.consistent(traced); err != nil {
			return nil, fmt.Errorf("traced pass is not self-consistent: %w", err)
		}
	}

	iso := traced.world.isolate()
	values["rmt.wall_ns_per_pkt"], values["rmt.allocs_per_pkt"] = probeRMT(iso)
	if values["rcl.wall_ns_per_exec"], values["rcl.allocs_per_exec"], err = probeRCL(iso); err != nil {
		return nil, err
	}
	parse, analyze, lower, err := probeCompiler(sp.sources, compileOptions())
	if err != nil {
		return nil, err
	}
	values["compiler.parse_s"], values["compiler.analyze_s"], values["compiler.lower_place_s"] = parse, analyze, lower
	values["compiler.build_s"] = plain.setupFirst.Seconds() - parse - lower

	values["sim.wall_ns_per_event"] = float64(plain.elapsed.Nanoseconds()) / plain.res.events
	values["sim.events_per_s"] = plain.res.events / plain.elapsed.Seconds()
	values["bench.trace_overhead_frac"] = traced.wallNsOp/plain.wallNsOp - 1
	values["bench.slice_iqr_frac"] = plain.sliceIQR
	values["bench.peak_rss_mb"] = rss
	values["bench.fail_share"] = ratio(float64(plain.res.failed), float64(plain.res.attempted))
	_, _, pct, err := virtMetrics(plain.res)
	if err != nil {
		return nil, err
	}
	values["bench.react_tail_pct"] = pct
	values["bench.react_samples"] = float64(len(plain.res.samples))
	values["bench.ops"] = float64(plain.ops)

	path := filepath.Join(outDir, "trace-"+sp.name+".json")
	if err := pr.writeTrace(path); err != nil {
		return nil, err
	}
	fmt.Printf("workload %s  seed %d  %d %ss per pass  %d ops  %d spans -> %s\n", sp.name, seed, plain.units, sp.unit, plain.ops, len(pr.spans), path)
	fmt.Printf("calls whose caller had already given up: %d virtual ns in all\n", pr.orphanVirt)
	return makeReport(plain.res, perLayer, values), nil
}

// sameVirtual checks two passes of one (seed, units) agree on everything
// virtual: the traced pass must be the same simulation.
func sameVirtual(a, b *result) error {
	if a.attempted != b.attempted || a.failed != b.failed {
		return fmt.Errorf("attempted/failed %d/%d vs %d/%d", a.attempted, a.failed, b.attempted, b.failed)
	}
	if a.goodput != b.goodput {
		return fmt.Errorf("goodput %v vs %v", a.goodput, b.goodput)
	}
	if len(a.samples) != len(b.samples) {
		return fmt.Errorf("%d vs %d latency samples", len(a.samples), len(b.samples))
	}
	for i := range a.samples {
		if a.samples[i] != b.samples[i] {
			return fmt.Errorf("latency sample %d: %d vs %d virtual ns", i, a.samples[i], b.samples[i])
		}
	}
	return nil
}
