package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/compiler"
	"repro/internal/compiler/place"
	"repro/internal/p4r"
	"repro/internal/p4r/analysis"
	"repro/internal/packet"
	"repro/internal/rcl"
	"repro/internal/rmt"
	"repro/internal/sim"
	"repro/internal/stats"
)

// metric is one reported number's name and unit. Virtual-clock times
// carry the clock in their unit (virt_us, virt_ns): they are simulated
// durations from the cost model, not measurements of this host.
type metric struct{ name, unit string }

// endToEnd lists what --trace 0 reports, in BENCHMARK.json's order.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"wall_ns_per_op", "ns"},
	{"allocs_per_op", "count"},
	{"bytes_per_op", "B"},
	{"live_heap_mb", "MB"},
	{"virt_react_p50_us", "virt_us"},
	{"virt_react_tail_us", "virt_us"},
	{"virt_goodput_frac", "frac"},
}

// perLayer lists what --trace 1 reports. Every workload reports every
// name; a layer the workload does not have reports 0.
var perLayer = []metric{
	{"core.self_wall_ns_per_op", "ns"},
	{"core.self_virt_ns_per_op", "virt_ns"},
	{"core.calls_per_op", "count"},
	{"core.retries_per_kop", "count"},
	{"core.degraded_per_kop", "count"},
	{"core.resyncs_per_kop", "count"},
	{"rcl.wall_ns_per_exec", "ns"},
	{"rcl.allocs_per_exec", "count"},
	{"journal.writes_per_op", "count"},
	{"journal.bytes_per_op", "B"},
	{"ctlchan.self_wall_ns_per_op", "ns"},
	{"ctlchan.self_virt_ns_per_op", "virt_ns"},
	{"ctlchan.frames_per_op", "count"},
	{"ctlchan.retransmits_per_kop", "count"},
	{"ctlchan.dedup_hits_per_kop", "count"},
	{"ctlchan.timeouts_per_kop", "count"},
	{"ctlchan.window_waits_per_kop", "count"},
	{"netsim.link_lost_frac", "frac"},
	{"netsim.trunk_delivered_frac", "frac"},
	{"netsim.trunk_gray_drops_per_cycle", "count"},
	{"ctlplane.self_wall_ns_per_op", "ns"},
	{"ctlplane.self_virt_ns_per_op", "virt_ns"},
	{"ctlplane.wait_virt_ns_per_op", "virt_ns"},
	{"ctlplane.writes_per_flush", "count"},
	{"ctlplane.reads_coalesced_per_kop", "count"},
	{"ctlplane.max_queue_depth", "count"},
	{"driver.self_wall_ns_per_op", "ns"},
	{"driver.self_virt_ns_per_op", "virt_ns"},
	{"driver.busy_virt_ns_per_op", "virt_ns"},
	{"driver.table_ops_per_op", "count"},
	{"driver.reg_read_bytes_per_op", "B"},
	{"driver.memoized_frac", "frac"},
	{"driver.audit_reads_per_kop", "count"},
	{"rmt.wall_ns_per_pkt", "ns"},
	{"rmt.allocs_per_pkt", "count"},
	{"rmt.pkts_per_op", "count"},
	{"rmt.drop_frac", "frac"},
	{"sim.events_per_op", "count"},
	{"sim.wall_ns_per_event", "ns"},
	{"sim.events_per_s", "1/s"},
	{"fabric.detect_virt_us_p50", "virt_us"},
	{"fabric.reroute_virt_us_p50", "virt_us"},
	{"fabric.restore_virt_us_p50", "virt_us"},
	{"fabric.gray_react_virt_us_p50", "virt_us"},
	{"fabric.route_moves_per_cycle", "count"},
	{"fabric.audit_reads_per_cycle", "count"},
	{"fabric.suspects_per_cycle", "count"},
	{"compiler.parse_s", "s"},
	{"compiler.analyze_s", "s"},
	{"compiler.lower_place_s", "s"},
	{"compiler.build_s", "s"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.slice_iqr_frac", "frac"},
	{"bench.peak_rss_mb", "MB"},
	{"bench.fail_share", "frac"},
	{"bench.react_tail_pct", "%"},
	{"bench.react_samples", "count"},
	{"bench.ops", "count"},
}

// counters is one reading of every layer's Stats(), by short name.
type counters map[string]float64

// since returns c − base, counter by counter.
func (c counters) since(base counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		d[k] = v - base[k]
	}
	return d
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns a timed region's counter deltas into the per-layer
// metrics that are plain counts. A counter the world does not have reads
// as 0. maxQueueDepth is a high-water mark, not a delta.
func (c counters) layerMetrics(maxQueueDepth float64) map[string]float64 {
	ops, kops, cycles := c["ops"], c["ops"]/1000, c["fabric.cycles"]
	return map[string]float64{
		"core.calls_per_op":                 ratio(c["core.calls"], ops),
		"core.retries_per_kop":              ratio(c["core.retries"], kops),
		"core.degraded_per_kop":             ratio(c["core.degraded"], kops),
		"core.resyncs_per_kop":              ratio(c["core.resyncs"], kops),
		"journal.writes_per_op":             ratio(c["journal.writes"], ops),
		"journal.bytes_per_op":              ratio(c["journal.bytes"], ops),
		"ctlchan.frames_per_op":             ratio(c["ctlchan.frames"], ops),
		"ctlchan.retransmits_per_kop":       ratio(c["ctlchan.retransmits"], kops),
		"ctlchan.dedup_hits_per_kop":        ratio(c["ctlchan.dedup_hits"], kops),
		"ctlchan.timeouts_per_kop":          ratio(c["ctlchan.timeouts"], kops),
		"ctlchan.window_waits_per_kop":      ratio(c["ctlchan.window_waits"], kops),
		"netsim.link_lost_frac":             ratio(c["netsim.link_lost"], c["netsim.link_sent"]),
		"netsim.trunk_delivered_frac":       ratio(c["netsim.trunk_delivered"], c["netsim.trunk_sent"]),
		"netsim.trunk_gray_drops_per_cycle": ratio(c["netsim.trunk_gray_drops"], cycles),
		"ctlplane.wait_virt_ns_per_op":      ratio(c["ctlplane.wait"], c["ctlplane.completed"]),
		"ctlplane.writes_per_flush":         ratio(c["ctlplane.ops_flushed"], c["ctlplane.flushes"]),
		"ctlplane.reads_coalesced_per_kop":  ratio(c["ctlplane.reads_coalesced"], kops),
		"ctlplane.max_queue_depth":          maxQueueDepth,
		"driver.busy_virt_ns_per_op":        ratio(c["driver.busy"], ops),
		"driver.table_ops_per_op":           ratio(c["driver.table_ops"], ops),
		"driver.reg_read_bytes_per_op":      ratio(c["driver.reg_read_bytes"], ops),
		"driver.memoized_frac":              ratio(c["driver.memoized"], c["driver.table_ops"]),
		"driver.audit_reads_per_kop":        ratio(c["driver.audit_reads"], kops),
		"rmt.pkts_per_op":                   ratio(c["rmt.rx"], ops),
		"rmt.drop_frac":                     ratio(c["rmt.drops"], c["rmt.rx"]),
		"sim.events_per_op":                 ratio(c["sim.events"], ops),
		"fabric.route_moves_per_cycle":      ratio(c["fabric.route_moves"], cycles),
		"fabric.audit_reads_per_cycle":      ratio(c["fabric.audit_reads"], cycles),
		"fabric.suspects_per_cycle":         ratio(c["fabric.suspects"], cycles),
	}
}

// isolated names what a finished, quiesced world lends to the direct
// per-layer probes. Any field may be nil: the probe then reports 0.
type isolated struct {
	sim *sim.Simulator
	sw  *rmt.Switch
	// packet makes the i-th probe packet, shaped like the workload's own.
	packet func(i int) *packet.Packet
	// rxn is the workload's interpreted reaction; rclWant computes what
	// it must write from the arrays it was given.
	rxn     *compiler.ReactionInfo
	rclWant func(arrays [][]int64) int64
}

// source is one P4R program a workload compiles during set-up.
type source struct {
	name, text string
}

// compileOptions is how every benchmark-owned program is compiled: the
// defaults plus the default placement target, so set-up covers parse →
// analyse → lower → place.
func compileOptions() compiler.Options {
	opts := compiler.DefaultOptions()
	opts.Target = place.DefaultTarget
	return opts
}

const (
	rmtProbePackets = 20000
	rclProbeExecs   = 2000
	compileReps     = 5
)

// probeRMT times Inject plus a full drain, one packet at a time, on the
// quiesced workload switch: the pipeline's cost with nothing else in
// the event queue.
func probeRMT(iso *isolated) (nsPerPkt, allocsPerPkt float64) {
	if iso == nil || iso.sw == nil || iso.packet == nil {
		return 0, 0
	}
	for i := 0; i < 256; i++ { // refill the pools the quiesce drained
		iso.sw.Inject(0, iso.packet(i))
		iso.sim.Run()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < rmtProbePackets; i++ {
		iso.sw.Inject(0, iso.packet(i))
		iso.sim.Run()
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	return float64(d.Nanoseconds()) / rmtProbePackets, float64(after.Mallocs-before.Mallocs) / rmtProbePackets
}

// mblSink is the rcl host of the reaction probe: it keeps the last
// malleable write so the probe can check the reaction's answer.
type mblSink struct{ last int64 }

func (h *mblSink) ReadMbl(string) (int64, error)                   { return h.last, nil }
func (h *mblSink) WriteMbl(_ string, v int64) error                { h.last = v; return nil }
func (h *mblSink) TableOp(_, _ string, _ []rcl.Arg) (int64, error) { return 0, nil }
func (h *mblSink) Call(_ string, _ []rcl.Arg) (int64, error)       { return 0, nil }

// probeRCL times direct Frame.Exec calls of the workload's interpreted
// reaction over fixed inputs, and checks what it computed.
func probeRCL(iso *isolated) (nsPerExec, allocsPerExec float64, err error) {
	if iso == nil || iso.rxn == nil {
		return 0, 0, nil
	}
	prog, err := rcl.Compile(iso.rxn.Body)
	if err != nil {
		return 0, 0, fmt.Errorf("rcl probe: %w", err)
	}
	f := prog.NewFrame()
	for _, slots := range [][]compiler.MeasSlot{iso.rxn.IngSlots, iso.rxn.EgrSlots} {
		for _, s := range slots {
			for _, fl := range s.Fields {
				*f.BindScalar(fl.Var) = 7
			}
		}
	}
	var arrays [][]int64
	for k, rp := range iso.rxn.RegParams {
		arr := make([]int64, rp.Hi+1)
		for i := range arr {
			arr[i] = int64((i*31 + k*17) % 251)
		}
		f.BindArray(rp.Var, arr)
		arrays = append(arrays, arr)
	}
	for _, mp := range iso.rxn.MblParams {
		f.BindScalar(mp.Var)
	}
	host := &mblSink{}
	if err := f.Exec(host); err != nil {
		return 0, 0, fmt.Errorf("rcl probe: %w", err)
	}
	if want := iso.rclWant(arrays); host.last != want {
		return 0, 0, fmt.Errorf("rcl probe: reaction %s computed %d, want %d", iso.rxn.Name, host.last, want)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < rclProbeExecs; i++ {
		if err := f.Exec(host); err != nil {
			return 0, 0, fmt.Errorf("rcl probe: %w", err)
		}
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	return float64(d.Nanoseconds()) / rclProbeExecs, float64(after.Mallocs-before.Mallocs) / rclProbeExecs, nil
}

// probeCompiler times the compiler's phases by direct calls on the
// workload's sources, summed over sources, median of compileReps.
// compiler.Compile runs the analyzer itself, so lower_place includes one
// analysis pass.
func probeCompiler(srcs []source, opts compiler.Options) (parse, analyze, lowerPlace float64, err error) {
	var ps, as, ls []float64
	for rep := 0; rep < compileReps; rep++ {
		var p, a, l time.Duration
		for _, src := range srcs {
			t0 := time.Now()
			f, err := p4r.Parse(src.text)
			if err != nil {
				return 0, 0, 0, fmt.Errorf("%s: %w", src.name, err)
			}
			t1 := time.Now()
			analysis.Analyze(f, analysis.Limits{
				MaxInitActionBits: opts.MaxInitActionBits, MeasSlotBits: opts.MeasSlotBits, MaxTableEntries: opts.MaxTableEntries,
			})
			t2 := time.Now()
			if _, err := compiler.Compile(f, opts); err != nil {
				return 0, 0, 0, fmt.Errorf("%s: %w", src.name, err)
			}
			t3 := time.Now()
			p, a, l = p+t1.Sub(t0), a+t2.Sub(t1), l+t3.Sub(t2)
		}
		ps, as, ls = append(ps, p.Seconds()), append(as, a.Seconds()), append(ls, l.Seconds())
	}
	return stats.Median(ps), stats.Median(as), stats.Median(ls), nil
}
