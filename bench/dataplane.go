package main

import (
	_ "embed"
	"fmt"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/packet"
	"repro/internal/rmt"
	"repro/internal/sim"
	"repro/internal/usecases"
	"repro/internal/workload"
)

// dataplane_trace replays a heavy-tailed trace through one switch
// running a leaf-style program, with the DoS detector polling over the
// raw driver: rmt, packet and the sim event loop do nearly all the
// work, ctlchan and ctlplane are absent.
//
// Open loop: packets are injected at their trace timestamps in virtual
// time whatever the switch is doing. The generator is an event on the
// same virtual clock, so it is never late: lateness is 0 by
// construction.

//go:embed programs/dataplane_trace.p4r
var traceSrc string

const (
	traceFlows   = 50000
	tracePackets = 200000
	traceSources = 2048
	// traceGap is the mean packet spacing: 5 Mpps, about 31 Gbps of
	// 64–1500 B packets spread over 32 ports of 25 Gbps.
	traceGap    = 200 * time.Nanosecond
	tracePacing = 10 * time.Microsecond
	// Table fills, by source index: an exact filter over the first 256
	// sources dropping every fourth, 64 blocklisted sources, and an ACL
	// of two entries for each of 512 more (deny DNS over UDP above a
	// lower-priority allow). Routes cover the destinations of the 1024
	// heaviest flows; the long tail misses and is dropped.
	traceFiltered = 256
	traceBlocked  = 64
	traceACLFrom  = 512
	traceACLSrcs  = 512
	traceRoutes   = 1024
)

type tracePkt struct {
	at   time.Duration
	flow int32
	size int32
}

type dataplane struct {
	pr    *probe
	sim   *sim.Simulator
	plan  *compiler.Plan
	sw    *rmt.Switch
	drv   *driver.Driver
	agent *core.Agent

	flows                              []*workload.Flow
	pkts                               []tracePkt
	forward                            []bool // per flow: the installed configuration forwards it
	lap                                time.Duration
	fSrc, fDst, fProto, fSport, fDport packet.FieldID

	injectFn func(any)
	epoch    sim.Time // when lap 0 of the trace starts
	next     int      // index of the next packet to inject, over all laps
	injected uint64
	target   uint64
	expect   uint64 // packets injected that the configuration forwards
	tx       uint64

	timing      bool
	lastEnd     sim.Time
	lastLatency time.Duration
	samples     []int64
	base        counters
}

func srcAddr(i int) uint32 { return uint32(0x0A000000 + i) }

func buildTrace(seed int64, units int, pr *probe) (world, error) {
	plan, err := compiler.CompileSource(traceSrc, compileOptions())
	if err != nil {
		return nil, fmt.Errorf("compile dataplane_trace: %w", err)
	}
	s := sim.New(seed)
	if pr != nil {
		pr.attach(s)
	}
	sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		return nil, err
	}
	d := &dataplane{pr: pr, sim: s, plan: plan, sw: sw}
	d.drv = driver.New(s, sw, driver.DefaultCostModel())
	d.injectFn = d.inject
	sch := plan.Prog.Schema
	d.fSrc, d.fDst, d.fProto = sch.MustID("ipv4.srcAddr"), sch.MustID("ipv4.dstAddr"), sch.MustID("ipv4.protocol")
	d.fSport, d.fDport = sch.MustID("l4.sport"), sch.MustID("l4.dport")

	tr := workload.Generate(workload.TraceConfig{
		Flows: traceFlows, TotalPackets: tracePackets,
		Duration: tracePackets * traceGap, ZipfS: 1.1,
		MinPktSize: 64, MaxPktSize: 1500, Sources: traceSources, Seed: seed,
	})
	d.flows, d.lap = tr.Flows, tracePackets*traceGap
	d.pkts = make([]tracePkt, len(tr.Packets))
	for i, p := range tr.Packets {
		d.pkts[i] = tracePkt{at: p.Time, flow: int32(p.Flow.ID), size: int32(p.Size)}
	}

	// The reference model of the installed configuration, kept apart from
	// the switch: which flows it forwards.
	routes := make(map[uint32]int)
	for _, f := range tr.Flows[:traceRoutes] {
		routes[f.Dst] = int(f.Dst % 32)
	}
	d.forward = make([]bool, len(tr.Flows))
	for i, f := range tr.Flows {
		src := int(f.Src - srcAddr(0))
		_, routed := routes[f.Dst]
		filtered := src < traceFiltered && src%4 == 0
		blocked := src >= traceFiltered && src < traceFiltered+traceBlocked
		denied := src >= traceACLFrom && src < traceACLFrom+traceACLSrcs && f.DstPort == 53 && f.Proto == 17
		d.forward[i] = routed && !filtered && !blocked && !denied
	}

	sw.Tx = func(int, *packet.Packet) { d.tx++ }

	det := usecases.NewDosDetector(usecases.DosConfig{
		// The trace is all legitimate traffic; the detector polls and
		// estimates every iteration but must never block, or the reference
		// model above would depend on timing.
		ThresholdBps: 1e12, MinDuration: 50 * time.Microsecond,
	})
	d.agent = core.NewAgent(s, pr.record(layerDriver, d.drv), plan, core.Options{
		Name:           "dataplane_trace",
		Pacing:         tracePacing,
		LatencySamples: 1,
		AfterIteration: d.afterIteration,
		Prologue: func(p *sim.Proc, a *core.Agent) error {
			return d.install(p, a, routes)
		},
	})
	if err := d.agent.RegisterNativeReaction("dos_react", det.React); err != nil {
		return nil, err
	}

	// Set-up runs the prologue to the first dialogue iteration, then one
	// lap fraction of traffic as warm-up: freelists and queues.
	d.agent.Start()
	for d.lastEnd == 0 {
		if s.Pending() == 0 {
			return nil, fmt.Errorf("dataplane_trace: prologue never reached the dialogue: %v", d.agent.Err())
		}
		s.RunFor(10 * time.Microsecond)
	}
	d.epoch = s.Now()
	if _, err := d.step(4096); err != nil {
		return nil, err
	}
	d.samples = make([]int64, 0, units/32+1024)
	d.timing = true
	d.base = d.raw()
	return d, nil
}

// install fills the tables through the agent's channel.
func (d *dataplane) install(p *sim.Proc, a *core.Agent, routes map[uint32]int) error {
	ch := a.Driver()
	add := func(table string, e rmt.Entry) error {
		if _, err := ch.AddEntry(p, table, e); err != nil {
			return fmt.Errorf("install %s: %w", table, err)
		}
		return nil
	}
	for i := 0; i < traceFiltered; i++ {
		action := "allow"
		if i%4 == 0 {
			action = "drop_pkt"
		}
		if err := add("ufilter", rmt.Entry{Keys: []rmt.KeySpec{rmt.ExactKey(uint64(srcAddr(i)))}, Action: action}); err != nil {
			return err
		}
	}
	// Map order must not reach the switch: install routes in flow-rank order.
	seen := make(map[uint32]bool, len(routes))
	for _, f := range d.flows[:traceRoutes] {
		if seen[f.Dst] {
			continue
		}
		seen[f.Dst] = true
		if err := add("route", rmt.Entry{
			Keys: []rmt.KeySpec{rmt.ExactKey(uint64(f.Dst))}, Action: "route_pkt", Data: []uint64{uint64(routes[f.Dst])},
		}); err != nil {
			return err
		}
	}
	for i := traceACLFrom; i < traceACLFrom+traceACLSrcs; i++ {
		src := rmt.ExactKey(uint64(srcAddr(i)))
		if err := add("acl", rmt.Entry{
			Keys:     []rmt.KeySpec{src, rmt.TernaryKey(53, 0xFFFF), rmt.TernaryKey(17, 0xFF)},
			Priority: 2, Action: "drop_pkt",
		}); err != nil {
			return err
		}
		if err := add("acl", rmt.Entry{
			Keys:     []rmt.KeySpec{src, rmt.WildcardKey(), rmt.WildcardKey()},
			Priority: 1, Action: "allow",
		}); err != nil {
			return err
		}
	}
	bl, err := a.Table("blocklist")
	if err != nil {
		return err
	}
	for i := traceFiltered; i < traceFiltered+traceBlocked; i++ {
		if _, err := bl.AddEntry(p, core.UserEntry{
			Keys: []rmt.KeySpec{rmt.ExactKey(uint64(srcAddr(i)))}, Action: "drop_pkt",
		}); err != nil {
			return fmt.Errorf("install blocklist: %w", err)
		}
	}
	return nil
}

// afterIteration samples the iteration latency: the agent slept exactly
// its pacing since the previous iteration ended.
func (d *dataplane) afterIteration(p *sim.Proc, _ *core.Agent) {
	now := p.Now()
	d.lastLatency = now.Sub(d.lastEnd) - tracePacing
	if d.timing {
		d.samples = append(d.samples, int64(d.lastLatency))
	}
	d.lastEnd = now
	d.pr.opBoundary(tracePacing)
}

// inject sends the next trace packet and schedules the one after it at
// its own timestamp, laps of the trace laid end to end.
func (d *dataplane) inject(any) {
	tp := d.pkts[d.next%len(d.pkts)]
	if d.forward[tp.flow] {
		d.expect++
	}
	d.sw.Inject(int(d.flows[tp.flow].Src%32), d.packet(tp))
	d.injected++
	d.next++
	if d.injected >= d.target {
		// The chain pauses here; the next step re-arms it.
		d.sim.Stop()
		return
	}
	d.scheduleNext()
}

// packet builds one trace record's packet. It is allocated fresh, as
// netsim's hosts and the fabric's probes allocate theirs: a third of the
// trace is dropped in the pipeline and a dropped packet is never handed
// back, so a pool would make allocs_per_op a function of the seed's drop
// share. Fresh, it reads two allocations per packet plus whatever the
// pipeline and the agent add.
func (d *dataplane) packet(tp tracePkt) *packet.Packet {
	f := d.flows[tp.flow]
	pkt := d.plan.Prog.Schema.New()
	pkt.Size = int(tp.size)
	pkt.Set(d.fSrc, uint64(f.Src))
	pkt.Set(d.fDst, uint64(f.Dst))
	pkt.Set(d.fProto, uint64(f.Proto))
	pkt.Set(d.fSport, uint64(f.SrcPort))
	pkt.Set(d.fDport, uint64(f.DstPort))
	return pkt
}

func (d *dataplane) scheduleNext() {
	n := len(d.pkts)
	at := d.epoch.Add(time.Duration(d.next/n)*d.lap + d.pkts[d.next%n].at)
	d.sim.AtCall(at, d.injectFn, nil)
}

func (d *dataplane) step(n int) (uint64, error) {
	d.target = d.injected + uint64(n)
	d.scheduleNext()
	d.sim.Run()
	if err := d.agent.Err(); err != nil {
		return 0, fmt.Errorf("agent: %w", err)
	}
	if d.injected < d.target {
		return 0, fmt.Errorf("simulation drained at %d of %d packets", d.injected, d.target)
	}
	return uint64(n), nil
}

func (d *dataplane) raw() counters {
	st, ds, rms := d.agent.Stats(), d.drv.Stats(), d.sw.Stats()
	return counters{
		"ops":          float64(d.injected),
		"iterations":   float64(st.Iterations),
		"core.calls":   float64(ds.TableOps + ds.RegReads + ds.RegWrites + ds.AuditReads),
		"core.commits": float64(st.Commits), "core.abandoned": float64(st.Abandoned),
		"core.retries": float64(st.Retries), "core.degraded": float64(st.Degraded), "core.resyncs": float64(st.Resyncs),
		"driver.busy": float64(ds.Busy), "driver.table_ops": float64(ds.TableOps), "driver.memoized": float64(ds.MemoizedOps),
		"driver.reg_read_bytes": float64(ds.RegReadBytes), "driver.audit_reads": float64(ds.AuditReads),
		"rmt.rx": float64(rms.RxPackets), "rmt.drops": float64(rms.IngressDrops + rms.QueueDrops + rms.PortDownDrops),
		"rmt.tail_drops": float64(rms.QueueDrops + rms.PortDownDrops),
		"sim.events":     float64(d.sim.Executed()),
	}
}

func (d *dataplane) finish() (*result, error) {
	d.timing = false
	// Drain what is queued, then stop the agent. Packets still in flight
	// at the region's end belong to it, so the deltas are taken after.
	d.sim.RunFor(time.Millisecond)
	timed := d.raw().since(d.base)
	d.agent.Stop()
	d.sim.RunFor(10 * tracePacing)
	if err := d.agent.Err(); err != nil {
		return nil, fmt.Errorf("agent: %w", err)
	}
	rms := d.sw.Stats()
	if rms.RxPackets != d.injected {
		return nil, fmt.Errorf("switch received %d of %d injected packets", rms.RxPackets, d.injected)
	}
	if got := d.tx + rms.QueueDrops + rms.PortDownDrops; got != d.expect {
		return nil, fmt.Errorf("switch forwarded %d packets (%d tail-dropped), the installed configuration forwards %d",
			d.tx, rms.QueueDrops+rms.PortDownDrops, d.expect)
	}
	if timed["iterations"] == 0 {
		return nil, fmt.Errorf("the agent completed no iteration")
	}
	if st := d.agent.Stats(); d.lastLatency != st.LastIteration {
		return nil, fmt.Errorf("harness latency sample %v disagrees with the agent's %v", d.lastLatency, st.LastIteration)
	}
	return &result{
		attempted: uint64(timed["ops"]),
		failed:    uint64(timed["rmt.tail_drops"]),
		samples:   d.samples,
		// Whole-run totals: both sides are settled only once the queues
		// have drained.
		goodput: float64(d.tx) / float64(d.expect),
		events:  timed["sim.events"],
		layer:   timed.layerMetrics(0),
	}, nil
}

func (d *dataplane) isolate() *isolated {
	return &isolated{
		sim: d.sim, sw: d.sw,
		packet: func(i int) *packet.Packet { return d.packet(d.pkts[i%len(d.pkts)]) },
	}
}
