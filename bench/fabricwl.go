package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/ctlchan"
	"repro/internal/fabric"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// fabric_reroute is everything together: fabric.NewRerouteFabric's 4×2
// leaf–spine fabric with its default ring TCP traffic, six per-switch
// control stacks, the coordinator, trunks and wire translation, while
// the harness fails and heals one trunk over and over through the
// public netsim.Trunk setters. Cycles alternate link-down and 30% gray;
// spine crash is left out because Fabric.Restore does not restart the
// crashed agent, so a crash cannot repeat on one fabric.
//
// The traffic is closed loop (paced TCP senders waiting on acks); the
// failure schedule is open loop on the virtual clock.
//
// The fabric builds its own control stacks, so no recorder can be
// interposed: this workload reports counts and virtual times, and its
// journal stores are out of reach.

const (
	fabricWarmup = time.Millisecond
	// failFor and healFor are one cycle: the trunk is failed for failFor,
	// then healthy for healFor.
	failFor = 2 * time.Millisecond
	healFor = 2 * time.Millisecond
	// preWindow is how far before a failure the reference goodput is
	// averaged, as in the fig-reroute experiment.
	preWindow = 800 * time.Microsecond
	grayRate  = 0.30
	// minGoodput is the hard floor on goodput under failure, relative to
	// goodput just before it.
	minGoodput = 0.9
)

type fabricWorld struct {
	sim *sim.Simulator
	r   *fabric.RerouteFabric

	cycles     uint64
	incomplete uint64 // cycles whose exclude or restore did not complete
	// react holds the link-down cycles' failure → last-route-moved times,
	// the end-to-end reaction sample; grayReact the gray cycles'. Gray
	// detection waits on which probes a 30% loss happens to eat, so over
	// the ~60 gray cycles of a run its tail moves by a tenth from seed to
	// seed: it is reported per layer, not end to end.
	react      []int64
	grayReact  []int64
	detect     []int64
	reroute    []int64
	restore    []int64
	goodputSum float64

	base counters
}

func buildFabric(seed int64, units int, pr *probe) (world, error) {
	s := sim.New(seed)
	if pr != nil {
		pr.attach(s) // no recorder can be interposed; the probe only keeps time
	}
	r, err := fabric.NewRerouteFabric(s, fabric.RerouteFabricConfig{
		Fabric: fabric.Config{Leaves: 4, Spines: 2, Seed: seed},
	})
	if err != nil {
		return nil, err
	}
	w := &fabricWorld{sim: s, r: r}
	r.F.Start()
	s.RunFor(fabricWarmup)
	if err := w.err(); err != nil {
		return nil, err
	}
	n := 2 * units
	w.react, w.grayReact, w.detect = make([]int64, 0, units), make([]int64, 0, units), make([]int64, 0, n)
	w.reroute, w.restore = make([]int64, 0, n), make([]int64, 0, n)
	w.base = w.raw()
	return w, nil
}

func (w *fabricWorld) err() error {
	if err := w.r.F.Err(); err != nil {
		return err
	}
	return w.r.F.Coord.Err()
}

// cycle fails the target trunk, waits, heals it, waits, and records how
// the fabric reacted.
func (w *fabricWorld) cycle(gray bool) error {
	tr := w.r.F.Trunks[0][w.r.TargetSpine]
	set := func(fail bool) {
		if !gray {
			tr.SetAdminDown(fail)
		} else if fail {
			tr.SetGray(grayRate)
		} else {
			tr.SetGray(0)
		}
	}
	failAt := w.sim.Now()
	pre := w.r.Goodput(failAt-sim.Time(preWindow), failAt)
	set(true)
	w.sim.RunFor(failFor)
	healAt := w.sim.Now()
	first, lastDone, _, excluded := w.r.RerouteSpan(true, failAt)
	under := w.r.Goodput(failAt+(healAt-failAt)/2, healAt)
	set(false)
	w.sim.RunFor(healFor)
	_, homeAt, _, restored := w.r.RerouteSpan(false, healAt)
	if err := w.err(); err != nil {
		return err
	}
	if pre <= 0 {
		return fmt.Errorf("cycle %d: no goodput before the failure", w.cycles)
	}
	w.cycles++
	w.goodputSum += under / pre
	if !excluded || !restored {
		w.incomplete++
		return nil
	}
	if gray {
		w.grayReact = append(w.grayReact, int64(lastDone.Sub(failAt)))
	} else {
		w.react = append(w.react, int64(lastDone.Sub(failAt)))
	}
	w.detect = append(w.detect, int64(first.Sub(failAt)))
	w.reroute = append(w.reroute, int64(lastDone.Sub(first)))
	w.restore = append(w.restore, int64(homeAt.Sub(healAt)))
	return nil
}

// step runs n units; a unit is one link-down cycle then one gray cycle.
func (w *fabricWorld) step(n int) (uint64, error) {
	before := w.rx()
	for i := 0; i < n; i++ {
		if err := w.cycle(false); err != nil {
			return 0, err
		}
		if err := w.cycle(true); err != nil {
			return 0, err
		}
	}
	return w.rx() - before, nil
}

// rx is the op count: packets received over all switches.
func (w *fabricWorld) rx() uint64 {
	var n uint64
	for _, nd := range w.r.F.Nodes() {
		n += nd.Sw.Stats().RxPackets
	}
	return n
}

func (w *fabricWorld) raw() counters {
	c := counters{"fabric.cycles": float64(w.cycles), "sim.events": float64(w.sim.Executed())}
	f := w.r.F
	for _, nd := range f.Nodes() {
		st, ds, rms := nd.Agent.Stats(), nd.Drv.Stats(), nd.Sw.Stats()
		svs, rs, ss := nd.Svc.Stats(), nd.Svc.RingStats(), nd.Srv.Stats()
		c["core.retries"] += float64(st.Retries)
		c["core.degraded"] += float64(st.Degraded)
		c["core.resyncs"] += float64(st.Resyncs)
		c["ctlchan.dedup_hits"] += float64(ss.DedupHits)
		c["core.calls"] += float64(nd.AgentCli.ChanStats().Ops)
		for _, cs := range []ctlchan.ClientStats{nd.AgentCli.ChanStats(), nd.CoordCli.ChanStats()} {
			c["ctlchan.frames"] += float64(cs.Sent)
			c["ctlchan.retransmits"] += float64(cs.Retransmits)
			c["ctlchan.timeouts"] += float64(cs.Timeouts)
			c["ctlchan.window_waits"] += float64(cs.WindowWaits)
		}
		for _, ls := range []netsim.LinkStats{nd.AgentLink.Stats(), nd.CoordLink.Stats()} {
			c["netsim.link_sent"] += float64(ls.Sent)
			c["netsim.link_lost"] += float64(ls.Lost)
		}
		for _, sess := range nd.Svc.Sessions() {
			ses := sess.SessionStats()
			c["ctlplane.wait"] += float64(ses.TotalWait)
			c["ctlplane.completed"] += float64(ses.Completed)
			if d := float64(ses.MaxQueueDepth); d > c["ctlplane.max_queue_depth"] {
				c["ctlplane.max_queue_depth"] = d
			}
		}
		c["ctlplane.ops_flushed"] += float64(rs.OpsFlushed)
		c["ctlplane.flushes"] += float64(rs.Flushes)
		c["ctlplane.reads_coalesced"] += float64(svs.ReadsCoalesced)
		c["driver.busy"] += float64(ds.Busy)
		c["driver.table_ops"] += float64(ds.TableOps)
		c["driver.memoized"] += float64(ds.MemoizedOps)
		c["driver.reg_read_bytes"] += float64(ds.RegReadBytes)
		c["driver.audit_reads"] += float64(ds.AuditReads)
		c["rmt.rx"] += float64(rms.RxPackets)
		c["rmt.drops"] += float64(rms.IngressDrops + rms.QueueDrops + rms.PortDownDrops)
	}
	c["ops"] = c["rmt.rx"]
	for _, row := range f.Trunks {
		for _, tr := range row {
			for side := 0; side < 2; side++ {
				ts := tr.Stats(side)
				c["netsim.trunk_sent"] += float64(ts.Sent)
				c["netsim.trunk_delivered"] += float64(ts.Delivered)
				c["netsim.trunk_gray_drops"] += float64(ts.GrayDrops)
			}
		}
	}
	cs := f.Coord.Stats()
	c["fabric.route_moves"] = float64(cs.RouteMoves)
	c["fabric.suspects"] = float64(cs.GraySuspects)
	c["fabric.audit_reads"] = c["driver.audit_reads"]
	return c
}

func (w *fabricWorld) finish() (*result, error) {
	now := w.raw()
	timed := now.since(w.base)
	w.r.F.Stop()
	w.sim.RunFor(200 * time.Microsecond)
	if err := w.err(); err != nil {
		return nil, err
	}
	for _, nd := range w.r.F.Nodes() {
		ss := nd.Srv.Stats()
		if issued := nd.AgentCli.ChanStats().Ops + nd.CoordCli.ChanStats().Ops; ss.MutationsExecuted > issued {
			return nil, fmt.Errorf("%s: at-most-once violated: %d mutations executed for %d ops issued", nd.Name, ss.MutationsExecuted, issued)
		}
		if ss.Epoch != 1 {
			return nil, fmt.Errorf("%s: session epoch moved to %d", nd.Name, ss.Epoch)
		}
	}
	goodput := w.goodputSum / float64(w.cycles)
	if goodput < minGoodput {
		return nil, fmt.Errorf("goodput under failure is %.3f of goodput before it, below %.2f", goodput, minGoodput)
	}
	if len(w.react) == 0 {
		return nil, fmt.Errorf("no cycle completed both its exclude and its restore")
	}
	layer := timed.layerMetrics(now["ctlplane.max_queue_depth"])
	layer["fabric.detect_virt_us_p50"] = p50us(w.detect)
	layer["fabric.reroute_virt_us_p50"] = p50us(w.reroute)
	layer["fabric.restore_virt_us_p50"] = p50us(w.restore)
	layer["fabric.gray_react_virt_us_p50"] = p50us(w.grayReact)
	return &result{
		attempted: w.cycles,
		failed:    w.incomplete,
		samples:   w.react,
		goodput:   goodput,
		events:    timed["sim.events"],
		layer:     layer,
	}, nil
}

// p50us is the median of virtual-ns samples, in µs.
func p50us(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[len(s)/2]) / 1e3
}

func (w *fabricWorld) isolate() *isolated { return nil }
