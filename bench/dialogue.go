package main

import (
	_ "embed"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/ctlchan"
	"repro/internal/ctlplane"
	"repro/internal/driver"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// The three dialogue workloads run one switch behind the control stack
// fabric.buildNode wires for every fabric node:
//
//	core.Agent → ctlchan.Client → netsim.Link → ctlchan.Server →
//	primary ctlplane.Session → driver.Ring → driver.Driver → rmt.Switch
//
// with a journal.MemStore and core.RecoveryForChannel. They differ in
// the program, the reaction and the link profile. Closed loop: one
// agent, pacing 0, the next iteration starts when the last one ends.
// (The coordinator's idle second session of a fabric node is left out.)

//go:embed programs/dialogue_poll.p4r
var pollSrc string

//go:embed programs/dialogue_update.p4r
var updateSrc string

//go:embed programs/dialogue_lossy.p4r
var lossySrc string

const (
	// ctlDelay is the one-way control-link delay, fabric's default.
	ctlDelay = time.Microsecond
	// auditEvery is the audit-traffic period: one packet per 2µs of
	// virtual time keeps the data plane under a tenth of host time.
	auditEvery = 2 * time.Microsecond
	// warmIterations is the fixed warm-up every construction runs before
	// the timed region: pools, freelists, memo tables and the ring fill.
	warmIterations = 256
	// lossyOpDeadline replaces the client's default per-op deadline
	// (about four retransmission opportunities) on the lossy link, as
	// fabric.Config.CtlOpDeadline is documented to: at 2% loss the default
	// abandons an operation every few thousand iterations, and the
	// benchmark's workloads must not have failing operations. With it a
	// lost frame costs latency, never an iteration.
	lossyOpDeadline = 2 * time.Millisecond
)

// lossyProfile is dialogue_lossy's link: loss, duplication and
// reordering, no partitions.
func lossyProfile() faults.LinkProfile {
	return faults.LinkProfile{
		Name: "bench-lossy",
		Loss: 0.02,
		Dup:  0.01, DupDelay: 4 * time.Microsecond,
		Reorder: 0.05, ReorderDelay: 6 * time.Microsecond,
	}
}

// dialogue is the world of one dialogue workload.
type dialogue struct {
	name string
	pr   *probe

	sim   *sim.Simulator
	plan  *compiler.Plan
	sw    *rmt.Switch
	drv   *driver.Driver
	svc   *ctlplane.Service
	sess  *ctlplane.Session
	link  *netsim.Link
	srv   *ctlchan.Server
	cli   *ctlchan.Client
	store *countingStore
	agent *core.Agent

	// Audit traffic.
	pool    *packet.Pool
	inputs  []auditInput
	next    int
	tickFn  func(any)
	ticking bool
	mkPkt   func(pkt *packet.Packet, in auditInput)
	audit   func(pkt *packet.Packet) bool // true = packet saw one version
	packets uint64
	mixed   uint64

	// Iteration accounting, by the harness in AfterIteration.
	done        uint64 // iterations attempted since construction
	target      uint64
	timing      bool // inside the timed region
	lastEnd     sim.Time
	lastLatency time.Duration
	samples     []int64
	base        counters // every layer's counters at the start of the timed region

	// check is the workload's own end-state gate.
	check func() error
	// rxn is the interpreted reaction the rcl layer probe executes, if
	// the workload has one, and rclWant what it must compute.
	rxn     *compiler.ReactionInfo
	rclWant func(arrays [][]int64) int64
}

// auditInput is one generated audit packet.
type auditInput struct {
	a, b, c uint64
	size    int
}

// newDialogue compiles src and wires the stack around it. The caller
// registers reactions and traffic shape, then calls start.
func newDialogue(name, src string, seed int64, opDeadline time.Duration, pr *probe) (*dialogue, error) {
	plan, err := compiler.CompileSource(src, compileOptions())
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", name, err)
	}
	s := sim.New(seed)
	if pr != nil {
		pr.attach(s)
	}
	sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		return nil, err
	}
	d := &dialogue{name: name, pr: pr, sim: s, plan: plan, sw: sw}
	d.drv = driver.New(s, sw, driver.DefaultCostModel())
	d.svc = ctlplane.New(s, pr.record(layerDriver, d.drv), ctlplane.Options{})
	d.sess, err = d.svc.Open(ctlplane.SessionOptions{
		Name: name + "/agent", Role: ctlplane.RolePrimary, ElectionID: 1,
	})
	if err != nil {
		return nil, err
	}
	d.srv = ctlchan.NewServer(s)
	// The link starts clean so the prologue installs over a working wire;
	// start swaps in prof before the warm-up.
	d.link = netsim.NewLink(s, ctlDelay, faults.LinkNone(), seed*104729+1)
	d.srv.Attach(d.link, netsim.LinkSideB, 1, 1, pr.record(layerCtlplane, d.sess))
	d.cli = ctlchan.NewClient(s, d.link, netsim.LinkSideA,
		ctlchan.ClientOptions{Session: 1, Epoch: 1, Meta: d.drv, OpDeadline: opDeadline})
	d.store = &countingStore{Store: journal.NewMemStore()}
	d.pool = packet.NewPool(plan.Prog.Schema)
	d.tickFn = d.tick

	sw.Tx = func(_ int, pkt *packet.Packet) {
		d.packets++
		if !d.audit(pkt) {
			d.mixed++
		}
		d.pool.Put(pkt)
	}
	return d, nil
}

// newAgent creates the agent once the workload's prologue is known.
func (d *dialogue) newAgent(prologue func(p *sim.Proc, a *core.Agent) error) {
	d.agent = core.NewAgent(d.sim, d.pr.record(layerCtlchan, d.cli), d.plan, core.Options{
		Name:     d.name,
		Recovery: core.RecoveryForChannel(d.cli.RTT()),
		Journal:  &core.JournalConfig{Store: d.store},
		// One retained sample: the harness takes its own, every iteration.
		LatencySamples: 1,
		Prologue:       prologue,
		AfterIteration: d.afterIteration,
	})
}

// afterIteration runs on the agent process after every attempted
// iteration, committed or abandoned. With pacing 0 the next iteration
// starts at this same instant, so successive calls bracket one op.
func (d *dialogue) afterIteration(p *sim.Proc, _ *core.Agent) {
	now := p.Now()
	d.done++
	d.lastLatency = now.Sub(d.lastEnd)
	if d.timing {
		d.samples = append(d.samples, int64(d.lastLatency))
	}
	d.lastEnd = now
	d.pr.opBoundary(0)
	if d.done >= d.target {
		d.sim.Stop()
	}
}

// tick injects one audit packet and re-arms itself without allocating.
func (d *dialogue) tick(any) {
	if !d.ticking {
		return
	}
	d.sw.Inject(0, d.packet(d.next))
	d.next++
	d.sim.ScheduleCall(auditEvery, d.tickFn, nil)
}

// runTo drives the simulation until target iterations have been
// attempted, failing if the agent dies first.
func (d *dialogue) runTo(target uint64) error {
	d.target = target
	d.sim.Run()
	if err := d.agent.Err(); err != nil {
		return fmt.Errorf("agent: %w", err)
	}
	if d.done < target {
		return fmt.Errorf("simulation drained at %d of %d iterations", d.done, target)
	}
	return nil
}

// start launches agent and traffic, runs the prologue to its first
// dialogue iteration over a clean link, switches to the workload's link
// profile, and warms up.
func (d *dialogue) start(prof faults.LinkProfile, totalOps int) error {
	d.agent.Start()
	d.ticking = true
	d.sim.ScheduleCall(auditEvery, d.tickFn, nil)
	if err := d.runTo(1); err != nil {
		return err
	}
	d.link.SetProfile(prof)
	if err := d.runTo(1 + warmIterations); err != nil {
		return err
	}
	d.samples = make([]int64, 0, totalOps)
	d.timing = true
	d.base = d.raw()
	return nil
}

func (d *dialogue) step(n int) (uint64, error) {
	return uint64(n), d.runTo(d.done + uint64(n))
}

// raw reads every layer's counters once.
func (d *dialogue) raw() counters {
	st := d.agent.Stats()
	cs, ss, ls := d.cli.ChanStats(), d.srv.Stats(), d.link.Stats()
	svs, ses, rs, ds, rms := d.svc.Stats(), d.sess.SessionStats(), d.svc.RingStats(), d.drv.Stats(), d.sw.Stats()
	return counters{
		"ops": float64(d.done), "packets": float64(d.packets), "mixed": float64(d.mixed),
		"core.calls": float64(cs.Ops), "core.commits": float64(st.Commits), "core.abandoned": float64(st.Abandoned),
		"core.retries": float64(st.Retries), "core.degraded": float64(st.Degraded), "core.resyncs": float64(st.Resyncs),
		"journal.writes": float64(d.store.writes), "journal.bytes": d.store.bytesWritten(),
		"ctlchan.frames": float64(cs.Sent), "ctlchan.retransmits": float64(cs.Retransmits),
		"ctlchan.dedup_hits": float64(ss.DedupHits), "ctlchan.timeouts": float64(cs.Timeouts),
		"ctlchan.window_waits": float64(cs.WindowWaits),
		"netsim.link_sent":     float64(ls.Sent), "netsim.link_lost": float64(ls.Lost),
		"ctlplane.wait": float64(ses.TotalWait), "ctlplane.completed": float64(ses.Completed),
		"ctlplane.ops_flushed": float64(rs.OpsFlushed), "ctlplane.flushes": float64(rs.Flushes),
		"ctlplane.reads_coalesced": float64(svs.ReadsCoalesced),
		"driver.busy":              float64(ds.Busy), "driver.table_ops": float64(ds.TableOps), "driver.memoized": float64(ds.MemoizedOps),
		"driver.reg_read_bytes": float64(ds.RegReadBytes), "driver.audit_reads": float64(ds.AuditReads),
		"rmt.rx": float64(rms.RxPackets), "rmt.drops": float64(rms.IngressDrops + rms.QueueDrops + rms.PortDownDrops),
		"sim.events": float64(d.sim.Executed()),
	}
}

func (d *dialogue) finish() (*result, error) {
	d.timing = false
	timed := d.raw().since(d.base)
	// Quiesce: stop traffic, let the agent run a few more iterations over
	// a still data plane so the last poll sees the final register file,
	// then stop it and drain.
	d.ticking = false
	if err := d.runTo(d.done + 4); err != nil {
		return nil, err
	}
	d.agent.Stop()
	d.sim.RunFor(4 * lossyOpDeadline)
	if err := d.agent.Err(); err != nil {
		return nil, fmt.Errorf("agent: %w", err)
	}

	st := d.agent.Stats()
	cs, ss := d.cli.ChanStats(), d.srv.Stats()
	if ss.MutationsExecuted > cs.Ops {
		return nil, fmt.Errorf("at-most-once violated: %d mutations executed for %d ops issued", ss.MutationsExecuted, cs.Ops)
	}
	if ss.Epoch != 1 {
		return nil, fmt.Errorf("session epoch moved to %d: recovery restarted the session", ss.Epoch)
	}
	if d.packets == 0 || st.Commits == 0 {
		return nil, fmt.Errorf("no progress: %d packets, %d commits", d.packets, st.Commits)
	}
	if d.mixed != 0 {
		return nil, fmt.Errorf("%d of %d forwarded packets saw mixed configuration state", d.mixed, d.packets)
	}
	// The harness's samples are the time between AfterIteration calls; with
	// nothing abandoned the last one must be the agent's own last latency.
	if st.Abandoned == 0 && d.lastLatency != st.LastIteration {
		return nil, fmt.Errorf("harness latency sample %v disagrees with the agent's %v", d.lastLatency, st.LastIteration)
	}
	if err := d.check(); err != nil {
		return nil, err
	}
	return &result{
		attempted: uint64(timed["ops"] + timed["packets"]),
		failed:    uint64(timed["core.abandoned"] + timed["mixed"]),
		samples:   d.samples,
		goodput:   timed["core.commits"] / timed["ops"],
		events:    timed["sim.events"],
		layer:     timed.layerMetrics(float64(d.sess.SessionStats().MaxQueueDepth)),
	}, nil
}

// packet builds the i-th audit packet from the pool.
func (d *dialogue) packet(i int) *packet.Packet {
	in := d.inputs[i%len(d.inputs)]
	pkt := d.pool.Get()
	pkt.Size = in.size
	d.mkPkt(pkt, in)
	return pkt
}

func (d *dialogue) isolate() *isolated {
	return &isolated{sim: d.sim, sw: d.sw, packet: d.packet, rxn: d.rxn, rclWant: d.rclWant}
}

// ---- dialogue_poll ----

func buildPoll(seed int64, units int, pr *probe) (world, error) {
	d, err := newDialogue("dialogue_poll", pollSrc, seed, 0, pr)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	d.inputs = make([]auditInput, 4096)
	for i := range d.inputs {
		d.inputs[i] = auditInput{a: uint64(rng.Intn(4)), b: uint64(rng.Intn(32)), c: uint64(rng.Intn(256)), size: 64 + rng.Intn(1437)}
	}
	sch := d.plan.Prog.Schema
	fBank, fCell, fVal := sch.MustID("hdr.bank"), sch.MustID("hdr.cell"), sch.MustID("hdr.val")
	fA, fB := sch.MustID("hdr.a"), sch.MustID("hdr.b")
	// want mirrors what the audit packets wrote, so the end-state gate can
	// recompute the reaction's fold independently of the switch.
	var want [4][32]uint64
	d.mkPkt = func(pkt *packet.Packet, in auditInput) {
		pkt.Set(fBank, in.a)
		pkt.Set(fCell, in.b)
		pkt.Set(fVal, in.c)
		want[in.a][in.b] = in.c
	}
	d.audit = func(pkt *packet.Packet) bool { return pkt.Get(fA) == pkt.Get(fB) }
	d.rxn = d.plan.Reactions[0]
	d.rclWant = func(arrays [][]int64) int64 {
		var sum int64
		for _, arr := range arrays {
			for _, v := range arr {
				sum += v
			}
		}
		return sum & 0xFFFF
	}
	d.newAgent(func(p *sim.Proc, a *core.Agent) error {
		for bank := 0; bank < 4; bank++ {
			if _, err := a.Driver().AddEntry(p, "rec", rmt.Entry{
				Keys: []rmt.KeySpec{rmt.ExactKey(uint64(bank))}, Action: fmt.Sprintf("rec%d", bank),
			}); err != nil {
				return err
			}
		}
		return nil
	})
	d.check = func() error {
		var sum uint64
		for b := range want {
			for _, v := range want[b] {
				sum += v
			}
		}
		got, _ := d.agent.Mbl("sum")
		if got != sum&0xFFFF {
			return fmt.Errorf("reaction folded the polled registers to %d, the audit traffic wrote %d", got, sum&0xFFFF)
		}
		return nil
	}
	return d, d.start(faults.LinkNone(), units)
}

// ---- dialogue_update and dialogue_lossy ----

// buildLockstep builds the two write-path workloads: a native reaction
// that rewrites `keys` entries in each of two malleable tables with one
// generation number per iteration.
func buildLockstep(name, src string, keys int, prof faults.LinkProfile, opDeadline time.Duration, seed int64, units int, pr *probe) (world, error) {
	d, err := newDialogue(name, src, seed, opDeadline, pr)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	d.inputs = make([]auditInput, 4096)
	for i := range d.inputs {
		d.inputs[i] = auditInput{a: uint64(rng.Intn(keys)), b: uint64(rng.Intn(8)), size: 64 + rng.Intn(1437)}
	}
	sch := d.plan.Prog.Schema
	fK, fPort, fO1, fO2 := sch.MustID("hdr.k"), sch.MustID("hdr.port"), sch.MustID("hdr.o1"), sch.MustID("hdr.o2")
	d.mkPkt = func(pkt *packet.Packet, in auditInput) {
		pkt.Set(fK, in.a)
		pkt.Set(fPort, in.b)
	}
	var lastGen uint64
	d.audit = func(pkt *packet.Packet) bool {
		g := pkt.Get(fO1)
		if g > lastGen {
			lastGen = g
		}
		return g == pkt.Get(fO2)
	}
	h1, h2 := make([]core.UserHandle, keys), make([]core.UserHandle, keys)
	d.newAgent(func(p *sim.Proc, a *core.Agent) error {
		t1, err := a.Table("t1")
		if err != nil {
			return err
		}
		t2, err := a.Table("t2")
		if err != nil {
			return err
		}
		for k := 0; k < keys; k++ {
			key := []rmt.KeySpec{rmt.ExactKey(uint64(k))}
			if h1[k], err = t1.AddEntry(p, core.UserEntry{Keys: key, Action: "set1", Data: []uint64{0}}); err != nil {
				return err
			}
			if h2[k], err = t2.AddEntry(p, core.UserEntry{Keys: key, Action: "set2", Data: []uint64{0}}); err != nil {
				return err
			}
		}
		return nil
	})
	var gen uint64
	data := make([]uint64, 1)
	if err := d.agent.RegisterNativeReaction("bump", func(ctx *core.Ctx) error {
		t1, err := ctx.Table("t1")
		if err != nil {
			return err
		}
		t2, err := ctx.Table("t2")
		if err != nil {
			return err
		}
		gen++
		data[0] = gen
		for k := 0; k < keys; k++ {
			if err := t1.ModifyEntry(h1[k], "set1", data); err != nil {
				return err
			}
			if err := t2.ModifyEntry(h2[k], "set2", data); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	d.check = func() error {
		// Generations only move forward, and the data plane must have seen
		// nearly all of them: it can trail the reaction by the iterations
		// still in flight when traffic stopped, never by more.
		if lastGen == 0 || lastGen > gen || gen-lastGen > 8 {
			return fmt.Errorf("packets carried generation %d, the reaction reached %d", lastGen, gen)
		}
		return nil
	}
	return d, d.start(prof, units)
}

func buildUpdate(seed int64, units int, pr *probe) (world, error) {
	return buildLockstep("dialogue_update", updateSrc, 4, faults.LinkNone(), 0, seed, units, pr)
}

func buildLossy(seed int64, units int, pr *probe) (world, error) {
	return buildLockstep("dialogue_lossy", lossySrc, 1, lossyProfile(), lossyOpDeadline, seed, units, pr)
}
