package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/check"
	"repro/internal/compiler"
	"repro/internal/driver"
	"repro/internal/packet"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// rig bundles a full Mantis stack: simulator, switch, driver, agent.
type rig struct {
	sim   *sim.Simulator
	sw    *rmt.Switch
	drv   *driver.Driver
	plan  *compiler.Plan
	agent *Agent
}

func buildRig(t testing.TB, src string, opts Options) *rig {
	t.Helper()
	plan, err := compiler.CompileSource(src, compiler.DefaultOptions())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	s := sim.New(1)
	sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		t.Fatalf("switch: %v", err)
	}
	drv := driver.New(s, sw, driver.DefaultCostModel())
	agent := NewAgent(s, drv, plan, opts)
	return &rig{sim: s, sw: sw, drv: drv, plan: plan, agent: agent}
}

// inject creates a packet with the given named fields and injects it.
func (r *rig) inject(port int, size int, fields map[string]uint64) *packet.Packet {
	pkt := r.plan.Prog.Schema.New()
	pkt.Size = size
	for name, v := range fields {
		pkt.SetName(name, v)
	}
	r.sw.Inject(port, pkt)
	return pkt
}

// fig1Src mirrors the paper's Figure 1 program: qdepths polled, the
// port with the deepest queue written into a malleable value that tags
// passing packets.
const fig1Src = `
header_type h_t { fields { tag : 16; port : 8; } }
header h_t hdr;
register qdepths { width : 32; instance_count : 16; }
malleable value value_var { width : 16; init : 0; }
action observe() {
  register_write(qdepths, hdr.port, standard_metadata.packet_length);
  modify_field(hdr.tag, ${value_var});
  modify_field(standard_metadata.egress_spec, 1);
}
table t { actions { observe; } default_action : observe; size : 1; }
reaction my_reaction(reg qdepths) {
  uint16_t current_max = 0;
  uint16_t max_port = 0;
  for (int i = 0; i < 16; ++i) {
    if (qdepths[i] > current_max) {
      current_max = qdepths[i]; max_port = i;
    }
  }
  ${value_var} = max_port;
}
control ingress { apply(t); }
`

func TestFig1EndToEnd(t *testing.T) {
	r := buildRig(t, fig1Src, Options{MaxIterations: 50})
	r.agent.Start()

	// Traffic: port 5 carries the biggest packets.
	r.sim.Schedule(20*sim.Microsecond, func() {
		r.inject(0, 100, map[string]uint64{"hdr.port": 2})
		r.inject(0, 900, map[string]uint64{"hdr.port": 5})
		r.inject(0, 300, map[string]uint64{"hdr.port": 7})
	})
	var lastTag uint64
	r.sw.Tx = func(_ int, pkt *packet.Packet) { lastTag = pkt.GetName("hdr.tag") }

	// Late probe packet observes the updated malleable.
	r.sim.Schedule(2*sim.Millisecond, func() {
		r.inject(0, 50, map[string]uint64{"hdr.port": 9})
	})
	r.sim.RunFor(10 * time.Millisecond)

	if err := r.agent.Err(); err != nil {
		t.Fatalf("agent error: %v", err)
	}
	if lastTag != 5 {
		t.Fatalf("tag = %d, want 5 (port with max recorded depth)", lastTag)
	}
	if r.agent.Stats().Iterations != 50 {
		t.Fatalf("iterations = %d", r.agent.Stats().Iterations)
	}
}

func TestReactionLatencyTensOfMicroseconds(t *testing.T) {
	// The headline claim: a full dialogue iteration — measurement flip,
	// poll, reaction, serializable commit — lands in the 10s of µs.
	r := buildRig(t, fig1Src, Options{MaxIterations: 100})
	r.agent.Start()
	r.sim.Run()
	st := r.agent.Stats()
	if st.LastIteration <= 0 {
		t.Fatal("no latency recorded")
	}
	if st.LastIteration > 100*time.Microsecond {
		t.Fatalf("iteration latency %v, want < 100µs", st.LastIteration)
	}
	if st.LastIteration < time.Microsecond {
		t.Fatalf("iteration latency %v implausibly low", st.LastIteration)
	}
}

const twoValueSrc = `
header_type h_t { fields { o1 : 16; o2 : 16; } }
header h_t hdr;
malleable value a { width : 16; init : 0; }
malleable value b { width : 16; init : 0; }
action tag() {
  modify_field(hdr.o1, ${a});
  modify_field(hdr.o2, ${b});
  modify_field(standard_metadata.egress_spec, 1);
}
table t { actions { tag; } default_action : tag; size : 1; }
reaction bump() {
  static int i = 0;
  i = i + 1;
  ${a} = i;
  ${b} = i;
}
control ingress { apply(t); }
`

// TestAtomicMultiMalleableCommit checks §5.1.1: both malleables update
// in the same single master-table write, so no packet ever observes
// a != b.
func TestAtomicMultiMalleableCommit(t *testing.T) {
	r := buildRig(t, twoValueSrc, Options{})
	r.agent.Start()
	audit := check.Attach(r.sw)
	// Dense traffic: a packet every 100ns while the agent spins.
	tick := r.sim.Every(100*sim.Nanosecond, func() {
		r.inject(0, 64, nil)
	})
	r.sim.RunFor(3 * time.Millisecond)
	tick.Stop()
	r.agent.Stop()
	r.sim.RunFor(time.Millisecond)

	if audit.Packets < 1000 {
		t.Fatalf("only %d packets observed", audit.Packets)
	}
	if err := audit.Err(); err != nil {
		t.Fatal(err)
	}
	// Sanity: values actually advanced.
	if v, _ := r.agent.Mbl("a"); v == 0 {
		t.Fatal("malleable a never advanced")
	}
	if err := r.agent.Err(); err != nil {
		t.Fatal(err)
	}
}

const fieldShiftSrc = `
header_type h_t { fields { foo : 16; bar : 16; out : 16; kind : 8; } }
header h_t hdr;
malleable field fv { width : 16; init : hdr.foo; alts { hdr.foo, hdr.bar } }
action use(port) {
  modify_field(hdr.out, ${fv});
  modify_field(standard_metadata.egress_spec, port);
}
malleable table t {
  reads { hdr.kind : exact; }
  actions { use; }
  size : 4;
}
reaction shift() {
  static int n = 0;
  n = n + 1;
  if (n == 300) { ${fv} = 1; }
}
control ingress { apply(t); }
`

// TestMalleableFieldShift checks the Figs. 5/6 machinery end to end: a
// reaction shifts the reference and subsequent packets read hdr.bar.
func TestMalleableFieldShift(t *testing.T) {
	r := buildRig(t, fieldShiftSrc, Options{
		Prologue: func(p *sim.Proc, a *Agent) error {
			th, err := a.Table("t")
			if err != nil {
				return err
			}
			_, err = th.AddEntry(p, UserEntry{
				Keys: []rmt.KeySpec{rmt.ExactKey(1)}, Action: "use", Data: []uint64{1},
			})
			return err
		},
	})
	r.agent.Start()
	var outs []uint64
	r.sw.Tx = func(_ int, pkt *packet.Packet) { outs = append(outs, pkt.GetName("hdr.out")) }

	fields := map[string]uint64{"hdr.kind": 1, "hdr.foo": 111, "hdr.bar": 222}
	// Iterations take ~2µs (no polled params), so the shift at n == 300
	// lands around 600µs; probe well before and well after.
	r.sim.Schedule(50*sim.Microsecond, func() { r.inject(0, 64, fields) })
	r.sim.Schedule(1500*sim.Microsecond, func() { r.inject(0, 64, fields) })
	r.sim.RunFor(1200 * time.Microsecond)
	r.agent.Stop()
	r.sim.Run()

	if err := r.agent.Err(); err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("packets = %d, want 2", len(outs))
	}
	if outs[0] != 111 {
		t.Fatalf("pre-shift out = %d, want 111 (hdr.foo)", outs[0])
	}
	if outs[1] != 222 {
		t.Fatalf("post-shift out = %d, want 222 (hdr.bar)", outs[1])
	}
	if alt, _ := r.agent.Mbl("fv"); alt != 1 {
		t.Fatalf("fv alt = %d", alt)
	}
}

// lockstep drives check's two-table programs from the agent side: the
// prologue installs one entry in each table, and every run of the
// reaction moves both to the next generation. Reaction and prologue
// share the handles, so a successor that recovered the journal can
// reuse them as they are.
type lockstep struct {
	h1, h2 UserHandle
	gen    uint64
}

func (l *lockstep) prologue(p *sim.Proc, a *Agent) error {
	t1, _ := a.Table("t1")
	t2, _ := a.Table("t2")
	var err error
	if l.h1, err = t1.AddEntry(p, UserEntry{Keys: []rmt.KeySpec{rmt.ExactKey(7)}, Action: "set1", Data: []uint64{0}}); err != nil {
		return err
	}
	l.h2, err = t2.AddEntry(p, UserEntry{Keys: []rmt.KeySpec{rmt.ExactKey(7)}, Action: "set2", Data: []uint64{0}})
	return err
}

func (l *lockstep) react(ctx *Ctx) error {
	l.gen++
	t1, _ := ctx.Table("t1")
	t2, _ := ctx.Table("t2")
	if err := t1.ModifyEntry(l.h1, "set1", []uint64{l.gen}); err != nil {
		return err
	}
	return t2.ModifyEntry(l.h2, "set2", []uint64{l.gen})
}

// runTraffic starts the agent, runs d of check.TwoTableTraffic, then
// stops the agent and drains for a millisecond.
func (r *rig) runTraffic(d time.Duration) {
	r.agent.Start()
	tick := check.TwoTableTraffic(r.sim, r.sw)
	r.sim.RunFor(d)
	tick.Stop()
	r.agent.Stop()
	r.sim.RunFor(time.Millisecond)
}

// TestThreePhaseTableConsistency drives the Figs. 7/8 protocol: a
// native reaction updates entries in two tables every iteration; with
// the vv commit no packet may observe t1's new value with t2's old one.
func TestThreePhaseTableConsistency(t *testing.T) {
	ls := &lockstep{}
	r := buildRig(t, check.TwoTableSrc, Options{Prologue: ls.prologue})
	if err := r.agent.RegisterNativeReaction("bump", ls.react); err != nil {
		t.Fatal(err)
	}
	audit := check.Attach(r.sw)
	r.runTraffic(3 * time.Millisecond)

	if err := r.agent.Err(); err != nil {
		t.Fatal(err)
	}
	if audit.Packets < 1000 || ls.gen < 10 {
		t.Fatalf("packets = %d, generations = %d", audit.Packets, ls.gen)
	}
	if err := audit.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestNaiveUpdatesViolateConsistency is the control experiment: the
// same two-table update performed as direct driver writes (no version
// bit) lets packets observe mixed configurations.
func TestNaiveUpdatesViolateConsistency(t *testing.T) {
	r := buildRig(t, check.TwoTableSrc, Options{})
	// Bypass the agent: install entries directly in both tables with
	// vv=0 (the initial version) and update them from a plain process.
	key := func(v uint64) []rmt.KeySpec {
		return []rmt.KeySpec{rmt.ExactKey(7), rmt.ExactKey(v)}
	}
	var rh1, rh2 rmt.EntryHandle
	r.sim.Spawn("naive-cp", func(p *sim.Proc) {
		var err error
		if rh1, err = r.drv.AddEntry(p, "t1", rmt.Entry{Keys: key(0), Action: "set1", Data: []uint64{0}}); err != nil {
			t.Error(err)
			return
		}
		if rh2, err = r.drv.AddEntry(p, "t2", rmt.Entry{Keys: key(0), Action: "set2", Data: []uint64{0}}); err != nil {
			t.Error(err)
			return
		}
		for gen := uint64(1); gen <= 200; gen++ {
			r.drv.ModifyEntry(p, "t1", rh1, "set1", []uint64{gen})
			r.drv.ModifyEntry(p, "t2", rh2, "set2", []uint64{gen})
		}
	})
	audit := check.Attach(r.sw)
	tick := check.TwoTableTraffic(r.sim, r.sw)
	r.sim.RunFor(2 * time.Millisecond)
	tick.Stop()
	r.sim.Run()
	if audit.Packets < 1000 {
		t.Fatalf("packets = %d", audit.Packets)
	}
	if err := audit.Err(); err == nil || !strings.Contains(err.Error(), "one-version invariant") {
		t.Fatalf("naive updates produced no visible inconsistency (audit: %v); the control experiment is broken", err)
	}
}

const measureSrc = `
header_type h_t { fields { serial : 48; } }
header h_t hdr;
action rec() { modify_field(standard_metadata.egress_spec, 1); }
table t { actions { rec; } default_action : rec; size : 1; }
reaction snap(ing hdr.serial, ing standard_metadata.ingress_port) {
}
control ingress { apply(t); }
`

// TestMeasurementCheckpointStable checks Fig. 9: once mv flips, the
// checkpoint copy is immune to ongoing traffic.
func TestMeasurementCheckpointStable(t *testing.T) {
	type snap struct{ serial, port uint64 }
	var snaps []snap
	r := buildRig(t, measureSrc, Options{})
	if err := r.agent.RegisterNativeReaction("snap", func(ctx *Ctx) error {
		snaps = append(snaps, snap{ctx.Field("hdr.serial"), ctx.Field("standard_metadata.ingress_port")})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	r.agent.Start()
	// Every packet writes serial = 1000+i and arrives on port i%4; both
	// land in the same measurement action, so a serializable snapshot
	// has port == (serial-1000)%4.
	i := uint64(0)
	tick := r.sim.Every(130*sim.Nanosecond, func() {
		pkt := r.plan.Prog.Schema.New()
		pkt.Size = 64
		pkt.SetName("hdr.serial", 1000+i)
		r.sw.Inject(int(i%4), pkt)
		i++
	})
	r.sim.RunFor(2 * time.Millisecond)
	tick.Stop()
	r.agent.Stop()
	r.sim.Run()
	if err := r.agent.Err(); err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 20 {
		t.Fatalf("snaps = %d", len(snaps))
	}
	for _, s := range snaps {
		if s.serial == 0 {
			continue // before first packet
		}
		if s.port != (s.serial-1000)%4 {
			t.Fatalf("torn measurement: serial %d with port %d", s.serial, s.port)
		}
	}
}

const regCacheSrc = `
header_type h_t { fields { v : 32; } }
header h_t hdr;
register rr { width : 32; instance_count : 4; }
action wr() {
  register_write(rr, 2, hdr.v);
  modify_field(standard_metadata.egress_spec, 1);
}
table t { actions { wr; } default_action : wr; size : 1; }
reaction watch(reg rr[2:2]) {
}
control ingress { apply(t); }
`

// TestTimestampCacheFixesAlternatingStaleReads reproduces the §5.2
// anomaly and its fix: after one write, repeated mv flips with no new
// traffic must keep returning the written value, never the stale zero
// in the other copy.
func TestTimestampCacheFixesAlternatingStaleReads(t *testing.T) {
	var seen []uint64
	r := buildRig(t, regCacheSrc, Options{})
	if err := r.agent.RegisterNativeReaction("watch", func(ctx *Ctx) error {
		seen = append(seen, ctx.Reg("rr")[2])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	r.agent.Start()
	// One write early, then silence while the agent keeps flipping mv.
	r.sim.Schedule(30*sim.Microsecond, func() {
		r.inject(0, 64, map[string]uint64{"hdr.v": 777})
	})
	r.sim.RunFor(2 * time.Millisecond)
	r.agent.Stop()
	r.sim.Run()
	if err := r.agent.Err(); err != nil {
		t.Fatal(err)
	}
	sawValue := false
	for _, v := range seen {
		if v == 777 {
			sawValue = true
		} else if sawValue && v != 777 {
			t.Fatalf("stale read after fresh value: history %v", seen)
		}
	}
	if !sawValue {
		t.Fatal("reaction never observed the write")
	}
}

func TestMultiInitTableMalleables(t *testing.T) {
	src := `
header_type h_t { fields { x : 32; y : 32; } }
header h_t hdr;
malleable value big1 { width : 32; init : 10; }
malleable value big2 { width : 32; init : 20; }
malleable value big3 { width : 32; init : 30; }
action tag() {
  modify_field(hdr.x, ${big1});
  add(hdr.y, ${big2}, ${big3});
  modify_field(standard_metadata.egress_spec, 1);
}
table t { actions { tag; } default_action : tag; size : 1; }
reaction r() {
  static int n = 0;
  n = n + 1;
  ${big1} = 100 + n;
  ${big2} = 200 + n;
  ${big3} = 300 + n;
}
control ingress { apply(t); }
`
	plan, err := compiler.CompileSource(src, compiler.Options{MaxInitActionBits: 34, ProgramName: "multi", MeasSlotBits: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.InitTables) < 3 {
		t.Fatalf("init tables = %d, want split", len(plan.InitTables))
	}
	s := sim.New(1)
	sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	drv := driver.New(s, sw, driver.DefaultCostModel())
	agent := NewAgent(s, drv, plan, Options{MaxIterations: 5})
	agent.Start()
	s.Run()
	if err := agent.Err(); err != nil {
		t.Fatal(err)
	}
	// Inject a probe; it must see a consistent (same-n) triple.
	var x, y uint64
	sw.Tx = func(_ int, pkt *packet.Packet) {
		x, y = pkt.GetName("hdr.x"), pkt.GetName("hdr.y")
	}
	pkt := plan.Prog.Schema.New()
	pkt.Size = 64
	sw.Inject(0, pkt)
	s.Run()
	if x != 105 || y != 205+305 {
		t.Fatalf("x=%d y=%d, want 105 and 510 (consistent n=5)", x, y)
	}
}

func TestPacingReducesUtilization(t *testing.T) {
	busy := func(pacing time.Duration) (time.Duration, sim.Time, Stats) {
		r := buildRig(t, fig1Src, Options{Pacing: pacing, MaxIterations: 50})
		r.agent.Start()
		r.sim.Run()
		if err := r.agent.Err(); err != nil {
			t.Fatal(err)
		}
		return r.agent.Stats().Busy, r.sim.Now(), r.agent.Stats()
	}
	busyLoop, elapsedBusy, _ := busy(0)
	paced, elapsedPaced, st := busy(100 * time.Microsecond)
	utilBusy := float64(busyLoop) / float64(elapsedBusy.Duration())
	utilPaced := float64(paced) / float64(elapsedPaced.Duration())
	if utilBusy < 0.9 {
		t.Fatalf("busy-loop utilization = %.2f, want ~1", utilBusy)
	}
	if utilPaced > 0.5 {
		t.Fatalf("paced utilization = %.2f, want well below busy", utilPaced)
	}
	// Reaction latency per iteration is unchanged by pacing.
	if st.LastIteration > 100*time.Microsecond {
		t.Fatalf("paced iteration latency = %v", st.LastIteration)
	}
}

// TestIdleIterationCommits: like the paper's pseudocode, an iteration
// whose reactions staged nothing still commits.
func TestIdleIterationCommits(t *testing.T) {
	src := `
header_type h_t { fields { x : 8; } }
header h_t hdr;
malleable value v { width : 8; init : 0; }
action tag() { modify_field(hdr.x, ${v}); }
table t { actions { tag; } default_action : tag; size : 1; }
reaction idle() { int x = 1; }
control ingress { apply(t); }
`
	r := buildRig(t, src, Options{MaxIterations: 10})
	r.agent.Start()
	r.sim.Run()
	if err := r.agent.Err(); err != nil {
		t.Fatal(err)
	}
	if got := r.agent.Stats().Commits; got != 10 {
		t.Fatalf("commits = %d, want 10", got)
	}
}

func TestBuiltinsFromRcl(t *testing.T) {
	src := `
header_type h_t { fields { x : 8; } }
header h_t hdr;
field_list fl { hdr.x; }
field_list_calculation hc { input { fl; } algorithm : crc16; output_width : 8; }
malleable value v { width : 64; init : 0; }
action tag() { modify_field(hdr.x, ${v}); }
table t { actions { tag; } default_action : tag; size : 1; }
reaction r() {
  ${v} = now();
  emit("tick", channel_clean(), 7);
}
control ingress { apply(t); }
`
	var events []Event
	r := buildRig(t, src, Options{MaxIterations: 3, EventSink: func(ev Event) { events = append(events, ev) }})
	r.agent.Start()
	r.sim.Run()
	if err := r.agent.Err(); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.agent.Mbl("v"); v == 0 {
		t.Fatal("now() builtin returned 0")
	}
	// The raw driver counts no channel faults, so it is always clean.
	if len(events) != 3 {
		t.Fatalf("%d events, want one per iteration: %+v", len(events), events)
	}
	for _, ev := range events {
		if ev.Kind != "tick" || ev.Key != 1 || ev.Val != 7 || ev.At == 0 {
			t.Fatalf("event %+v, want tick 1 7 with a time", ev)
		}
	}
}

func TestReactionTableOpsFromRcl(t *testing.T) {
	src := `
header_type h_t { fields { k : 8; out : 8; } }
header h_t hdr;
action hit(v) {
  modify_field(hdr.out, v);
  modify_field(standard_metadata.egress_spec, 1);
}
action miss() { drop(); }
malleable table t {
  reads { hdr.k : exact; }
  actions { hit; miss; }
  default_action : miss;
  size : 8;
}
reaction manage() {
  static int done = 0;
  if (done == 0) {
    int h = t.addEntry(9, "hit", 55);
    done = h;
  }
}
control ingress { apply(t); }
`
	r := buildRig(t, src, Options{})
	r.agent.Start()
	var out uint64
	r.sw.Tx = func(_ int, pkt *packet.Packet) { out = pkt.GetName("hdr.out") }
	r.sim.Schedule(500*sim.Microsecond, func() {
		r.inject(0, 64, map[string]uint64{"hdr.k": 9})
	})
	r.sim.RunFor(time.Millisecond)
	r.agent.Stop()
	r.sim.Run()
	if err := r.agent.Err(); err != nil {
		t.Fatal(err)
	}
	if out != 55 {
		t.Fatalf("out = %d, want 55 (entry added by reaction)", out)
	}
}

func TestReactionErrorStopsAgent(t *testing.T) {
	src := `
header_type h_t { fields { x : 8; } }
header h_t hdr;
malleable value v { width : 8; init : 0; }
action tag() { modify_field(hdr.x, ${v}); }
table t { actions { tag; } default_action : tag; size : 1; }
reaction bad() { int x = 1 / 0; }
control ingress { apply(t); }
`
	r := buildRig(t, src, Options{})
	r.agent.Start()
	r.sim.RunFor(time.Millisecond)
	if err := r.agent.Err(); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v", err)
	}
	if r.agent.Stats().ReactionErrors != 1 {
		t.Fatalf("ReactionErrors = %d", r.agent.Stats().ReactionErrors)
	}
}

// randSrc is a program whose reaction is supplied per test.
const randSrc = `
header_type h_t { fields { x : 8; } }
header h_t hdr;
malleable value v { width : 8; init : 0; }
action tag() { modify_field(hdr.x, ${v}); }
table t { actions { tag; } default_action : tag; size : 1; }
reaction r() { %s }
control ingress { apply(t); }
`

// TestRandRepeatsUnderOneSeed: rand(n) draws from the simulator's
// seeded RNG, so two runs of one seed see the same draws, and the draws
// stay in [0, n).
func TestRandRepeatsUnderOneSeed(t *testing.T) {
	run := func() []uint64 {
		var draws []uint64
		r := buildRig(t, fmt.Sprintf(randSrc, `emit("draw", rand(1000), 0);`), Options{
			MaxIterations: 50,
			EventSink:     func(ev Event) { draws = append(draws, ev.Key) },
		})
		r.agent.Start()
		r.sim.Run()
		if err := r.agent.Err(); err != nil {
			t.Fatal(err)
		}
		return draws
	}
	first, second := run(), run()
	if len(first) != 50 || !slices.Equal(first, second) {
		t.Fatalf("draws differ under one seed:\n %v\n %v", first, second)
	}
	distinct := map[uint64]bool{}
	for _, d := range first {
		if d >= 1000 {
			t.Fatalf("rand(1000) drew %d", d)
		}
		distinct[d] = true
	}
	if len(distinct) < 40 {
		t.Fatalf("50 draws hold only %d distinct values", len(distinct))
	}
}

// TestRandRejectsBadArguments: a call that cannot match rand's
// signature is the analyzer's error, in a compiled body and in a swapped
// one alike. A non-positive bound shows only at run time: the host
// refuses it, and the agent stops with an error instead of panicking in
// the RNG.
func TestRandRejectsBadArguments(t *testing.T) {
	const usage = "rand(n) needs one positive integer"
	for _, call := range []string{`rand("x")`, "rand()", "rand(1, 2)"} {
		_, err := compiler.CompileSource(fmt.Sprintf(randSrc, "int x = "+call+";"), compiler.DefaultOptions())
		if err == nil || !strings.Contains(err.Error(), usage) {
			t.Fatalf("compile %s: err = %v", call, err)
		}
		r := buildRig(t, fmt.Sprintf(randSrc, "int x = 1;"), Options{})
		if err := r.agent.SwapReaction("r", "int x = "+call+";"); err == nil || !strings.Contains(err.Error(), usage) {
			t.Fatalf("swap %s: err = %v", call, err)
		}
	}
	for _, call := range []string{"rand(0)", "rand(-1)"} {
		r := buildRig(t, fmt.Sprintf(randSrc, "int x = 1;"), Options{})
		if err := r.agent.SwapReaction("r", "int x = "+call+";"); err != nil {
			t.Fatal(err)
		}
		r.agent.Start()
		r.sim.RunFor(time.Millisecond)
		if err := r.agent.Err(); err == nil || !strings.Contains(err.Error(), usage) {
			t.Fatalf("%s: err = %v", call, err)
		}
	}
}

func TestRegisterNativeReactionValidation(t *testing.T) {
	r := buildRig(t, fig1Src, Options{})
	if err := r.agent.RegisterNativeReaction("nope", func(*Ctx) error { return nil }); err == nil {
		t.Fatal("unknown reaction name accepted")
	}
	r.agent.Start()
	if err := r.agent.RegisterNativeReaction("my_reaction", func(*Ctx) error { return nil }); err == nil {
		t.Fatal("registration after Start accepted")
	}
}

func TestTableLookupErrors(t *testing.T) {
	r := buildRig(t, fig1Src, Options{})
	if _, err := r.agent.Table("t"); err == nil {
		t.Fatal("non-malleable table returned a handle")
	}
	if _, err := r.agent.Table("ghost"); err == nil {
		t.Fatal("unknown table returned a handle")
	}
}

func TestStageMblWriteValidation(t *testing.T) {
	r := buildRig(t, fieldShiftSrc, Options{})
	if err := r.agent.stageMblWrite("fv", 5); err == nil {
		t.Fatal("out-of-range alt accepted")
	}
	if err := r.agent.stageMblWrite("ghost", 0); err == nil {
		t.Fatal("unknown malleable accepted")
	}
	if err := r.agent.stageMblWrite("fv", 1); err != nil {
		t.Fatal(err)
	}
}

func TestMemoizationUsedInDialogue(t *testing.T) {
	r := buildRig(t, fig1Src, Options{MaxIterations: 20})
	r.agent.Start()
	r.sim.Run()
	st := r.drv.Stats()
	if st.MemoizedOps == 0 {
		t.Fatal("dialogue performed no memoized operations")
	}
	// Most repeated master updates should be memoized.
	if st.MemoizedOps < 30 {
		t.Fatalf("memoized = %d of %d table ops", st.MemoizedOps, st.TableOps)
	}
}

// TestSwapReactionAtRuntime exercises §7's dynamic loading: the
// reaction body is replaced mid-run without stopping the agent.
func TestSwapReactionAtRuntime(t *testing.T) {
	src := `
header_type h_t { fields { x : 16; } }
header h_t hdr;
malleable value v { width : 16; init : 0; }
action tag() { modify_field(hdr.x, ${v}); }
table t { actions { tag; } default_action : tag; size : 1; }
reaction r() { ${v} = 1; }
control ingress { apply(t); }
`
	r := buildRig(t, src, Options{})
	r.agent.Start()
	r.sim.RunFor(200 * time.Microsecond)
	if v, _ := r.agent.Mbl("v"); v != 1 {
		t.Fatalf("initial body: v = %d", v)
	}
	// Swap to a new body.
	if err := r.agent.SwapReaction("r", "${v} = 2;"); err != nil {
		t.Fatal(err)
	}
	r.sim.RunFor(200 * time.Microsecond)
	if v, _ := r.agent.Mbl("v"); v != 2 {
		t.Fatalf("after body swap: v = %d", v)
	}
	// The agent never stopped or errored across the swap.
	if err := r.agent.Err(); err != nil {
		t.Fatal(err)
	}
	if r.agent.Stats().Iterations < 100 {
		t.Fatalf("loop stalled: %d iterations", r.agent.Stats().Iterations)
	}
	r.agent.Stop()
	r.sim.Run()
}

func TestSwapReactionValidation(t *testing.T) {
	r := buildRig(t, fig1Src, Options{})
	if err := r.agent.SwapReaction("ghost", "${v} = 1;"); err == nil {
		t.Fatal("unknown reaction accepted")
	}
	if err := r.agent.SwapReaction("my_reaction", ""); err == nil {
		t.Fatal("empty body accepted")
	}
}

// swapSrc has a plain table and a malleable one for swapped bodies to
// call.
const swapSrc = `
header_type h_t { fields { x : 8; y : 8; } }
header h_t hdr;
malleable value v { width : 8; init : 0; }
action tag() { modify_field(hdr.x, ${v}); }
action stamp(p) { modify_field(hdr.y, p); }
table t { actions { tag; } default_action : tag; size : 1; }
malleable table hosts { reads { hdr.x : exact; } actions { stamp; } size : 4; }
reaction r() { ${v} = 1; }
control ingress { apply(t); apply(hosts); }
`

// TestSwapReactionRefusesWhatTheAnalyzerRejects: a swapped body is
// checked in the running program as a compiled one is, so each body the
// analyzer rejects is refused at the call with the analyzer's code, and
// the agent runs on with the body it had.
func TestSwapReactionRefusesWhatTheAnalyzerRejects(t *testing.T) {
	for _, c := range []struct{ body, code string }{
		{"int x = ;", "[S001]"},                 // a syntax error
		{"int x = frobnicate(1);", "[M014]"},    // an unknown builtin
		{`t.addEntry("tag");`, "[M003]"},        // a table call on a table that is not malleable
		{`hosts.addEntry(1, "tag");`, "[L002]"}, // an action the table does not list
		{"${v} = y;", "[M014]"},                 // an undefined name
		{`int x = rand("x");`, "[L002]"},        // a builtin's wrong arguments
	} {
		r := buildRig(t, swapSrc, Options{})
		err := r.agent.SwapReaction("r", c.body)
		if err == nil || !strings.Contains(err.Error(), c.code) {
			t.Errorf("swap %q: err = %v, want %s", c.body, err, c.code)
			continue
		}
		r.agent.Start()
		r.sim.RunFor(200 * time.Microsecond)
		if v, _ := r.agent.Mbl("v"); v != 1 || r.agent.Err() != nil {
			t.Errorf("after refusing %q: v = %d, err = %v", c.body, v, r.agent.Err())
		}
	}
}

// TestPropertyTableExpansion: for random alt counts, a user entry in a
// table matching two malleable fields expands into exactly
// prod(|alts|) x 2 concrete entries, and for every selector assignment
// exactly one concrete entry matches.
func TestPropertyTableExpansion(t *testing.T) {
	f := func(a8, b8 uint8) bool {
		a := int(a8%3) + 2 // 2..4 alts
		b := int(b8%3) + 2
		src := "header_type h_t { fields { k : 8; "
		for i := 0; i < a; i++ {
			src += fmt.Sprintf("fa%d : 16; ", i)
		}
		for i := 0; i < b; i++ {
			src += fmt.Sprintf("fb%d : 16; ", i)
		}
		src += "out : 16; } }\nheader h_t hdr;\n"
		src += "malleable field A { width : 16; init : hdr.fa0; alts { "
		for i := 0; i < a; i++ {
			if i > 0 {
				src += ", "
			}
			src += fmt.Sprintf("hdr.fa%d", i)
		}
		src += " } }\n"
		src += "malleable field B { width : 16; init : hdr.fb0; alts { "
		for i := 0; i < b; i++ {
			if i > 0 {
				src += ", "
			}
			src += fmt.Sprintf("hdr.fb%d", i)
		}
		src += " } }\n"
		src += `
action use() { add(hdr.out, ${A}, ${B}); }
malleable table t {
  reads { hdr.k : exact; }
  actions { use; }
  size : 4;
}
reaction r() { }
control ingress { apply(t); }
`
		r := buildRig(t, src, Options{
			Prologue: func(p *sim.Proc, ag *Agent) error {
				tbl, err := ag.Table("t")
				if err != nil {
					return err
				}
				_, err = tbl.AddEntry(p, UserEntry{Keys: []rmt.KeySpec{rmt.ExactKey(1)}, Action: "use"})
				return err
			},
		})
		r.agent.Start()
		r.sim.RunFor(100 * time.Microsecond)
		r.agent.Stop()
		r.sim.Run()
		if err := r.agent.Err(); err != nil {
			t.Logf("agent: %v", err)
			return false
		}
		entries, err := r.sw.Entries("t")
		if err != nil {
			return false
		}
		return len(entries) == a*b*2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestThreePhaseDeleteFromReaction: a reaction deletes a user entry;
// the shadow copy goes in the prepare phase, the primary after commit,
// and packets never miss while the entry logically exists.
func TestThreePhaseDeleteFromReaction(t *testing.T) {
	var handle UserHandle
	r := buildRig(t, check.TwoTableSrc, Options{
		Prologue: func(p *sim.Proc, a *Agent) error {
			t1, _ := a.Table("t1")
			var err error
			handle, err = t1.AddEntry(p, UserEntry{Keys: []rmt.KeySpec{rmt.ExactKey(7)}, Action: "set1", Data: []uint64{1}})
			return err
		},
	})
	deleted := false
	iter := 0
	if err := r.agent.RegisterNativeReaction("bump", func(ctx *Ctx) error {
		iter++
		if iter == 50 && !deleted {
			deleted = true
			t1, _ := ctx.Table("t1")
			return t1.DeleteEntry(handle)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	r.agent.Start()
	r.sim.RunFor(2 * time.Millisecond)
	r.agent.Stop()
	r.sim.Run()
	if err := r.agent.Err(); err != nil {
		t.Fatal(err)
	}
	if !deleted {
		t.Fatal("delete never ran")
	}
	entries, _ := r.sw.Entries("t1")
	if len(entries) != 0 {
		t.Fatalf("concrete entries remain after three-phase delete: %d", len(entries))
	}
	// The user handle is gone.
	t1, _ := r.agent.Table("t1")
	if got := t1.Entries(); len(got) != 0 {
		t.Fatalf("user entries remain: %v", got)
	}
}

// TestCtxAccessors exercises the native-reaction context surface: Now
// and RxnTable add/delete.
func TestCtxAccessors(t *testing.T) {
	src := `
header_type h_t { fields { k : 8; x : 16; } }
header h_t hdr;
field_list fl { hdr.x; }
field_list_calculation hc { input { fl; } algorithm : crc16; output_width : 8; }
malleable value v { width : 16; init : 42; }
action hit() { modify_field(hdr.x, ${v}); }
action fallthrough() { no_op(); }
malleable table t {
  reads { hdr.k : exact; }
  actions { hit; fallthrough; }
  default_action : fallthrough;
  size : 8;
}
reaction r() { }
control ingress { apply(t); }
`
	var sawNow uint64
	var added UserHandle
	step := 0
	r := buildRig(t, src, Options{})
	if err := r.agent.RegisterNativeReaction("r", func(ctx *Ctx) error {
		step++
		switch step {
		case 1:
			sawNow = uint64(ctx.Now())
			tbl, err := ctx.Table("t")
			if err != nil {
				return err
			}
			added, err = tbl.AddEntry(UserEntry{Keys: []rmt.KeySpec{rmt.ExactKey(5)}, Action: "hit"})
			return err
		case 40:
			tbl, _ := ctx.Table("t")
			return tbl.DeleteEntry(added)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	r.agent.Start()
	r.sim.RunFor(time.Millisecond)
	r.agent.Stop()
	r.sim.Run()
	if err := r.agent.Err(); err != nil {
		t.Fatal(err)
	}
	if sawNow == 0 {
		t.Fatal("ctx.Now = 0")
	}
	if step < 50 {
		t.Fatalf("loop ran only %d steps", step)
	}
}

// TestRclReadsMalleable: the ${v} read path through the agent's rcl
// host, including read-your-pending-write within one iteration.
func TestRclReadsMalleable(t *testing.T) {
	src := `
header_type h_t { fields { x : 16; } }
header h_t hdr;
malleable value v { width : 16; init : 100; }
action tag() { modify_field(hdr.x, ${v}); }
table t { actions { tag; } default_action : tag; size : 1; }
reaction r() {
  ${v} = ${v} + 1;
  if (${v} % 2 == 1) {
    ${v} = ${v} + 1;
  }
}
control ingress { apply(t); }
`
	r := buildRig(t, src, Options{MaxIterations: 10})
	r.agent.Start()
	r.sim.Run()
	if err := r.agent.Err(); err != nil {
		t.Fatal(err)
	}
	// 100 -> 102 -> 104 ... (each iteration +1 then +1 if odd; 101 is
	// odd so +1 again = +2/iteration).
	if v, _ := r.agent.Mbl("v"); v != 120 {
		t.Fatalf("v = %d, want 120 after 10 iterations", v)
	}
}

func TestAgentAccessors(t *testing.T) {
	r := buildRig(t, fig1Src, Options{})
	if r.agent.Driver() != r.drv {
		t.Fatal("accessors broken")
	}
	if r.agent.vv != 0 || r.agent.mv != 0 {
		t.Fatal("version bits should start at 0")
	}
}
