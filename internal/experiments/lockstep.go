package experiments

import (
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/packet"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// faultSweepSrc combines the two ingredients the chaos scenario needs:
// a polled register (so batched measurement reads are on the fault
// path) and two malleable tables updated together (so every packet
// audits cross-table serializability).
const faultSweepSrc = `
header_type h_t { fields { k : 8; o1 : 32; o2 : 32; port : 8; } }
header h_t hdr;
register qd { width : 32; instance_count : 8; }
action meas() { register_write(qd, hdr.port, standard_metadata.packet_length); }
action set1(v) { modify_field(hdr.o1, v); }
action set2(v) {
  modify_field(hdr.o2, v);
  modify_field(standard_metadata.egress_spec, 1);
}
table m { actions { meas; } default_action : meas; size : 1; }
malleable table t1 { reads { hdr.k : exact; } actions { set1; } size : 4; }
malleable table t2 { reads { hdr.k : exact; } actions { set2; } size : 4; }
reaction react(reg qd) { }
control ingress { apply(m); apply(t1); apply(t2); }
`

// lockstep is the chaos scenario the fault, control-channel and takeover
// sweeps share: faultSweepSrc on one switch behind a raw driver, an
// agent that rewrites one entry in each of the two tables to the same
// generation every iteration, and traffic in which every forwarded
// packet checks that it saw the two tables at one generation. The
// callers differ in what they stack between the driver and the agent.
type lockstep struct {
	sim  *sim.Simulator
	plan *compiler.Plan
	sw   *rmt.Switch
	drv  *driver.Driver

	h1, h2 core.UserHandle
	gen    uint64

	// packets counts forwarded packets, violations those that observed
	// mixed cross-table state.
	packets    int
	violations int
}

// newLockstep compiles the program onto a fresh simulator and switch and
// installs the per-packet audit.
func newLockstep(seed int64) (*lockstep, error) {
	plan, err := compiler.CompileSource(faultSweepSrc, compiler.DefaultOptions())
	if err != nil {
		return nil, err
	}
	s := sim.New(seed)
	sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		return nil, err
	}
	l := &lockstep{sim: s, plan: plan, sw: sw, drv: driver.New(s, sw, driver.DefaultCostModel())}
	sw.Tx = func(_ int, pkt *packet.Packet) {
		l.packets++
		if pkt.GetName("hdr.o1") != pkt.GetName("hdr.o2") {
			l.violations++
		}
	}
	return l, nil
}

// prologue installs the two entries the reaction rewrites.
func (l *lockstep) prologue(p *sim.Proc, a *core.Agent) error {
	t1, _ := a.Table("t1")
	t2, _ := a.Table("t2")
	var err error
	if l.h1, err = t1.AddEntry(p, core.UserEntry{Keys: []rmt.KeySpec{rmt.ExactKey(7)}, Action: "set1", Data: []uint64{0}}); err != nil {
		return err
	}
	l.h2, err = t2.AddEntry(p, core.UserEntry{Keys: []rmt.KeySpec{rmt.ExactKey(7)}, Action: "set2", Data: []uint64{0}})
	return err
}

// react is the native body of "react": both entries move to the next
// generation in one iteration.
func (l *lockstep) react(ctx *core.Ctx) error {
	l.gen++
	t1, _ := ctx.Table("t1")
	t2, _ := ctx.Table("t2")
	if err := t1.ModifyEntry(l.h1, "set1", []uint64{l.gen}); err != nil {
		return err
	}
	return t2.ModifyEntry(l.h2, "set2", []uint64{l.gen})
}

// agent builds the scenario's agent over ch: opts with the prologue
// filled in and the reaction registered.
func (l *lockstep) agent(ch driver.Channel, opts core.Options) (*core.Agent, error) {
	opts.Prologue = l.prologue
	a := core.NewAgent(l.sim, ch, l.plan, opts)
	return a, a.RegisterNativeReaction("react", l.react)
}

// traffic starts the audit traffic: one packet every 200 ns, cycling
// sizes and the measured port.
func (l *lockstep) traffic() *sim.Ticker {
	i := 0
	return l.sim.Every(200*sim.Nanosecond, func() {
		pkt := l.plan.Prog.Schema.New()
		pkt.Size = 64 + (i%8)*100
		pkt.SetName("hdr.k", 7)
		pkt.SetName("hdr.port", uint64(i%8))
		l.sw.Inject(0, pkt)
		i++
	})
}
