package experiments

import (
	"repro/internal/check"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// lockstep is the chaos scenario the fault, control-channel and takeover
// sweeps share: check.FaultSweepSrc on one switch behind a raw driver, an
// agent that rewrites one entry in each of the two tables to the same
// generation every iteration, and traffic in which every forwarded
// packet is audited for having seen the two tables at one generation.
// Directly above the driver, a check.Tap holds every op to §5's
// snapshot rules. The callers differ in what they stack between that
// tap and the agent.
type lockstep struct {
	sim   *sim.Simulator
	plan  *compiler.Plan
	sw    *rmt.Switch
	drv   *driver.Driver
	ch    *check.Tap // drv, with the rules
	audit *check.Audit
	rules *check.Rules

	h1, h2 core.UserHandle
	gen    uint64
}

// newLockstep compiles the program onto a fresh simulator and switch and
// attaches the per-packet audit and the op-stream rules.
func newLockstep(seed int64) (*lockstep, error) {
	plan, err := compiler.CompileSource(check.FaultSweepSrc, compiler.DefaultOptions())
	if err != nil {
		return nil, err
	}
	s := sim.New(seed)
	sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		return nil, err
	}
	l := &lockstep{sim: s, plan: plan, sw: sw, drv: driver.New(s, sw, driver.DefaultCostModel()), audit: check.Attach(sw)}
	l.ch = check.NewTap(l.drv)
	l.rules = l.ch.Check(plan)
	return l, nil
}

// err reports a packet that saw two versions or an op that broke a
// snapshot rule, or nil.
func (l *lockstep) err() error {
	if err := l.audit.Err(); err != nil {
		return err
	}
	return l.rules.Err()
}

// prologue installs the two entries the reaction rewrites and arms the
// snapshot rules.
func (l *lockstep) prologue(p *sim.Proc, a *core.Agent) error {
	t1, _ := a.Table("t1")
	t2, _ := a.Table("t2")
	var err error
	if l.h1, err = t1.AddEntry(p, core.UserEntry{Keys: []rmt.KeySpec{rmt.ExactKey(7)}, Action: "set1", Data: []uint64{0}}); err != nil {
		return err
	}
	if l.h2, err = t2.AddEntry(p, core.UserEntry{Keys: []rmt.KeySpec{rmt.ExactKey(7)}, Action: "set2", Data: []uint64{0}}); err != nil {
		return err
	}
	l.rules.Arm()
	return nil
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
