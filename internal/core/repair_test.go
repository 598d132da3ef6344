package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/driver"
	"repro/internal/p4"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// flakyMirrorChannel models a channel that starts failing entry writes
// mid-commit and stays broken until its window closes. Inside the
// window, the first ModifyEntry that is a mirror (one of the first two
// MEs after a SetDefaultAction, i.e. after the vv flip) trips the
// fault, and from then on every ModifyEntry fails until the window
// ends. Tripping on a mirror is what forces the repair-debt path: the
// flip has already committed, so the agent cannot abandon — it must
// defer the shadow work and then keep failing to drain it at the start
// of each subsequent iteration until the channel heals.
type flakyMirrorChannel struct {
	driver.Channel
	sim              *sim.Simulator
	failFrom, failTo sim.Time
	sinceFlip        int
	latched          bool
	failures         int
	// poisoned counts writes that carried what the rig scribbles over the
	// staged-op log between iterations: a repair that aliased its slot
	// instead of copying it out would send exactly that.
	poisoned int
}

const (
	poisonAction = "scribbled"
	poisonData   = 0xDEAD
)

func (f *flakyMirrorChannel) SetDefaultAction(p *sim.Proc, table string, call *p4.ActionCall) error {
	f.sinceFlip = 0
	return f.Channel.SetDefaultAction(p, table, call)
}

func (f *flakyMirrorChannel) ModifyEntry(p *sim.Proc, table string, h rmt.EntryHandle, action string, data []uint64) error {
	if action == poisonAction || (len(data) > 0 && data[0] == poisonData) {
		f.poisoned++
	}
	f.sinceFlip++
	now := f.sim.Now()
	if now < f.failFrom || now >= f.failTo {
		f.latched = false
		return f.Channel.ModifyEntry(p, table, h, action, data)
	}
	if f.latched || f.sinceFlip <= 2 {
		f.latched = true
		f.failures++
		return fmt.Errorf("flaky mirror window: %w", driver.ErrTransient)
	}
	return f.Channel.ModifyEntry(p, table, h, action, data)
}

// buildRepairRig wires the two-table workload over a flaky-mirror
// channel, with a tight retry policy so mirror failures exhaust their
// retries quickly and become repair debt. After every iteration the rig
// does to the staged-op log the worst the next iteration's reuse of it
// could: it overwrites every slot, buffers included.
func buildRepairRig(t *testing.T, failFrom, failTo sim.Time) (*rig, *flakyMirrorChannel, *check.Audit) {
	t.Helper()
	ls := &lockstep{}
	base := buildRig(t, check.TwoTableSrc, Options{})
	fc := &flakyMirrorChannel{Channel: base.drv, sim: base.sim, failFrom: failFrom, failTo: failTo}
	rec := DefaultRecovery()
	rec.MaxAttempts = 2
	rec.RetryBackoff = time.Microsecond
	agent := NewAgent(base.sim, fc, base.plan, Options{
		Recovery: rec,
		AfterIteration: func(_ *sim.Proc, a *Agent) {
			slots := a.staged[:cap(a.staged)]
			for i := range slots {
				s := &slots[i]
				s.oldAction, s.newAction, s.ue, s.tm = poisonAction, poisonAction, nil, nil
				for _, buf := range [][]uint64{s.oldData[:cap(s.oldData)], s.newData[:cap(s.newData)]} {
					for j := range buf {
						buf[j] = poisonData
					}
				}
			}
		},
		Prologue: ls.prologue,
	})
	base.agent = agent
	if err := agent.RegisterNativeReaction("bump", ls.react); err != nil {
		t.Fatal(err)
	}
	return base, fc, check.Attach(base.sw)
}

// TestRepairDebtAcrossIterations opens a mirror-failure window long
// enough that repair attempts themselves fail across several iteration
// boundaries: debt queued by fillShadow must survive repeated failed
// drainRepairs calls (each an abandoned iteration), then drain fully
// once the window heals, with no packet ever observing mixed state and
// no flip happening over an unconverged shadow — and what drains is the
// slot as it was copied out, although the log it came from has been
// overwritten since.
func TestRepairDebtAcrossIterations(t *testing.T) {
	r, fc, audit := buildRepairRig(t,
		sim.Time(200*sim.Microsecond), sim.Time(450*sim.Microsecond))
	r.runTraffic(2 * time.Millisecond)

	if err := r.agent.Err(); err != nil {
		t.Fatalf("agent died: %v", err)
	}
	if fc.failures == 0 {
		t.Fatal("the mirror window failed nothing; the test is vacuous")
	}
	st := r.agent.Stats()
	if st.RepairOps == 0 {
		t.Fatalf("failing mirrors queued no repair debt: %+v", st)
	}
	if st.Abandoned == 0 {
		t.Fatalf("failing drains abandoned no iterations (window too short to cross a boundary?): %+v", st)
	}
	if len(r.agent.pendingRepairs) != 0 {
		t.Fatalf("%d repairs still queued after the window healed", len(r.agent.pendingRepairs))
	}
	if fc.poisoned != 0 {
		t.Fatalf("%d writes carried the scribbled-over log's content: repair debt aliases its slot", fc.poisoned)
	}
	if st.Commits < 100 {
		t.Fatalf("agent made little progress after healing: %+v", st)
	}
	if err := audit.Err(); err != nil {
		t.Fatalf("despite repair gating: %v", err)
	}
}

// TestRepairStopRace stops the agent while repair debt is outstanding
// and the channel is still failing: the stop must win — clean exit, no
// error, debt left queued — rather than the agent spinning on repairs
// or dying on the transient failures.
func TestRepairStopRace(t *testing.T) {
	// The window opens at 200µs and never heals.
	r, fc, audit := buildRepairRig(t,
		sim.Time(200*sim.Microsecond), sim.Time(1<<62))
	r.agent.Start()
	tick := check.TwoTableTraffic(r.sim, r.sw)
	// Stop lands while drainRepairs is failing back to back.
	r.sim.Schedule(600*sim.Microsecond, func() { r.agent.Stop() })
	r.sim.RunFor(2 * time.Millisecond)
	tick.Stop()
	r.sim.RunFor(time.Millisecond)

	if err := r.agent.Err(); err != nil {
		t.Fatalf("stop during pending repairs reported error: %v", err)
	}
	if fc.failures == 0 {
		t.Fatal("the mirror window failed nothing; the test is vacuous")
	}
	st := r.agent.Stats()
	if st.RepairOps == 0 {
		t.Fatalf("no repair debt was ever queued: %+v", st)
	}
	if len(r.agent.pendingRepairs) == 0 {
		t.Fatal("unhealable window left no queued repairs at exit")
	}
	if err := audit.Err(); err != nil {
		t.Fatal(err)
	}
}
