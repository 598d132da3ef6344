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
// ends. Tripping on a mirror is what forces the failed-shadow-write
// path: the flip has already committed, so the agent cannot abandon —
// it must leave the shadow to the resync, whose reconcile writes then
// keep failing at the start of each subsequent iteration until the
// channel heals.
type flakyMirrorChannel struct {
	driver.Channel
	sim              *sim.Simulator
	failFrom, failTo sim.Time
	sinceFlip        int
	latched          bool
	failures         int
	// poisoned counts writes that carried what the rig scribbles over the
	// staged-op log between iterations: anything that outlived its
	// iteration by aliasing a slot would send exactly that.
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
// retries quickly and are left to the resync. After every iteration the rig
// does to the staged-op log the worst the next iteration's reuse of it
// could: it overwrites every slot, buffers included.
func buildRepairRig(t *testing.T, failFrom, failTo sim.Time) (*rig, *flakyMirrorChannel, *check.Audit) {
	t.Helper()
	ls := &lockstep{}
	base := buildRig(t, check.TwoTableSrc, Options{})
	fc := &flakyMirrorChannel{Channel: base.drv, sim: base.sim, failFrom: failFrom, failTo: failTo}
	rec := RecoveryForChannel(0)
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
// enough that the resync itself fails across several iteration
// boundaries: the resync a failed mirror scheduled must stay pending
// through repeated failed attempts (each an abandoned iteration), then
// complete once the window heals, with no packet ever observing mixed
// state and no flip happening over an unconverged shadow — and nothing
// it writes comes from the log, which has been overwritten since.
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
		t.Fatalf("failing mirrors left nothing to the resync: %+v", st)
	}
	if st.Abandoned == 0 {
		t.Fatalf("failing resyncs abandoned no iterations (window too short to cross a boundary?): %+v", st)
	}
	if st.Resyncs == 0 {
		t.Fatalf("failed mirrors were never resynced: %+v", st)
	}
	if r.agent.resyncPending {
		t.Fatal("resync still pending after the window healed")
	}
	if fc.poisoned != 0 {
		t.Fatalf("%d writes carried the scribbled-over log's content: a failed shadow write aliases its slot", fc.poisoned)
	}
	if st.Commits < 100 {
		t.Fatalf("agent made little progress after healing: %+v", st)
	}
	if err := audit.Err(); err != nil {
		t.Fatalf("despite resync gating: %v", err)
	}
}

// TestRepairStopRace stops the agent while a resync is outstanding and
// the channel is still failing: the stop must win — clean exit, no
// error, resync left pending — rather than the agent spinning on the
// resync or dying on the transient failures.
func TestRepairStopRace(t *testing.T) {
	// The window opens at 200µs and never heals.
	r, fc, audit := buildRepairRig(t,
		sim.Time(200*sim.Microsecond), sim.Time(1<<62))
	r.agent.Start()
	tick := check.TwoTableTraffic(r.sim, r.sw)
	// Stop lands while the resync is failing back to back.
	r.sim.Schedule(600*sim.Microsecond, func() { r.agent.Stop() })
	r.sim.RunFor(2 * time.Millisecond)
	tick.Stop()
	r.sim.RunFor(time.Millisecond)

	if err := r.agent.Err(); err != nil {
		t.Fatalf("stop during a pending resync reported error: %v", err)
	}
	if fc.failures == 0 {
		t.Fatal("the mirror window failed nothing; the test is vacuous")
	}
	st := r.agent.Stats()
	if st.RepairOps == 0 {
		t.Fatalf("no shadow write was ever left to the resync: %+v", st)
	}
	if !r.agent.resyncPending {
		t.Fatal("unhealable window left no resync pending at exit")
	}
	if err := audit.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestRepairAmbiguousShadowWrite lands a shadow-side write whose
// acknowledgment is lost — a mirror add, a mirror delete, and the undo
// of an add after a prepare of the same iteration failed the same way:
// the tap's After hook reports the applied write as
// driver.ErrChannelDegraded.
// Replaying such a write adds a duplicate or deletes a handle that is
// gone; the agent must instead leave the shadow to the resync audit,
// stay alive, keep every packet on one version, and leave the switch
// where the churn body's sequential runs put it after every commit.
func TestRepairAmbiguousShadowWrite(t *testing.T) {
	on := func(kind driver.OpKind, table string, mirror bool) func(*driver.Op, bool) bool {
		return func(op *driver.Op, flipped bool) bool {
			return op.Kind == kind && op.Table == table && flipped == mirror
		}
	}
	for _, tc := range []struct {
		name   string
		faults []func(*driver.Op, bool) bool
	}{
		{"mirror-add", []func(*driver.Op, bool) bool{on(driver.OpAddEntry, "t1", true)}},
		{"mirror-delete", []func(*driver.Op, bool) bool{on(driver.OpDeleteEntry, "t1", true)}},
		// The t2 prepare is the reaction's last, so the rollback it
		// triggers undoes the t1 add: the first t1 delete after it.
		{"undo-add", []func(*driver.Op, bool) bool{on(driver.OpModifyEntry, "t2", false), on(driver.OpDeleteEntry, "t1", false)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := buildRig(t, churnSrc, Options{})
			// Once armed, each predicate of tc.faults fires once, in order,
			// on the first write it matches that lands; flipped tells it
			// whether the iteration's vv flip has been issued, that is
			// whether a table write is a mirror.
			var armed, flipped bool
			fired := 0
			base.agent = NewAgent(base.sim, base.drv, base.plan, Options{
				Prologue: (&lockstep{}).prologue,
				AfterIteration: func(_ *sim.Proc, a *Agent) {
					flipped = false
					armed = a.stats.Commits >= 3
				},
			})
			tap, _ := AttachRules(t, base.agent)
			tap.After = func(_ *sim.Proc, _ int, op *driver.Op, err error) error {
				if op.Kind == driver.OpSetDefault {
					// The mv flip and a resync's master fix keep vv; only the
					// commit moves it, and the agent learns so once this call
					// returns.
					vv, _ := masterVersions(base.plan.InitTables[0], op.Call, base.agent.vv, 0)
					flipped = flipped || vv != base.agent.vv
				}
				if !armed || err != nil || fired == len(tc.faults) || !tc.faults[fired](op, flipped) {
					return err
				}
				fired++
				return fmt.Errorf("ack lost for landed %s %s: %w", op.Kind, op.Table, driver.ErrChannelDegraded)
			}
			AttachSpec(t, base.agent, base.sw)
			audit := check.Attach(base.sw)
			base.runTraffic(2 * time.Millisecond)

			if err := base.agent.Err(); err != nil {
				t.Fatalf("agent died: %v", err)
			}
			if fired != len(tc.faults) {
				t.Fatalf("%d of %d lost acks fired; the test is vacuous", fired, len(tc.faults))
			}
			st := base.agent.Stats()
			if st.Resyncs == 0 {
				t.Fatalf("a write of unknown fate was never audited: %+v", st)
			}
			if st.Commits < 20 {
				t.Fatalf("agent made little progress: %+v", st)
			}
			if err := audit.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
