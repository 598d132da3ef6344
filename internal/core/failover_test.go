package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/compiler"
	"repro/internal/ctlplane"
	"repro/internal/driver"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// armAtIteration is the dialogue iteration at whose boundary the crash
// injector arms. Arming at a boundary (from AfterIteration) rather than
// at a wall-clock instant makes the op-counting deterministic: for the
// two-table workload every committing iteration issues exactly
//
//	ME(prepare t1), ME(prepare t2), SD(vv flip), ME(mirror t1), ME(mirror t2)
//
// so crash point k maps to a known protocol phase.
const armAtIteration = 50

// failoverRig is the two-controller crash rig: a journaled primary
// agent runs through a ctlplane session with a crash injector between
// agent and session (so only the primary's own channel halts, never the
// shared service), and a hot standby watches the shared journal.
//
//	primary agent -> crash injector -> session(e=1) -> service -> driver
//	standby agent ---------------------> session(e=2) (on takeover)
type failoverRig struct {
	sim   *sim.Simulator
	sw    *rmt.Switch
	drv   *driver.Driver
	svc   *ctlplane.Service
	plan  *compiler.Plan
	store *journal.MemStore
	inj   *faults.Injector
	agent *Agent // the primary
	sb    *Standby

	// Serializability bookkeeping, filled by the audit on the switch's
	// egress and by the AfterIteration hooks of both controllers. Both
	// controllers run the one lockstep, which bumps its generation once
	// per iteration, so generation == iteration number throughout.
	ls        *lockstep
	audit     *check.Audit
	committed map[uint64]bool // every generation some controller committed
}

// switchVV reads the committed version bit straight off the switch's
// master init table, independent of any agent's belief.
func (r *failoverRig) switchVV(t *testing.T) uint64 {
	t.Helper()
	master := r.plan.InitTables[0]
	call, err := r.sw.DefaultAction(master.Table)
	if err != nil {
		t.Fatalf("read master default action: %v", err)
	}
	for i, ip := range master.Params {
		if ip.Kind == compiler.InitVV {
			return call.Data[i]
		}
	}
	t.Fatal("master init table has no vv parameter")
	return 0
}

// afterIterationHook returns a per-agent commit recorder: whenever the
// agent's commit counter advances, the generation staged during that
// iteration became packet-visible.
func (r *failoverRig) afterIterationHook(arm bool) func(p *sim.Proc, a *Agent) {
	var seen uint64
	return func(p *sim.Proc, a *Agent) {
		if a.stats.Commits > seen {
			seen = a.stats.Commits
			r.committed[r.ls.gen] = true
		}
		if arm && a.stats.Iterations == armAtIteration {
			r.inj.SetEnabled(true)
		}
	}
}

// buildFailoverRig wires the full two-controller stack over the
// two-table serializability workload.
func buildFailoverRig(t testing.TB, prof faults.Profile, seed int64) *failoverRig {
	t.Helper()
	plan, err := compiler.CompileSource(check.TwoTableSrc, compiler.DefaultOptions())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	s := sim.New(seed)
	sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		t.Fatalf("switch: %v", err)
	}
	drv := driver.New(s, sw, driver.DefaultCostModel())
	svc := ctlplane.New(s, drv, ctlplane.Options{})
	sess, err := svc.Open(ctlplane.SessionOptions{Name: "primary", Role: ctlplane.RolePrimary, ElectionID: 1})
	if err != nil {
		t.Fatalf("open primary: %v", err)
	}
	inj := faults.Wrap(s, sess, prof, seed)
	inj.SetEnabled(false) // armed at an iteration boundary by the hook
	store := journal.NewMemStore()

	r := &failoverRig{
		sim: s, sw: sw, drv: drv, svc: svc, plan: plan, store: store, inj: inj,
		ls: &lockstep{}, audit: check.Attach(sw), committed: make(map[uint64]bool),
	}
	r.agent = NewAgent(s, inj, plan, Options{
		Journal:        &JournalConfig{Store: store},
		AfterIteration: r.afterIterationHook(true),
		Prologue:       r.ls.prologue,
	})
	if err := r.agent.RegisterNativeReaction("bump", r.ls.react); err != nil {
		t.Fatal(err)
	}

	r.sb = NewStandby(s, svc, StandbyOptions{
		Name:       "standby",
		ElectionID: 2,
		Store:      store,
		Plan:       plan,
		CheckEvery: 3 * time.Microsecond,
		Agent: Options{
			AfterIteration: r.afterIterationHook(false),
		},
		Configure: func(a *Agent) error {
			return a.RegisterNativeReaction("bump", r.ls.react)
		},
	})
	return r
}

// runFailoverScenario executes the rig: the prologue installs cleanly,
// the injector arms at the configured iteration boundary, traffic flows
// throughout, and the simulation runs long enough for crash, detection,
// recovery, and post-takeover progress.
func runFailoverScenario(t testing.TB, r *failoverRig) {
	t.Helper()
	r.agent.Start()
	tick := check.TwoTableTraffic(r.sim, r.sw)
	r.sim.RunFor(2 * time.Millisecond)
	tick.Stop()
	r.sb.Stop()
	if a := r.sb.Agent(); a != nil {
		a.Stop()
	}
	r.sim.RunFor(time.Millisecond)
}

// checkFailover asserts the full takeover contract: the standby
// promoted itself, recovery succeeded, the successor made progress, no
// packet observed a mixed (vv, config) snapshot, and no table write
// from a torn iteration ever became packet-visible.
func checkFailover(t *testing.T, r *failoverRig) *TakeoverReport {
	t.Helper()
	if err := r.audit.Err(); err != nil {
		t.Fatalf("across the takeover: %v", err)
	}
	if r.audit.Packets < 1000 {
		t.Fatalf("only %d packets audited; traffic generator misconfigured", r.audit.Packets)
	}
	if !r.inj.Crashed() {
		t.Fatal("the crash point never fired; the scenario is vacuous")
	}
	if err := r.sb.Err(); err != nil {
		t.Fatalf("standby takeover failed: %v", err)
	}
	if !r.sb.TookOver() {
		t.Fatal("standby never detected the dead primary")
	}
	rep := r.sb.Report()
	if rep == nil || rep.Recover == nil {
		t.Fatal("takeover produced no report")
	}
	succ := r.sb.Agent()
	if err := succ.Err(); err != nil {
		t.Fatalf("successor agent died: %v", err)
	}
	if succ.Stats().Commits == 0 {
		t.Fatalf("successor made no commits after %s recovery", rep.Recover.Outcome)
	}
	// Leak check: every generation any packet carried must be one some
	// controller committed (0 is the prologue value). The crashed
	// iteration's generation equals its iteration number (the reaction
	// bumps once per iteration); it may appear only if recovery rolled
	// the iteration forward.
	allowed := make(map[uint64]bool, len(r.committed)+2)
	for g := range r.committed {
		allowed[g] = true
	}
	allowed[0] = true
	if rep.Recover.Outcome == OutcomeCommittedUnmirrored {
		allowed[rep.Recover.Iteration] = true
	}
	for _, g := range r.audit.Generations() {
		if !allowed[g] {
			t.Fatalf("packets observed generation %d, which no controller committed (outcome %s)", g, rep.Recover.Outcome)
		}
	}
	// MTTR sanity: phases are ordered and the whole takeover lands well
	// inside a millisecond of virtual time.
	if rep.RecoveredAt < rep.DetectedAt {
		t.Fatalf("takeover phases out of order: %+v", rep)
	}
	if rep.ResumedAt == 0 {
		t.Fatal("successor never committed (no resume timestamp)")
	}
	if rep.ResumedAt < rep.RecoveredAt {
		t.Fatalf("resumed before recovery finished: %+v", rep)
	}
	if mttr := rep.ResumedAt.Sub(r.inj.CrashedAt()); mttr > time.Millisecond {
		t.Fatalf("MTTR %v exceeds the 1ms budget", mttr)
	}
	return rep
}

// TestFailoverCrashPointSweep kills the primary before its k-th driver
// operation for every k across two-plus iterations' worth of the op
// sequence and asserts the takeover contract at every point. This is
// the acceptance sweep: recovery must be correct no matter where in the
// three-phase protocol the crash lands.
func TestFailoverCrashPointSweep(t *testing.T) {
	outcomes := make(map[Outcome]int)
	for k := 1; k <= 12; k++ {
		k := k
		t.Run(fmt.Sprintf("op-%02d", k), func(t *testing.T) {
			prof := faults.Profile{Name: fmt.Sprintf("crash-at-%d", k), CrashAtOp: k}
			r := buildFailoverRig(t, prof, int64(1000+k))
			runFailoverScenario(t, r)
			rep := checkFailover(t, r)
			outcomes[rep.Recover.Outcome]++
		})
	}
	// Two-plus full iterations of crash points must exercise every
	// classification; if one never appears, the op indexing regressed.
	for _, want := range []Outcome{OutcomeNotStarted, OutcomeTornPrepare, OutcomeCommittedUnmirrored} {
		if outcomes[want] == 0 {
			t.Fatalf("no crash point classified as %s: %v", want, outcomes)
		}
	}
}

// TestFailoverClassification pins the torn-state classification for the
// named crash profiles, which target specific protocol phases by op
// kind. With boundary-aligned arming the mapping is exact.
func TestFailoverClassification(t *testing.T) {
	cases := []struct {
		name string
		prof faults.Profile
		want Outcome
	}{
		// Crash before the second shadow prepare: one table's shadow
		// carries the new value, the other the old. Roll back.
		{"mid-prepare", faults.CrashMidPrepare(), OutcomeTornPrepare},
		// Crash before a vv flip: prepares landed, the flip did not.
		{"at-commit", faults.CrashAtCommit(), OutcomeTornPrepare},
		// Crash before the first mirror write: the flip landed, so
		// recovery completes the iteration from its journaled intent.
		{"mid-mirror", faults.CrashMidMirror(), OutcomeCommittedUnmirrored},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := buildFailoverRig(t, tc.prof, 42)
			runFailoverScenario(t, r)
			rep := checkFailover(t, r)
			if rep.Recover.Outcome != tc.want {
				t.Fatalf("outcome = %s, want %s", rep.Recover.Outcome, tc.want)
			}
			if tc.want == OutcomeCommittedUnmirrored && rep.Recover.RepairWrites == 0 {
				t.Fatal("committed-unmirrored recovery issued no repair writes (mirror cannot have been complete)")
			}
		})
	}
}

// TestRecoverCleanRestart recovers from a journal with no pending
// intent: the audit must verify the switch against the checkpoint and
// change nothing.
func TestRecoverCleanRestart(t *testing.T) {
	r := buildFailoverRig(t, faults.Profile{Name: "none"}, 7)
	r.sb.Stop() // no heartbeat takeover here; Recover is called directly
	r.agent.opts.MaxIterations = 20
	r.agent.Start()
	r.sim.RunFor(2 * time.Millisecond)
	if err := r.agent.Err(); err != nil {
		t.Fatalf("primary: %v", err)
	}

	done := false
	r.sim.Spawn("restarter", func(p *sim.Proc) {
		a, rep, err := RecoverSessionAgent(p, r.sim, r.svc, "restart", 2, r.store, r.plan, Options{})
		if err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		if rep.Outcome != OutcomeClean {
			t.Errorf("outcome = %s, want clean", rep.Outcome)
		}
		if rep.RepairWrites != 0 {
			t.Errorf("clean recovery issued %d repair writes", rep.RepairWrites)
		}
		if rep.Iteration != 20 {
			t.Errorf("recovered iteration = %d, want 20", rep.Iteration)
		}
		if a.vv != r.agent.vv {
			t.Errorf("recovered vv = %d, primary had %d", a.vv, r.agent.vv)
		}
		if rep.AuditedTables == 0 || rep.AuditedEntries == 0 {
			t.Errorf("clean recovery audited nothing: %+v", rep)
		}
		done = true
	})
	r.sim.RunFor(time.Millisecond)
	if !done {
		t.Fatal("recovery never completed")
	}
}

// TestRecoverNoCheckpoint pins the boot-failure contract: recovering
// from an empty journal refuses with ErrNoCheckpoint.
func TestRecoverNoCheckpoint(t *testing.T) {
	r := buildFailoverRig(t, faults.Profile{Name: "none"}, 3)
	r.sb.Stop()
	ran := false
	r.sim.Spawn("recover-empty", func(p *sim.Proc) {
		_, _, err := RecoverSessionAgent(p, r.sim, r.svc, "succ", 2, journal.NewMemStore(), r.plan, Options{})
		if !errors.Is(err, ErrNoCheckpoint) {
			t.Errorf("err = %v, want ErrNoCheckpoint", err)
		}
		ran = true
	})
	r.sim.RunFor(time.Millisecond)
	if !ran {
		t.Fatal("recovery goroutine never ran")
	}
}

// TestReelectionDuringIteration is the demotion path (as opposed to the
// crash path above): a successor with a higher election id takes
// primacy while the incumbent is mid-iteration. The incumbent's next
// write fails with ErrNotPrimary and it dies; whatever it half-staged
// must not corrupt the state the successor audits, and packets must
// stay consistent throughout.
func TestReelectionDuringIteration(t *testing.T) {
	r := buildFailoverRig(t, faults.Profile{Name: "none"}, 11)
	r.sb.Stop() // takeover is explicit here, not heartbeat-driven

	r.agent.Start()
	tick := check.TwoTableTraffic(r.sim, r.sw)
	var succ *Agent
	var rep *RecoverReport
	r.sim.Schedule(500*sim.Microsecond, func() {
		r.sim.Spawn("usurper", func(p *sim.Proc) {
			// A small odd offset lands the election mid-iteration
			// (iterations are a few µs long and back to back).
			p.Sleep(1700 * sim.Nanosecond)
			var err error
			succ, rep, err = RecoverSessionAgent(p, r.sim, r.svc, "usurper", 5, r.store, r.plan, Options{})
			if err != nil {
				t.Errorf("usurper recovery: %v", err)
			}
		})
	})
	r.sim.RunFor(3 * time.Millisecond)
	tick.Stop()

	// The incumbent must be dead with a non-primary error: demotion is
	// not a transient channel fault, so retrying cannot mask it.
	err := r.agent.Err()
	if err == nil {
		t.Fatal("demoted primary kept running")
	}
	if !errors.Is(err, ctlplane.ErrNotPrimary) {
		t.Fatalf("incumbent died with %v, want ErrNotPrimary", err)
	}
	if succ == nil || rep == nil {
		t.Fatal("successor never recovered")
	}
	if err := r.audit.Err(); err != nil {
		t.Fatalf("across the demotion: %v", err)
	}
	if got, want := succ.vv, r.switchVV(t); got != want {
		t.Fatalf("successor vv=%d disagrees with switch vv=%d", got, want)
	}
}

// TestDialogueRunsMemoized pins the price the agent pays for its writes:
// every table op of a steady-state lockstep iteration on a raw driver is
// memoized, because install memoizes each concrete entry it adds. The
// same holds for a successor's first iteration after a Recover from a
// torn prepare whose reconcile re-added an entry: reconcile memoizes
// the handles it records, re-added ones included.
func TestDialogueRunsMemoized(t *testing.T) {
	const steady = 20
	ls := &lockstep{}
	r := buildRig(t, check.TwoTableSrc, Options{})
	store := journal.NewMemStore()
	// Armed after the last steady iteration, the injector crashes the
	// primary before that next iteration's commit flip, its second
	// master write (the first is the mv flip).
	inj := faults.Wrap(r.sim, r.drv, faults.CrashAtCommit(), 1)
	inj.SetEnabled(false)
	var start, end driver.Stats
	tear := false
	primary := NewAgent(r.sim, inj, r.plan, Options{
		Journal:  &JournalConfig{Store: store},
		Prologue: ls.prologue,
		AfterIteration: func(p *sim.Proc, a *Agent) {
			switch a.stats.Iterations {
			case 1:
				start = r.drv.Stats()
			case 1 + steady:
				end = r.drv.Stats()
				tear = true
				inj.SetEnabled(true)
			}
		},
	})
	// The torn iteration deletes t1's entry: its prepare removes the
	// shadow copy, and the crash leaves it removed for Recover to re-add.
	if err := primary.RegisterNativeReaction("bump", func(ctx *Ctx) error {
		if !tear {
			return ls.react(ctx)
		}
		t1, _ := ctx.Table("t1")
		return t1.DeleteEntry(ls.h1)
	}); err != nil {
		t.Fatal(err)
	}
	primary.Start()
	r.sim.RunFor(time.Millisecond)
	if !inj.Crashed() {
		t.Fatal("the primary never crashed; the takeover half is vacuous")
	}
	checkMemoized(t, "primary, steady state", start, end)

	var rep *RecoverReport
	var succStart, succEnd driver.Stats
	r.sim.Spawn("successor", func(p *sim.Proc) {
		succ, rrep, err := Recover(p, r.sim, r.drv, store, r.plan, Options{
			MaxIterations: 1,
			AfterIteration: func(p *sim.Proc, a *Agent) {
				succEnd = r.drv.Stats()
			},
		})
		if err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		rep = rrep
		if err := succ.RegisterNativeReaction("bump", ls.react); err != nil {
			t.Error(err)
			return
		}
		succStart = r.drv.Stats()
		succ.Start()
	})
	r.sim.RunFor(time.Millisecond)
	if rep == nil {
		t.Fatal("recovery never completed")
	}
	if rep.Outcome != OutcomeTornPrepare || rep.RepairWrites == 0 {
		t.Fatalf("recover: outcome %s with %d repair writes, want a torn prepare that re-adds t1's shadow entry", rep.Outcome, rep.RepairWrites)
	}
	checkMemoized(t, "successor's first iteration", succStart, succEnd)
}

// checkMemoized fails unless the driver ran table ops between two Stats
// snapshots and every one of them paid the memoized price.
func checkMemoized(t *testing.T, what string, from, to driver.Stats) {
	t.Helper()
	ops, memo := to.TableOps-from.TableOps, to.MemoizedOps-from.MemoizedOps
	if ops == 0 || memo != ops {
		t.Fatalf("%s: %d of %d table ops memoized, want all", what, memo, ops)
	}
}
