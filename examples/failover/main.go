// The failover example runs two Mantis controllers against one switch:
// a journaled primary and a hot standby. The primary's reaction updates
// two tables in lockstep every iteration, write-ahead journaling each
// update; every forwarded packet checks that it never observes the two
// tables out of sync. Mid-run the primary is killed part-way through
// mirroring a committed update — the worst torn state, where the switch
// already serves the new config but the shadow copies are stale. The
// standby notices the journal heartbeat go silent, elects itself
// primary with a higher election id, audits the live switch against the
// journal, classifies the torn iteration, rolls it forward, and resumes
// the dialogue. The run prints the reconciliation verdict and the MTTR
// decomposition (detect / audit / reconcile / resume).
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/check"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/driver"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/rmt"
	"repro/internal/sim"
)

func main() {
	// The program is internal/check's polled lockstep program: t1 writes
	// hdr.o1 and t2 writes hdr.o2, behind a register the reaction polls.
	plan, err := compiler.CompileSource(check.FaultSweepSrc, compiler.DefaultOptions())
	if err != nil {
		log.Fatalf("compile: %v", err)
	}
	s := sim.New(1)
	sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		log.Fatalf("switch: %v", err)
	}
	drv := driver.New(s, sw, driver.DefaultCostModel())
	svc := ctlplane.New(s, drv, ctlplane.Options{})

	// The primary holds election id 1; a crash injector wraps its
	// session, armed to kill it right before the third ModifyEntry of a
	// dialogue iteration — i.e. mid-mirror, after the version flip has
	// already committed on the switch.
	sess, err := svc.Open(ctlplane.SessionOptions{
		Name: "primary", Role: ctlplane.RolePrimary, ElectionID: 1,
	})
	if err != nil {
		log.Fatalf("primary session: %v", err)
	}
	inj := faults.Wrap(s, sess, faults.CrashMidMirror(), 1)
	inj.SetEnabled(false)

	// Both controllers share the durable intent journal: the primary
	// write-ahead logs each iteration into it, the standby recovers
	// from it.
	store := journal.NewMemStore()

	// The reaction both controllers run: bump a shared generation and
	// write it to both tables, so any packet seeing o1 != o2 proves a
	// torn cross-table state.
	var h1, h2 core.UserHandle
	gen := uint64(0)
	react := func(ctx *core.Ctx) error {
		gen++
		t1, _ := ctx.Table("t1")
		t2, _ := ctx.Table("t2")
		if err := t1.ModifyEntry(h1, "set1", []uint64{gen}); err != nil {
			return err
		}
		return t2.ModifyEntry(h2, "set2", []uint64{gen})
	}

	primary := core.NewAgent(s, inj, plan, core.Options{
		Journal: &core.JournalConfig{Store: store},
		AfterIteration: func(p *sim.Proc, a *core.Agent) {
			// Arm at an iteration boundary so the crash lands at a
			// deterministic protocol phase.
			if a.Stats().Iterations == 100 {
				inj.SetEnabled(true)
			}
		},
		Prologue: func(p *sim.Proc, a *core.Agent) error {
			t1, _ := a.Table("t1")
			t2, _ := a.Table("t2")
			var err error
			if h1, err = t1.AddEntry(p, core.UserEntry{Keys: []rmt.KeySpec{rmt.ExactKey(7)}, Action: "set1", Data: []uint64{0}}); err != nil {
				return err
			}
			h2, err = t2.AddEntry(p, core.UserEntry{Keys: []rmt.KeySpec{rmt.ExactKey(7)}, Action: "set2", Data: []uint64{0}})
			return err
		},
	})
	if err := primary.RegisterNativeReaction("react", react); err != nil {
		log.Fatalf("primary reaction: %v", err)
	}

	// The standby watches the journal heartbeat; on silence it opens a
	// primary session with a higher election id and recovers.
	sb := core.NewStandby(s, svc, core.StandbyOptions{
		Name:       "standby",
		ElectionID: 2,
		Store:      store,
		Plan:       plan,
		CheckEvery: 3 * time.Microsecond,
		Configure: func(a *core.Agent) error {
			return a.RegisterNativeReaction("react", react)
		},
	})

	// Every forwarded packet audits cross-table consistency.
	audit := check.Attach(sw)

	primary.Start()
	tick := check.FaultSweepTraffic(s, sw)
	s.RunFor(2 * time.Millisecond)
	tick.Stop()
	sb.Stop()
	if succ := sb.Agent(); succ != nil {
		succ.Stop()
	}
	s.RunFor(time.Millisecond)

	if err := sb.Err(); err != nil {
		log.Fatalf("standby: %v", err)
	}
	if !inj.Crashed() {
		log.Fatal("the crash never fired")
	}
	if !sb.TookOver() {
		log.Fatal("the standby never took over")
	}
	rep := sb.Report()
	succ := sb.Agent()
	if err := succ.Err(); err != nil {
		log.Fatalf("successor: %v", err)
	}

	crashAt := inj.CrashedAt()
	fmt.Printf("primary:    crashed at %v mid-mirror, iteration %d journaled\n",
		crashAt, rep.Recover.Iteration)
	fmt.Printf("takeover:   verdict %q — audited %d tables / %d entries, %d repair writes\n",
		rep.Recover.Outcome, rep.Recover.AuditedTables, rep.Recover.AuditedEntries, rep.Recover.RepairWrites)
	fmt.Printf("MTTR:       %v total\n", rep.ResumedAt.Sub(crashAt))
	fmt.Printf("  detect    %v (journal heartbeat timeout)\n", rep.DetectedAt.Sub(crashAt))
	fmt.Printf("  audit     %v (switch read-back vs journal)\n", rep.Recover.AuditTime)
	fmt.Printf("  reconcile %v (roll the torn iteration forward)\n", rep.Recover.ReconcileTime)
	fmt.Printf("  resume    %v (successor start to first commit)\n", rep.ResumedAt.Sub(rep.RecoveredAt))
	sst := succ.Stats()
	fmt.Printf("successor:  %d commits after takeover (resumed from iteration %d)\n",
		sst.Commits, rep.Recover.Iteration)
	fmt.Printf("audit:      %d packets crossed the failover, %d saw torn cross-table state\n",
		audit.Packets, audit.Violations)
	if err := audit.Err(); err != nil {
		log.Fatalf("serializability violated across the takeover: %v", err)
	}
}
