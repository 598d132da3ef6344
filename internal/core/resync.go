package core

import (
	"fmt"

	"repro/internal/compiler"
	"repro/internal/p4"
	"repro/internal/sim"
)

// This file handles the one failure mode an unreliable control channel
// adds on top of the transient-error model: ambiguity. When an
// operation dies with driver.ErrChannelDegraded, the request — or only
// its acknowledgment — may be what was lost, so the switch may or may
// not hold the write. Two mechanisms resolve the two places ambiguity
// bites:
//
//   - resync: after an iteration is abandoned on a degraded error, or a
//     shadow-side write failed for good (leaveToResync), the switch is
//     audited (master default action + every recovery-audited table)
//     against the agent's committed in-memory image — the same image
//     the journal checkpoints — and reconciled with minimal writes,
//     exactly as a standby takeover would, but in-session and without
//     restarting. Nothing is replayed: a write of unknown fate is
//     settled by what the audit finds. Until the audit itself succeeds
//     the flag stays set, so a partitioned agent keeps degrading and
//     retrying until the heal, then resyncs once.
//
//   - resolveFlip: the master vv flip cannot wait for a later audit —
//     if a flip reported as degraded actually landed, the former shadow
//     copies are already packet-visible, and the normal rollback would
//     scribble on them mid-service. So a degraded flip is resolved
//     inline: read the master back until a read succeeds (the channel
//     client's MSL quarantine guarantees no stale copy of the flip is
//     still in flight by the time the degraded error is reported, so
//     what the read observes is the flip's final fate), then either
//     continue the commit as a success or reissue the flip.

// masterVersions reads the version bits out of an audited master
// default action: the vv and mv slots of call's data, or the given
// fallbacks where the call is absent or too short to carry a slot.
func masterVersions(master *compiler.InitTableInfo, call *p4.ActionCall, vv, mv uint64) (uint64, uint64) {
	if call == nil {
		return vv, mv
	}
	for i, ip := range master.Params {
		if i >= len(call.Data) {
			break
		}
		switch ip.Kind {
		case compiler.InitVV:
			vv = call.Data[i]
		case compiler.InitMV:
			mv = call.Data[i]
		}
	}
	return vv, mv
}

// resync audits the switch against the committed image and reconciles
// any divergence left by operations whose fate was unknown or that
// failed for good. Runs at iteration start, before anything new is
// staged; failures (e.g. the channel is still partitioned) abandon the
// iteration again with the resync still pending.
func (a *Agent) resync(p *sim.Proc) error {
	if len(a.plan.InitTables) == 0 {
		a.stats.Resyncs++
		return nil
	}
	au, err := a.audit(p)
	if err != nil {
		return fmt.Errorf("resync: %w", err)
	}
	actualVV, actualMV := masterVersions(a.plan.InitTables[0], au.master, a.vv, a.mv)
	// vv never moves ambiguously: commit resolves degraded flips inline
	// before the iteration can be abandoned. A mismatch here means that
	// invariant broke — stop rather than guess which copies are live.
	if actualVV != a.vv {
		return fmt.Errorf("core: resync: switch has vv=%d but committed image has vv=%d (ambiguous flip escaped resolution)", actualVV, a.vv)
	}
	// Journal-vs-switch cross-check: the committed image being reasserted
	// is exactly what the last checkpoint recorded. If they disagree, the
	// journal no longer describes this agent and a failover from it would
	// diverge — fatal.
	if a.journaling() {
		cp, err := a.opts.Journal.Store.LoadCheckpoint()
		if err != nil {
			return fmt.Errorf("resync: load checkpoint: %w", err)
		}
		if cp != nil && cp.VV != a.vv {
			return fmt.Errorf("core: resync: journal checkpoint has vv=%d but committed image has vv=%d", cp.VV, a.vv)
		}
	}

	// mv flips are measurement-only; adopt whatever the switch holds (a
	// degraded mv flip that silently landed is absorbed here).
	a.mv = actualMV
	writes, err := a.reconcile(p, au, actualMV)
	a.stats.ResyncWrites += uint64(writes)
	if err != nil {
		return fmt.Errorf("resync: reconcile: %w", err)
	}
	a.stats.Resyncs++
	return nil
}

// resolveFlip determines the fate of a master update that died with
// driver.ErrChannelDegraded: it reads the master default action back —
// retrying indefinitely, since no forward progress of any kind is safe
// while the flip is in limbo — and reports whether the vv slot reached
// newVV. A stop request escapes with flipUnresolved set, so the exit
// path leaves the journal intent in place for a successor.
func (a *Agent) resolveFlip(p *sim.Proc, newVV uint64) (bool, error) {
	a.stats.AmbiguousFlips++
	// Disarm the watchdog: there is no safe way to abandon an iteration
	// whose flip is undecided, so the resolution loop must outlive any
	// deadline.
	a.iterDeadline = 0
	master := a.plan.InitTables[0]
	bo := a.opts.Recovery.backoff(a.sim)
	for {
		// Raw read, outside drvDo: the retry budget and watchdog must not
		// apply, and every error class (transient, degraded) just means
		// "ask again".
		call, err := a.drv.ReadDefaultAction(p, master.Table)
		if err == nil {
			actualVV, _ := masterVersions(master, call, a.vv, a.mv)
			return actualVV == newVV, nil
		}
		if a.stopRequested() {
			a.flipUnresolved = true
			return false, fmt.Errorf("master flip unresolved: %w", ErrStopped)
		}
		p.Sleep(bo.Next())
	}
}
