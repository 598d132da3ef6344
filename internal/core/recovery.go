package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/driver"
	"repro/internal/faults"
	"repro/internal/sim"
)

// This file implements the agent's fault-tolerance layer: per-operation
// retries with exponential backoff, a per-iteration watchdog deadline,
// transactional rollback of half-applied three-phase updates, and
// graceful degradation to the last checkpointed measurement snapshot.
//
// The recovery model leans on two properties of the stack below:
//
//   - Transient channel failures (driver.ErrTransient) never apply the
//     operation, so reissuing an identical request is always safe.
//   - Shadow (vv^1) table copies are invisible to the data plane until
//     the master flip, so a half-applied prepare or mirror phase is
//     never observable — it only has to be cleaned up (or completed)
//     before the *next* flip.
//
// Together these give a simple transactional discipline: an iteration
// either commits (master flip succeeded) or is abandoned (everything it
// staged is undone and the loop continues). The master flip itself is a
// single driver operation, so there is no window in which vv is
// half-flipped.

// Sentinel errors of the dialogue loop's recovery layer.
var (
	// ErrWatchdog marks an iteration abandoned because its deadline
	// (RecoveryOptions.IterationDeadline) passed — typically a stuck
	// driver channel. The iteration's staged updates are rolled back and
	// the loop continues.
	ErrWatchdog = errors.New("core: iteration watchdog deadline exceeded")
	// ErrRetriesExhausted marks a driver operation that kept failing
	// transiently after the configured retry attempts/budget.
	ErrRetriesExhausted = errors.New("core: transient-failure retries exhausted")
	// ErrStopped marks an iteration cut short because Stop was
	// requested; the agent exits cleanly (Err() stays nil).
	ErrStopped = errors.New("core: agent stop requested")
)

// RecoveryOptions configures how the dialogue loop survives transient
// driver-channel failures. NewAgent derives it from the channel
// (RecoveryForChannel) when Options.Recovery is the zero value.
type RecoveryOptions struct {
	// MaxAttempts is the number of tries per driver operation (1 = no
	// retry). Only failures wrapping driver.ErrTransient are retried;
	// fatal errors (unknown table, range violation) propagate at once.
	MaxAttempts int
	// RetryBackoff seeds the full-jitter exponential backoff between
	// retries (faults.Backoff): retry k sleeps uniform in
	// [0, min(cap, RetryBackoff<<k)], drawn deterministically from the
	// simulation RNG, where cap is five doublings of RetryBackoff and at
	// least minMaxBackoff.
	RetryBackoff time.Duration
	// IterationDeadline is the watchdog: an iteration that has not
	// finished within this much virtual time is abandoned at the next
	// operation boundary, its staged updates rolled back. Zero = off.
	// (The simulator cannot preempt a process blocked inside a driver
	// call, so the watchdog is cooperative: it fires when the stuck
	// operation finally returns, bounding damage to one op.)
	IterationDeadline time.Duration
	// StalenessBudget bounds how old a degraded reaction's snapshot may
	// be. A reaction whose poll fails past the retry limits runs on its
	// previous checkpointed measurement snapshot instead of abandoning
	// the iteration: reactions go briefly stale rather than silent — the
	// paper's measurement checkpoint (Fig. 9) is exactly a consistent
	// snapshot, so reusing the last one preserves serializability. Once
	// the last successful poll is further in the past than this, the
	// iteration is abandoned instead of reacting to ancient data. Zero =
	// no bound (a reaction degrades indefinitely).
	StalenessBudget time.Duration
}

const (
	// retryBudget bounds the total retries spent inside one dialogue
	// iteration; past it the iteration is abandoned rather than retried
	// op by op.
	retryBudget = 64
	// minMaxBackoff is the floor of the exponential backoff's cap.
	minMaxBackoff = 64 * time.Microsecond
)

// RecoveryForChannel returns the recovery budgets for a channel with the
// given fault-free round trip time. An in-process channel (rtt 0) gets
// five tries per op, a 2µs backoff (the scale of one driver op) and a
// 2ms watchdog. A message channel gets a watchdog of watchdogRTTs round
// trips and a backoff that starts at one RTT instead: a fixed deadline
// tuned for an in-process channel trips constantly once every driver op
// pays a real (and possibly retransmitted) round trip; scaling by RTT
// keeps the watchdog meaningful across channel speeds.
func RecoveryForChannel(rtt time.Duration) RecoveryOptions {
	r := RecoveryOptions{
		MaxAttempts:       5,
		RetryBackoff:      2 * time.Microsecond,
		IterationDeadline: 2 * time.Millisecond,
	}
	if rtt > 0 {
		r.IterationDeadline = watchdogRTTs * rtt
		r.RetryBackoff = rtt
	}
	return r
}

// watchdogRTTs is the RTT-scaled watchdog budget: an iteration gets
// this many channel round trips before it is abandoned. Sized for the
// chaos suite's workloads (tens of ops per iteration, each possibly
// retransmitted several times).
const watchdogRTTs = 400

// watchdogDeadline computes the iteration watchdog cutoff starting at
// start, or 0 for no watchdog.
func (r RecoveryOptions) watchdogDeadline(start sim.Time) sim.Time {
	if r.IterationDeadline > 0 {
		return start.Add(r.IterationDeadline)
	}
	return 0
}

// recoverable reports whether err abandons the iteration (rollback and
// continue) rather than killing the agent. A degraded channel
// (driver.ErrChannelDegraded) is recoverable but additionally marks the
// agent for a resynchronizing audit before its next iteration, because
// the abandoned operation may have applied switch-side.
func recoverable(err error) bool {
	return errors.Is(err, ErrWatchdog) || errors.Is(err, ErrRetriesExhausted) ||
		driver.IsTransient(err) || errors.Is(err, driver.ErrChannelDegraded)
}

// backoff builds the full-jitter retry backoff (faults.Backoff), drawn
// from the simulation RNG: agents that tripped over the same fault
// window retry decorrelated instead of in lockstep.
func (r RecoveryOptions) backoff(s *sim.Simulator) *faults.Backoff {
	return faults.NewBackoff(s.Rand(), r.RetryBackoff, max(minMaxBackoff, 32*r.RetryBackoff))
}

// drvDo runs one driver operation under the retry policy. Every driver
// call the agent makes reaches it — a.retry, the agent's driver.Channel
// view of its own channel, is an Adapter over drvDo — so the policy
// applies uniformly: prologue, measurement polls, three-phase prepares,
// the master flip, mirrors, undos and audits. Transient failures back
// off exponentially (with jitter) and reissue, up to MaxAttempts per op
// and retryBudget per iteration, never past the iteration deadline or a
// stop request. The operation is named only on the error path; the
// fault-free path allocates nothing.
func (a *Agent) drvDo(p *sim.Proc, op *driver.Op) error {
	rec := a.opts.Recovery
	var bo *faults.Backoff // built on the first retry
	for attempt := 1; ; attempt++ {
		if a.iterDeadline > 0 && p.Now() >= a.iterDeadline {
			return fmt.Errorf("%s: %w", op.Name(), ErrWatchdog)
		}
		err := driver.Apply(a.drv, p, op)
		if err == nil {
			return nil
		}
		if !driver.IsTransient(err) {
			return fmt.Errorf("%s: %w", op.Name(), err)
		}
		if a.stopRequested() {
			return fmt.Errorf("%s: %w (last transient: %v)", op.Name(), ErrStopped, err)
		}
		if a.iterDeadline > 0 && p.Now() >= a.iterDeadline {
			return fmt.Errorf("%s: %w (last transient: %v)", op.Name(), ErrWatchdog, err)
		}
		if attempt >= max(rec.MaxAttempts, 1) {
			return fmt.Errorf("%s: %d attempts: %w: %w", op.Name(), attempt, ErrRetriesExhausted, err)
		}
		if a.iterRetries >= retryBudget {
			return fmt.Errorf("%s: iteration retry budget %d spent: %w: %w", op.Name(), retryBudget, ErrRetriesExhausted, err)
		}
		a.iterRetries++
		a.stats.Retries++
		if bo == nil {
			bo = rec.backoff(a.sim)
		}
		p.Sleep(bo.Next())
	}
}

// ---- Rollback ----

// leaveToResync records a shadow-side write that failed for good — an
// undo, a mirror, an init table's restore or mirror. Its op has already
// brought the agent's image to the committed state, so nothing is
// replayed: a write whose fate is unknown may have landed, and
// reissuing it could add a duplicate or delete a handle that is gone.
// The resync before the next iteration audits the switch and
// reconciles it against the image instead; the shadow copy is invisible
// to packets until the next flip, and no flip happens before that
// resync succeeds.
func (a *Agent) leaveToResync() {
	a.resyncPending = true
	a.stats.RepairOps++
}

// rollbackIteration reverts everything the abandoned iteration staged:
// pending malleable writes are dropped, shadow-entry prepares are
// undone (or left to the resync if the channel is still failing), and
// the interpreted bodies' statics go back to the last commit. The
// committed configuration — what packets observe — was never touched,
// because vv only flips on a fully-successful commit.
func (a *Agent) rollbackIteration(p *sim.Proc) {
	// The iteration's deadline no longer applies; rollback gets a fresh
	// retry budget.
	a.iterDeadline = 0
	a.iterRetries = 0
	if len(a.pendingMbl) > 0 || len(a.staged) > 0 {
		a.stats.Rollbacks++
	}
	clear(a.pendingMbl)
	a.rollbackStaged(p)
	for _, rr := range a.reactions {
		rr.restoreImage()
	}
}
