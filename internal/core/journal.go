package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/journal"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// This file wires the agent's dialogue loop to the durable intent
// journal (internal/journal). The write points:
//
//   - prologue end: checkpoint + heartbeat (the recovery baseline);
//   - iteration start (after repair debt drains): intent in PhaseBegun;
//   - commit start (before the prepare phase touches the switch):
//     intent upgraded to PhaseCommitStaged with the staged user-level
//     ops and the exact init data the flip will install;
//   - iteration end: fresh checkpoint, THEN intent truncation, then
//     heartbeat. The order matters: if the process dies between the
//     two writes, the leftover intent is idempotent against the new
//     checkpoint (ops record post-state, so re-applying them is a
//     no-op), whereas truncating first could leave a committed
//     iteration looking "clean" against a stale checkpoint and make
//     recovery rewrite the packet-visible copy;
//   - iteration abandon: rollback first, then intent truncation — if
//     the process dies mid-rollback the intent still classifies the
//     state as torn and recovery finishes the job.
//
// Journal failures are fatal to the agent: mutating the switch without
// a durable intent would silently void the crash-consistency guarantee.

// JournalConfig enables crash-consistent write-ahead journaling of the
// dialogue loop.
type JournalConfig struct {
	// Store is the durability backend (journal.MemStore models a
	// battery-backed journal region a standby can read; journal.FileStore
	// persists across real process restarts).
	Store journal.Store
	// WriteLatency models the durability cost of one checkpoint or
	// intent write (an NVMe flush, a replication ack). Zero = free.
	// Heartbeats are piggybacked and never pay it.
	WriteLatency time.Duration
}

// journaling reports whether the agent writes a durable journal.
func (a *Agent) journaling() bool {
	return a.opts.Journal != nil && a.opts.Journal.Store != nil
}

// journalWrite pays the configured durability latency, then runs one
// store operation.
func (a *Agent) journalWrite(p *sim.Proc, desc string, fn func() error) error {
	if d := a.opts.Journal.WriteLatency; d > 0 {
		p.Sleep(d)
	}
	if err := fn(); err != nil {
		return fmt.Errorf("journal %s: %w", desc, err)
	}
	return nil
}

// recordStagedOp appends one user-level table op to the iteration's
// intent, preserving global staging order across tables (roll-forward
// replays in this order).
func (a *Agent) recordStagedOp(op journal.TableOp) {
	if !a.journaling() {
		return
	}
	a.stagedOps = append(a.stagedOps, op)
}

// specToJournal deep-copies a user entry spec into its journal form.
func specToJournal(spec UserEntry) journal.EntrySpec {
	return journal.EntrySpec{
		Keys:     append([]rmt.KeySpec(nil), spec.Keys...),
		Priority: spec.Priority,
		Action:   spec.Action,
		Data:     append([]uint64(nil), spec.Data...),
	}
}

// specFromJournal is the inverse of specToJournal.
func specFromJournal(es journal.EntrySpec) UserEntry {
	return UserEntry{
		Keys:     append([]rmt.KeySpec(nil), es.Keys...),
		Priority: es.Priority,
		Action:   es.Action,
		Data:     append([]uint64(nil), es.Data...),
	}
}

// refill overwrites dst with a copy of src, reusing dst's capacity. An
// empty src yields nil, as the append([]T(nil), src...) it replaces did:
// the journal encodes nil and empty slices differently, and a recycled
// record must encode exactly like a fresh one.
func refill[T any](dst, src []T) []T {
	if len(src) == 0 {
		return nil
	}
	return append(dst[:0], src...)
}

// sortedRegNames returns the register-cache names in sorted order. The
// cache only ever grows (prologue, Recover), so the list is current
// exactly when it is as long as the cache.
func (a *Agent) sortedRegNames() []string {
	if len(a.regNames) != len(a.regCache) {
		a.regNames = a.regNames[:0]
		for name := range a.regCache {
			a.regNames = append(a.regNames, name)
		}
		sort.Strings(a.regNames)
	}
	return a.regNames
}

// buildCheckpoint captures the committed configuration as a journal
// checkpoint. Called only between iterations (or at prologue end), when
// every in-memory spec reflects committed state. The record is the
// agent's own, refilled in place: it is valid until the next call, which
// the journal.Store contract (serialize before returning) makes enough.
func (a *Agent) buildCheckpoint(now sim.Time) *journal.Checkpoint {
	cp := &a.cpScratch
	cp.Iteration, cp.VV, cp.MV, cp.SavedAt = a.stats.Iterations, a.vv, a.mv, int64(now)

	if cp.InitData == nil || len(cp.InitData) != len(a.initData) {
		cp.InitData = make([][]uint64, len(a.initData))
	}
	for i, d := range a.initData {
		cp.InitData[i] = refill(cp.InitData[i], d)
	}
	if len(a.mblCache) > 0 && cp.Mbl == nil {
		cp.Mbl = make(map[string]uint64, len(a.mblCache))
	}
	clear(cp.Mbl)
	for k, v := range a.mblCache {
		cp.Mbl[k] = v
	}

	if len(cp.Tables) != len(a.tableNames) {
		cp.Tables = make([]journal.TableState, len(a.tableNames))
	}
	for i, name := range a.tableNames {
		tm, ts := a.tables[name], &cp.Tables[i]
		ts.Table, ts.NextHandle = name, uint64(tm.nextHandle)
		ts.Entries = ts.Entries[:0]
		for _, h := range tm.handles() {
			// Take the next slot, stale contents and all: its slices are
			// refilled in place below.
			n := len(ts.Entries)
			if n < cap(ts.Entries) {
				ts.Entries = ts.Entries[:n+1]
			} else {
				ts.Entries = append(ts.Entries, journal.EntryState{})
			}
			es, spec := &ts.Entries[n], &tm.entries[h].spec
			es.Handle = uint64(h)
			es.Spec.Priority, es.Spec.Action = spec.Priority, spec.Action
			es.Spec.Keys = refill(es.Spec.Keys, spec.Keys)
			es.Spec.Data = refill(es.Spec.Data, spec.Data)
		}
		if len(ts.Entries) == 0 {
			ts.Entries = nil // encodes as null, like a fresh record
		}
	}

	regNames := a.sortedRegNames()
	if len(cp.RegCaches) != len(regNames) {
		cp.RegCaches = make([]journal.RegCache, len(regNames))
	}
	for i, name := range regNames {
		rc, out := a.regCache[name], &cp.RegCaches[i]
		out.Name = name
		out.Vals = refill(out.Vals, rc.vals)
		out.LastTs[0] = refill(out.LastTs[0], rc.lastTs[0])
		out.LastTs[1] = refill(out.LastTs[1], rc.lastTs[1])
	}
	return cp
}

// journalCheckpoint saves a fresh checkpoint and heartbeats.
func (a *Agent) journalCheckpoint(p *sim.Proc) error {
	if !a.journaling() {
		return nil
	}
	cp := a.buildCheckpoint(p.Now())
	if err := a.journalWrite(p, "checkpoint", func() error {
		return a.opts.Journal.Store.SaveCheckpoint(cp)
	}); err != nil {
		return err
	}
	return a.heartbeat(p)
}

// heartbeat records liveness (free: piggybacked on journal traffic).
func (a *Agent) heartbeat(p *sim.Proc) error {
	if err := a.opts.Journal.Store.Heartbeat(int64(p.Now())); err != nil {
		return fmt.Errorf("journal heartbeat: %w", err)
	}
	return nil
}

// journalBegin write-ahead-logs the start of an iteration.
func (a *Agent) journalBegin(p *sim.Proc) error {
	if !a.journaling() {
		return nil
	}
	// The intent scratch is reused every iteration: Store.WriteIntent
	// serializes before returning (see the journal.Store contract), so
	// handing it a pooled value is safe.
	a.intentScratch = journal.Intent{
		Iteration: a.stats.Iterations + 1,
		Phase:     journal.PhaseBegun,
		StartVV:   a.vv,
		TargetVV:  a.vv ^ 1,
		WrittenAt: int64(p.Now()),
	}
	return a.journalWrite(p, "begin intent", func() error {
		return a.opts.Journal.Store.WriteIntent(&a.intentScratch)
	})
}

// journalCommitStaged upgrades the iteration's intent with the full
// staged op list and the init data the flip will install. Must complete
// before the prepare phase issues its first driver write.
func (a *Agent) journalCommitStaged(p *sim.Proc, targetInit [][]uint64) error {
	if !a.journaling() {
		return nil
	}
	// Ops references the staged-op slice directly (no defensive copy):
	// WriteIntent serializes synchronously and the slice is not mutated
	// until the intent is retired.
	a.intentScratch = journal.Intent{
		Iteration: a.stats.Iterations + 1,
		Phase:     journal.PhaseCommitStaged,
		StartVV:   a.vv,
		TargetVV:  a.vv ^ 1,
		Ops:       a.stagedOps,
		WrittenAt: int64(p.Now()),
	}
	if len(a.pendingMbl) > 0 {
		a.intentScratch.PendingMbl = a.pendingMbl
	}
	a.intentScratch.TargetInitData = targetInit
	return a.journalWrite(p, "commit intent", func() error {
		return a.opts.Journal.Store.WriteIntent(&a.intentScratch)
	})
}

// journalIterationEnd checkpoints the now-committed configuration and
// retires the iteration's intent (checkpoint strictly first; see the
// file comment for why).
func (a *Agent) journalIterationEnd(p *sim.Proc) error {
	a.stagedOps = a.stagedOps[:0]
	if !a.journaling() {
		return nil
	}
	cp := a.buildCheckpoint(p.Now())
	if err := a.journalWrite(p, "checkpoint", func() error {
		return a.opts.Journal.Store.SaveCheckpoint(cp)
	}); err != nil {
		return err
	}
	if err := a.opts.Journal.Store.TruncateIntent(); err != nil {
		return fmt.Errorf("journal truncate: %w", err)
	}
	return a.heartbeat(p)
}

// journalAbandon retires the intent of an iteration whose staged state
// was just rolled back. The checkpoint is untouched: nothing committed.
func (a *Agent) journalAbandon(p *sim.Proc) error {
	a.stagedOps = a.stagedOps[:0]
	if !a.journaling() {
		return nil
	}
	if err := a.opts.Journal.Store.TruncateIntent(); err != nil {
		return fmt.Errorf("journal truncate: %w", err)
	}
	return a.heartbeat(p)
}
