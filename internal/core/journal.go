package core

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/journal"
	"repro/internal/sim"
)

// This file wires the agent's dialogue loop to the durable intent
// journal (internal/journal). The write points:
//
//   - prologue end: checkpoint + heartbeat (the recovery baseline);
//   - iteration start (after any pending resync): intent in PhaseBegun;
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
	// battery-backed journal region a standby can read).
	Store journal.Store
}

// journaling reports whether the agent writes a durable journal.
func (a *Agent) journaling() bool {
	return a.opts.Journal != nil && a.opts.Journal.Store != nil
}

// specFromJournal deep-copies a journaled entry spec into a user entry.
func specFromJournal(es journal.EntrySpec) UserEntry {
	return UserEntry{Keys: slices.Clone(es.Keys), Priority: es.Priority, Action: es.Action, Data: slices.Clone(es.Data)}
}

// buildCheckpoint captures the committed configuration as a journal
// checkpoint. Called only between iterations (or at prologue end), when
// every in-memory spec reflects committed state. The record is the
// agent's own, refilled in place: it is valid until the next call, which
// the journal.Store contract (serialize before returning) makes enough.
func (a *Agent) buildCheckpoint(now sim.Time) *journal.Checkpoint {
	cp := &a.cpScratch
	cp.Iteration, cp.VV, cp.MV, cp.SavedAt = a.stats.Iterations, a.vv, a.mv, int64(now)

	if len(cp.InitData) != len(a.initData) {
		cp.InitData = make([][]uint64, len(a.initData))
	}
	for i, d := range a.initData {
		cp.InitData[i] = append(cp.InitData[i][:0], d...)
	}
	if cp.Mbl == nil {
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
			ts.Entries = next(ts.Entries)
			es, spec := &ts.Entries[len(ts.Entries)-1], &tm.entries[h].spec
			es.Handle = uint64(h)
			es.Spec.Priority, es.Spec.Action = spec.Priority, spec.Action
			es.Spec.Keys = append(es.Spec.Keys[:0], spec.Keys...)
			es.Spec.Data = append(es.Spec.Data[:0], spec.Data...)
		}
	}

	if len(cp.RegCaches) != len(a.regNames) {
		cp.RegCaches = make([]journal.RegCache, len(a.regNames))
	}
	for i, name := range a.regNames {
		rc, out := a.regCache[name], &cp.RegCaches[i]
		out.Name = name
		out.Vals = append(out.Vals[:0], rc.vals...)
		out.LastTs[0] = append(out.LastTs[0][:0], rc.lastTs[0]...)
		out.LastTs[1] = append(out.LastTs[1][:0], rc.lastTs[1]...)
	}
	return cp
}

// load seeds the agent's image from a checkpoint — the inverse of
// buildCheckpoint: version bits, iteration count, init data, malleable
// values, every table's user entries under their handles and next
// handle, and the register caches, so the ts-guarded merge stays
// monotonic across a takeover.
func (a *Agent) load(cp *journal.Checkpoint) error {
	a.vv, a.mv, a.stats.Iterations = cp.VV, cp.MV, cp.Iteration
	a.loadInitData(cp.InitData)
	maps.Copy(a.mblCache, cp.Mbl)
	for _, ts := range cp.Tables {
		tm, ok := a.tables[ts.Table]
		if !ok {
			return fmt.Errorf("checkpoint names unknown malleable table %q", ts.Table)
		}
		tm.nextHandle = UserHandle(ts.NextHandle)
		for _, es := range ts.Entries {
			tm.put(UserHandle(es.Handle), &userEntry{spec: specFromJournal(es.Spec)})
		}
	}
	for _, rc := range cp.RegCaches {
		if st, ok := a.regCache[rc.Name]; ok {
			copy(st.vals, rc.Vals)
			copy(st.lastTs[0], rc.LastTs[0])
			copy(st.lastTs[1], rc.LastTs[1])
		}
	}
	return nil
}

// loadInitData replaces the init data with a copy of data.
func (a *Agent) loadInitData(data [][]uint64) {
	a.initData = make([][]uint64, len(data))
	for i, d := range data {
		a.initData[i] = slices.Clone(d)
	}
}

// saveCheckpoint writes a fresh checkpoint.
func (a *Agent) saveCheckpoint(p *sim.Proc) error {
	if err := a.opts.Journal.Store.SaveCheckpoint(a.buildCheckpoint(p.Now())); err != nil {
		return fmt.Errorf("journal checkpoint: %w", err)
	}
	return nil
}

// journalCheckpoint saves a fresh checkpoint and heartbeats.
func (a *Agent) journalCheckpoint(p *sim.Proc) error {
	if !a.journaling() {
		return nil
	}
	if err := a.saveCheckpoint(p); err != nil {
		return err
	}
	return a.heartbeat(p)
}

// heartbeat records liveness.
func (a *Agent) heartbeat(p *sim.Proc) error {
	if err := a.opts.Journal.Store.Heartbeat(int64(p.Now())); err != nil {
		return fmt.Errorf("journal heartbeat: %w", err)
	}
	return nil
}

// writeIntent stamps it with the iteration in flight and writes it from
// the pooled intent record: Store.WriteIntent serializes before
// returning (the journal.Store contract), so reusing the record — and
// handing it slices the agent goes on to refill — is safe.
func (a *Agent) writeIntent(p *sim.Proc, desc string, it journal.Intent) error {
	it.Iteration, it.StartVV, it.TargetVV, it.WrittenAt = a.stats.Iterations+1, a.vv, a.vv^1, int64(p.Now())
	a.intentScratch = it
	if err := a.opts.Journal.Store.WriteIntent(&a.intentScratch); err != nil {
		return fmt.Errorf("journal %s: %w", desc, err)
	}
	return nil
}

// journalBegin write-ahead-logs the start of an iteration.
func (a *Agent) journalBegin(p *sim.Proc) error {
	if !a.journaling() {
		return nil
	}
	return a.writeIntent(p, "begin intent", journal.Intent{Phase: journal.PhaseBegun, Ops: a.intentScratch.Ops[:0]})
}

// journalCommitStaged upgrades the iteration's intent with the staged
// ops — the log's slots, all prepared, whose buffers the record aliases — and
// the init data the flip will install. Must complete before the prepare
// phase issues its first driver write.
func (a *Agent) journalCommitStaged(p *sim.Proc, targetInit [][]uint64) error {
	if !a.journaling() {
		return nil
	}
	ops := a.intentScratch.Ops[:0]
	for i := range a.staged {
		ops = append(ops, a.staged[i].tableOp())
	}
	return a.writeIntent(p, "commit intent", journal.Intent{
		Phase: journal.PhaseCommitStaged, Ops: ops, PendingMbl: a.pendingMbl, TargetInitData: targetInit,
	})
}

// journalIterationEnd checkpoints the now-committed configuration and
// retires the iteration's intent (checkpoint strictly first; see the
// file comment for why).
func (a *Agent) journalIterationEnd(p *sim.Proc) error {
	if !a.journaling() {
		return nil
	}
	if err := a.saveCheckpoint(p); err != nil {
		return err
	}
	return a.journalAbandon(p)
}

// journalAbandon retires the intent of an iteration — one just
// committed and checkpointed, or one whose staged state was just rolled
// back, where the checkpoint is untouched: nothing committed.
func (a *Agent) journalAbandon(p *sim.Proc) error {
	if !a.journaling() {
		return nil
	}
	if err := a.opts.Journal.Store.TruncateIntent(); err != nil {
		return fmt.Errorf("journal truncate: %w", err)
	}
	return a.heartbeat(p)
}
