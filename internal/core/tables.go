package core

import (
	"fmt"
	"slices"

	"repro/internal/compiler"
	"repro/internal/journal"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// UserHandle identifies a user-level entry in a malleable table. One
// user entry maps to several concrete data-plane entries: one per
// combination of malleable-field alternatives, times two versions for
// vv-protected tables.
type UserHandle uint64

// UserEntry is a user-level entry specification against the table's
// P4R-visible key columns (malleable-field columns take a single
// KeySpec that is replicated across the alternatives).
type UserEntry struct {
	Keys     []rmt.KeySpec
	Priority int
	Action   string
	Data     []uint64
}

// tableManager owns the user-to-concrete entry mapping for one
// malleable (or alt-expanded) table and implements the three-phase
// prepare/commit/mirror protocol of §5.1.2. What an iteration staged is
// not kept here but in the agent's staged-op log (staged.go).
type tableManager struct {
	agent *Agent
	info  *compiler.MblTableInfo

	// entries is written only through put and drop, which invalidate
	// sorted, the handle list in ascending order that checkpoints,
	// takeover and Entries walk.
	entries    map[UserHandle]*userEntry
	sorted     []UserHandle
	sortedOK   bool
	nextHandle UserHandle

	// keyScratch backs the generated keys install hands the channel,
	// which copies what it keeps (the driver.Channel contract).
	keyScratch []rmt.KeySpec

	// th and rxn are the handles Agent.Table and Ctx.Table hand out.
	th  TableHandle
	rxn RxnTable
}

type userEntry struct {
	// spec is the entry's own copy: Keys never change after the add, Data
	// is refilled in place by every modify.
	spec UserEntry
	// concrete[v] holds the installed rmt handles for version v, aligned
	// with the plan's Combos. For non-vv tables only concrete[0] is used.
	concrete [2][]rmt.EntryHandle
}

// setSpec rebinds the entry's action and data in place.
func (ue *userEntry) setSpec(action string, data []uint64) {
	ue.spec.Action = action
	ue.spec.Data = append(ue.spec.Data[:0], data...)
}

func newTableManager(a *Agent, info *compiler.MblTableInfo) *tableManager {
	tm := &tableManager{
		agent: a, info: info, entries: make(map[UserHandle]*userEntry),
		keyScratch: make([]rmt.KeySpec, len(info.Combos[0].Keys)),
	}
	tm.th = TableHandle{tm: tm}
	return tm
}

func (tm *tableManager) put(h UserHandle, ue *userEntry) {
	tm.entries[h] = ue
	tm.sortedOK = false
}

func (tm *tableManager) drop(h UserHandle) {
	delete(tm.entries, h)
	tm.sortedOK = false
}

// handles returns the user handles in ascending order. The slice is
// the manager's own, valid until the next put or drop.
func (tm *tableManager) handles() []UserHandle {
	if !tm.sortedOK {
		tm.sorted = tm.sorted[:0]
		for h := range tm.entries {
			tm.sorted = append(tm.sorted, h)
		}
		slices.Sort(tm.sorted)
		tm.sortedOK = true
	}
	return tm.sorted
}

// userKeys is the number of user-visible key columns.
func (tm *tableManager) userKeys() int { return len(tm.info.Combos[0].KeyCol) }

// concreteEntry builds the generated-table entry for one user entry,
// combination ci, and one vv version, with its keys in gen (nil: fresh).
func (tm *tableManager) concreteEntry(gen []rmt.KeySpec, spec *UserEntry, ci int, version uint64) (rmt.Entry, error) {
	if len(spec.Keys) != tm.userKeys() {
		return rmt.Entry{}, fmt.Errorf("table %s: entry has %d user keys, want %d", tm.info.Table, len(spec.Keys), tm.userKeys())
	}
	combo := &tm.info.Combos[ci]
	if gen == nil {
		gen = make([]rmt.KeySpec, len(combo.Keys))
	}
	copy(gen, combo.Keys)
	for ui, col := range combo.KeyCol {
		// Fig. 6: the active alternative's column carries the user key
		// (ternary full-mask for user-exact); the others stay wildcard.
		gen[col] = spec.Keys[ui]
	}
	if tm.info.VVCol >= 0 {
		gen[tm.info.VVCol] = rmt.ExactKey(version)
	}
	return rmt.Entry{Keys: gen, Priority: spec.Priority, Action: combo.Action(spec.Action), Data: spec.Data}, nil
}

// versioned reports whether the table carries the vv column.
func (tm *tableManager) versioned() bool { return tm.info.VVCol >= 0 }

// ---- Resumable concrete-entry operations ----
//
// All three maintain the invariant that ue.concrete[version] holds the
// handles of a prefix of the plan's Combos, so re-running an operation
// after a mid-way transient failure resumes instead of duplicating work:
// that is what lets a failed prepare be retried or undone without
// tracking per-combo state externally.

// install extends version's concrete entries until every combo is
// installed, using the entry's current spec. Each new handle is
// memoized, so every later rewrite of the entry — a prepare, a mirror,
// an undo — pays the memoized price.
func (tm *tableManager) install(p *sim.Proc, ue *userEntry, version uint64) error {
	for len(ue.concrete[version]) < len(tm.info.Combos) {
		e, err := tm.concreteEntry(tm.keyScratch, &ue.spec, len(ue.concrete[version]), version)
		if err != nil {
			return err
		}
		rh, err := tm.agent.retry.AddEntry(p, tm.info.Table, e)
		if err != nil {
			return err
		}
		tm.agent.drv.Memoize(tm.info.Table, rh)
		ue.concrete[version] = append(ue.concrete[version], rh)
	}
	return nil
}

// uninstall deletes version's concrete entries back-to-front until none
// remain, preserving the prefix invariant.
func (tm *tableManager) uninstall(p *sim.Proc, ue *userEntry, version uint64) error {
	for len(ue.concrete[version]) > 0 {
		i := len(ue.concrete[version]) - 1
		if err := tm.agent.retry.DeleteEntry(p, tm.info.Table, ue.concrete[version][i]); err != nil {
			return err
		}
		ue.concrete[version] = ue.concrete[version][:i]
	}
	return nil
}

// applyAll modifies every concrete entry of version to action and data.
// Modifying an entry to data it already carries is harmless, so
// re-running after a partial failure is safe without progress tracking.
func (tm *tableManager) applyAll(p *sim.Proc, ue *userEntry, version uint64, action string, data []uint64) error {
	for ci, rh := range ue.concrete[version] {
		if err := tm.agent.retry.ModifyEntry(p, tm.info.Table, rh, tm.info.Combos[ci].Action(action), data); err != nil {
			return err
		}
	}
	return nil
}

// addEntry mints a user handle for a new entry and stages its add: the
// concrete entries are installed for the shadow version (vv^1) by the
// op's prepare and for the primary by its mirror (see prepareStaged and
// settle for when those run). An unversioned table, which only a
// prologue writes (TableHandle.AddEntry), installs directly.
func (tm *tableManager) addEntry(p *sim.Proc, spec UserEntry) (UserHandle, error) {
	if _, ok := tm.agent.plan.Prog.Actions[spec.Action]; !ok {
		if _, specialized := tm.info.Combos[0].Variant[spec.Action]; !specialized {
			return 0, fmt.Errorf("table %s: unknown action %q: %w", tm.info.Table, spec.Action, rmt.ErrUnknownAction)
		}
	}
	spec.Keys, spec.Data = slices.Clone(spec.Keys), slices.Clone(spec.Data)
	ue := &userEntry{spec: spec}
	tm.nextHandle++
	h := tm.nextHandle

	if !tm.versioned() {
		if err := tm.install(p, ue, 0); err != nil {
			// Unversioned entries are packet-visible as they land; a
			// partial install must not linger. If cleanup also fails the
			// entries leak until the channel heals — unversioned tables
			// have no shadow to hide behind.
			_ = tm.uninstall(p, ue, 0)
			return 0, err
		}
		tm.put(h, ue)
		return h, nil
	}
	tm.put(h, ue)
	tm.agent.stage(journal.OpAdd, tm, h, ue).setNew(spec.Action, spec.Data)
	return h, nil
}

// modifyEntry stages a rebind of a user entry's action/data for the
// three-phase update. Only a versioned table gets here: Ctx.Table and
// the host's table calls refuse the others.
func (tm *tableManager) modifyEntry(h UserHandle, action string, data []uint64) error {
	ue, ok := tm.entries[h]
	if !ok {
		return fmt.Errorf("table %s: no user entry %d: %w", tm.info.Table, h, rmt.ErrUnknownEntry)
	}
	tm.agent.stage(journal.OpModify, tm, h, ue).setNew(action, data)
	return nil
}

// deleteEntry stages a user entry's removal: the shadow copy is deleted
// in the prepare phase, the old primary after commit (§5.1.2). Like
// modifyEntry, only for a versioned table.
func (tm *tableManager) deleteEntry(h UserHandle) error {
	ue, ok := tm.entries[h]
	if !ok {
		return fmt.Errorf("table %s: no user entry %d: %w", tm.info.Table, h, rmt.ErrUnknownEntry)
	}
	tm.agent.stage(journal.OpDelete, tm, h, ue)
	return nil
}

// TableHandle is the user-facing API of a malleable table.
type TableHandle struct {
	tm *tableManager
}

// AddEntry installs a user entry outside a reaction (prologue, ad hoc):
// there is no commit to wait for, so the entry is settled at once.
func (th *TableHandle) AddEntry(p *sim.Proc, e UserEntry) (UserHandle, error) {
	h, err := th.tm.addEntry(p, e)
	if err == nil && th.tm.versioned() {
		err = th.tm.agent.settle(p)
	}
	return h, err
}

// Entries returns the user-level entries (sorted by handle).
func (th *TableHandle) Entries() []UserEntry {
	hs := th.tm.handles()
	out := make([]UserEntry, len(hs))
	for i, h := range hs {
		out[i] = th.tm.entries[h].spec
		// The entry refills its data in place; hand out a copy.
		out[i].Data = slices.Clone(out[i].Data)
	}
	return out
}
