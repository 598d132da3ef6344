package core

import (
	"fmt"
	"sort"

	"repro/internal/compiler"
	"repro/internal/journal"
	"repro/internal/p4"
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
// prepare/commit/mirror protocol of §5.1.2.
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

	// fields and combos are derived from the (immutable) table info once
	// at construction: the expansion fields in selector-column order and
	// every alt combination over them. All user entries share them.
	fields []string
	combos [][]int

	// mirror holds closures to run in the fill-shadow phase (step 3),
	// re-applying this iteration's changes to the now-shadow copy. The
	// closures are resumable: re-running one after a partial failure
	// continues where it stopped.
	mirror []func(p *sim.Proc) error
	// undo journals how to revert this iteration's shadow prepares if
	// the iteration is abandoned before its commit. Cleared (without
	// running) once the commit lands; run in reverse order on rollback.
	undo []chanOp
}

type userEntry struct {
	spec UserEntry
	// concrete[v] holds the installed rmt handles for version v. For
	// non-vv tables only concrete[0] is used.
	concrete [2][]rmt.EntryHandle
	// combos caches the alt combinations, aligned with concrete[v].
	combos [][]int
}

func newTableManager(a *Agent, info *compiler.MblTableInfo) *tableManager {
	tm := &tableManager{agent: a, info: info, entries: make(map[UserHandle]*userEntry)}
	tm.fields = tm.expandFields()
	tm.combos = tm.allCombos()
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
		sort.Slice(tm.sorted, func(i, j int) bool { return tm.sorted[i] < tm.sorted[j] })
		tm.sortedOK = true
	}
	return tm.sorted
}

// expandFields returns the malleable fields involved in this table's
// expansion, ordered by selector column for determinism. Called once at
// construction; use tm.fields afterwards.
func (tm *tableManager) expandFields() []string {
	fields := make([]string, 0, len(tm.info.SelectorCol))
	for f := range tm.info.SelectorCol {
		fields = append(fields, f)
	}
	sort.Slice(fields, func(i, j int) bool {
		return tm.info.SelectorCol[fields[i]] < tm.info.SelectorCol[fields[j]]
	})
	return fields
}

// allCombos enumerates all alt combinations over the expansion fields.
// Called once at construction; use tm.combos afterwards.
func (tm *tableManager) allCombos() [][]int {
	fields := tm.expandFields()
	if len(fields) == 0 {
		return [][]int{nil}
	}
	counts := make([]int, len(fields))
	for i, f := range fields {
		counts[i] = len(tm.agent.plan.MblFields[f].Alts)
	}
	var out [][]int
	combo := make([]int, len(fields))
	for {
		out = append(out, append([]int(nil), combo...))
		i := len(combo) - 1
		for i >= 0 {
			combo[i]++
			if combo[i] < counts[i] {
				break
			}
			combo[i] = 0
			i--
		}
		if i < 0 {
			return out
		}
	}
}

// concreteEntry builds the generated-table entry for one user entry,
// one alt combination, and one vv version.
func (tm *tableManager) concreteEntry(spec UserEntry, fields []string, combo []int, version uint64) (rmt.Entry, error) {
	if len(spec.Keys) != len(tm.info.Keys) {
		return rmt.Entry{}, fmt.Errorf("table %s: entry has %d user keys, want %d", tm.info.Table, len(spec.Keys), len(tm.info.Keys))
	}
	altOf := map[string]int{}
	for i, f := range fields {
		altOf[f] = combo[i]
	}
	gen := make([]rmt.KeySpec, tm.info.GenKeyCount)
	for i := range gen {
		gen[i] = rmt.WildcardKey()
	}
	for ui, uk := range tm.info.Keys {
		off := tm.info.ColOffset[ui]
		if uk.MblField == "" {
			gen[off] = spec.Keys[ui]
			continue
		}
		// Fig. 6: the active alternative's column carries the user key
		// (ternary full-mask for user-exact); the others stay wildcard.
		alt := altOf[uk.MblField]
		gen[off+alt] = spec.Keys[ui]
	}
	for f, col := range tm.info.SelectorCol {
		gen[col] = rmt.ExactKey(uint64(altOf[f]))
	}
	if tm.info.VVCol >= 0 {
		gen[tm.info.VVCol] = rmt.ExactKey(version)
	}
	action := spec.Action
	if as, ok := tm.info.ActionSpec[spec.Action]; ok {
		alts := make([]int, len(as.Fields))
		for i, f := range as.Fields {
			alts[i] = altOf[f]
		}
		action = as.VariantFor(alts)
	}
	return rmt.Entry{Keys: gen, Priority: spec.Priority, Action: action, Data: spec.Data}, nil
}

// versioned reports whether the table carries the vv column.
func (tm *tableManager) versioned() bool { return tm.info.VVCol >= 0 }

// ---- Resumable concrete-entry operations ----
//
// All three maintain the invariant that ue.concrete[version] holds the
// handles of a prefix of ue.combos, so re-running an operation after a
// mid-way transient failure resumes instead of duplicating work: that
// is what lets a failed prepare be retried, undone, or queued as a
// repair without tracking per-combo state externally.

// install extends version's concrete entries until every combo is
// installed, using the entry's current spec.
func (tm *tableManager) install(p *sim.Proc, ue *userEntry, version uint64) error {
	fields := tm.fields
	for len(ue.concrete[version]) < len(ue.combos) {
		i := len(ue.concrete[version])
		e, err := tm.concreteEntry(ue.spec, fields, ue.combos[i], version)
		if err != nil {
			return err
		}
		rh, err := tm.agent.retry.AddEntry(p, tm.info.Table, e)
		if err != nil {
			return err
		}
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

// applyAll modifies every concrete entry of version to spec. Modifying
// an entry to data it already carries is harmless, so re-running after
// a partial failure is safe without progress tracking.
func (tm *tableManager) applyAll(p *sim.Proc, ue *userEntry, version uint64, spec UserEntry) error {
	fields := tm.fields
	for i, combo := range ue.combos {
		e, err := tm.concreteEntry(spec, fields, combo, version)
		if err != nil {
			return err
		}
		if err := tm.agent.retry.ModifyEntry(p, tm.info.Table, ue.concrete[version][i], e.Action, e.Data); err != nil {
			return err
		}
	}
	return nil
}

// addEntry prepares a new user entry: concrete entries are installed
// for the shadow version (vv^1) immediately; installation for the
// primary version is deferred to the mirror phase. For unversioned
// tables the entries install directly.
func (tm *tableManager) addEntry(p *sim.Proc, spec UserEntry) (UserHandle, error) {
	if _, ok := tm.agent.plan.Prog.Actions[spec.Action]; !ok {
		if _, specialized := tm.info.ActionSpec[spec.Action]; !specialized {
			return 0, fmt.Errorf("table %s: unknown action %q: %w", tm.info.Table, spec.Action, rmt.ErrUnknownAction)
		}
	}
	ue := &userEntry{spec: spec, combos: tm.combos}
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
	shadow := tm.agent.vv ^ 1
	tm.put(h, ue)
	if tm.agent.inReaction {
		// Journal first: if the install below fails partway (or a later
		// staged operation fails), rollback removes whatever landed.
		tm.undo = append(tm.undo, chanOp{desc: "undo add " + tm.info.Table, fn: func(p *sim.Proc) error {
			if err := tm.uninstall(p, ue, shadow); err != nil {
				return err
			}
			tm.drop(h)
			return nil
		}})
	}
	if err := tm.install(p, ue, shadow); err != nil {
		if !tm.agent.inReaction {
			_ = tm.uninstall(p, ue, shadow)
			tm.drop(h)
		}
		return 0, err
	}
	if !tm.agent.inReaction {
		// Outside a reaction (prologue or ad-hoc): install both copies
		// immediately; there is no pending commit to mirror after.
		return h, tm.install(p, ue, shadow^1)
	}
	tm.agent.recordStagedOp(journal.TableOp{
		Table: tm.info.Table, Kind: journal.OpAdd, Handle: uint64(h), Spec: specToJournal(spec),
	})
	// Phase 3 (mirror): install the other copy after commit.
	tm.mirror = append(tm.mirror, func(p *sim.Proc) error {
		return tm.install(p, ue, shadow^1)
	})
	return h, nil
}

// modifyEntry rebinds a user entry's action/data via three-phase update.
func (tm *tableManager) modifyEntry(p *sim.Proc, h UserHandle, action string, data []uint64) error {
	ue, ok := tm.entries[h]
	if !ok {
		return fmt.Errorf("table %s: no user entry %d: %w", tm.info.Table, h, rmt.ErrUnknownEntry)
	}
	newSpec := ue.spec
	newSpec.Action = action
	newSpec.Data = append([]uint64(nil), data...)

	if !tm.versioned() {
		if err := tm.applyAll(p, ue, 0, newSpec); err != nil {
			// Re-apply the old spec so the packet-visible copy is not
			// left half-updated.
			_ = tm.applyAll(p, ue, 0, ue.spec)
			return err
		}
		ue.spec = newSpec
		return nil
	}
	shadow := tm.agent.vv ^ 1
	if tm.agent.inReaction {
		oldSpec := ue.spec
		tm.undo = append(tm.undo, chanOp{desc: "undo modify " + tm.info.Table, fn: func(p *sim.Proc) error {
			ue.spec = oldSpec
			return tm.applyAll(p, ue, shadow, oldSpec)
		}})
	}
	if err := tm.applyAll(p, ue, shadow, newSpec); err != nil {
		if !tm.agent.inReaction {
			_ = tm.applyAll(p, ue, shadow, ue.spec)
		}
		return err
	}
	ue.spec = newSpec
	if !tm.agent.inReaction {
		return tm.applyAll(p, ue, shadow^1, newSpec)
	}
	tm.agent.recordStagedOp(journal.TableOp{
		Table: tm.info.Table, Kind: journal.OpModify, Handle: uint64(h), Spec: specToJournal(newSpec),
	})
	tm.mirror = append(tm.mirror, func(p *sim.Proc) error {
		return tm.applyAll(p, ue, shadow^1, newSpec)
	})
	return nil
}

// deleteEntry removes a user entry: the shadow copy is deleted in the
// prepare phase, the old primary after commit (§5.1.2).
func (tm *tableManager) deleteEntry(p *sim.Proc, h UserHandle) error {
	ue, ok := tm.entries[h]
	if !ok {
		return fmt.Errorf("table %s: no user entry %d: %w", tm.info.Table, h, rmt.ErrUnknownEntry)
	}
	if !tm.versioned() {
		if err := tm.uninstall(p, ue, 0); err != nil {
			return err
		}
		tm.drop(h)
		return nil
	}
	shadow := tm.agent.vv ^ 1
	if tm.agent.inReaction {
		// Undo reinstates the deleted shadow entries (install resumes the
		// combo prefix, so a partial delete is repaired too).
		tm.undo = append(tm.undo, chanOp{desc: "undo delete " + tm.info.Table, fn: func(p *sim.Proc) error {
			return tm.install(p, ue, shadow)
		}})
	}
	if err := tm.uninstall(p, ue, shadow); err != nil {
		if !tm.agent.inReaction {
			_ = tm.install(p, ue, shadow)
		}
		return err
	}
	if !tm.agent.inReaction {
		if err := tm.uninstall(p, ue, shadow^1); err != nil {
			return err
		}
		tm.drop(h)
		return nil
	}
	tm.agent.recordStagedOp(journal.TableOp{
		Table: tm.info.Table, Kind: journal.OpDelete, Handle: uint64(h),
	})
	tm.mirror = append(tm.mirror, func(p *sim.Proc) error {
		if err := tm.uninstall(p, ue, shadow^1); err != nil {
			return err
		}
		tm.drop(h)
		return nil
	})
	return nil
}

// fillShadow runs the deferred mirror operations (phase 3). When
// recovery is enabled, a mirror that keeps failing is queued as repair
// debt instead of killing the agent: the flip already committed the
// change, and the unfinished shadow work is invisible to packets until
// the next flip, which drainRepairs gates.
func (tm *tableManager) fillShadow(p *sim.Proc) error {
	ops := tm.mirror
	tm.mirror = nil
	for i, op := range ops {
		if err := op(p); err != nil {
			if !tm.agent.opts.Recovery.Enabled() {
				return err
			}
			for _, rest := range ops[i:] {
				tm.agent.queueRepair(chanOp{desc: "mirror " + tm.info.Table, fn: rest})
			}
			return nil
		}
	}
	return nil
}

// rollback reverts this iteration's staged changes: mirror closures are
// dropped and the undo journal runs in reverse. An undo that still
// fails is queued as repair debt (its target is a shadow copy, so
// deferring it is safe). Reports whether anything was staged.
func (tm *tableManager) rollback(p *sim.Proc) bool {
	had := len(tm.undo) > 0 || len(tm.mirror) > 0
	tm.mirror = nil
	ops := tm.undo
	tm.undo = nil
	for i := len(ops) - 1; i >= 0; i-- {
		// The closures use the retry-wrapped helpers internally, so a
		// failure here means retries were already spent.
		if err := ops[i].fn(p); err != nil {
			tm.agent.queueRepair(ops[i])
		}
	}
	return had
}

// pendingMirrors reports whether the table has staged changes awaiting
// commit.
func (tm *tableManager) pendingMirrors() int { return len(tm.mirror) }

// TableHandle is the user-facing API of a malleable table.
type TableHandle struct {
	tm *tableManager
}

// AddEntry installs a user entry (serializably, when invoked from a
// reaction).
func (th *TableHandle) AddEntry(p *sim.Proc, e UserEntry) (UserHandle, error) {
	return th.tm.addEntry(p, e)
}

// ModifyEntry rebinds a user entry's action and data.
func (th *TableHandle) ModifyEntry(p *sim.Proc, h UserHandle, action string, data []uint64) error {
	return th.tm.modifyEntry(p, h, action, data)
}

// DeleteEntry removes a user entry.
func (th *TableHandle) DeleteEntry(p *sim.Proc, h UserHandle) error {
	return th.tm.deleteEntry(p, h)
}

// SetDefault replaces the table's default action. Only valid for
// unversioned tables (a versioned default cannot match on vv).
func (th *TableHandle) SetDefault(p *sim.Proc, call *p4.ActionCall) error {
	if th.tm.versioned() {
		return fmt.Errorf("table %s: default actions on vv-protected tables are fixed; install entries instead", th.tm.info.Table)
	}
	return th.tm.agent.retry.SetDefaultAction(p, th.tm.info.Table, call)
}

// Entries returns the user-level entries (sorted by handle).
func (th *TableHandle) Entries() []UserEntry {
	hs := th.tm.handles()
	out := make([]UserEntry, len(hs))
	for i, h := range hs {
		out[i] = th.tm.entries[h].spec
	}
	return out
}
