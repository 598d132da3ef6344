package core

import (
	"fmt"
	"slices"
	"sort"

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

	// Derived from the (immutable) table info once at construction and
	// shared by all user entries: the expansion fields in selector-column
	// order, every alt combination over them, and each specialised
	// action's generated variant per combination.
	fields   []string
	combos   [][]int
	variants map[string][]string

	// keyScratch backs the generated keys install hands the channel,
	// which copies what it keeps (the driver.Channel contract).
	keyScratch []rmt.KeySpec

	// mirrorDeferred is fillShadow's mark, for one mirror phase, that one
	// of the table's mirrors failed and the rest are repair debt.
	mirrorDeferred bool

	// th and rxn are the handles Agent.Table and Ctx.Table hand out.
	th  TableHandle
	rxn RxnTable
}

type userEntry struct {
	// spec is the entry's own copy: Keys never change after the add, Data
	// is refilled in place by every modify.
	spec UserEntry
	// concrete[v] holds the installed rmt handles for version v, aligned
	// with the manager's combos. For non-vv tables only concrete[0] is
	// used.
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
		keyScratch: make([]rmt.KeySpec, info.GenKeyCount), variants: make(map[string][]string),
	}
	tm.th = TableHandle{tm: tm}
	tm.fields = tm.expandFields()
	tm.combos = tm.allCombos()
	for name, as := range info.ActionSpec {
		alts := make([]int, len(as.Fields))
		for _, combo := range tm.combos {
			for i, f := range as.Fields {
				alts[i] = tm.alt(combo, f)
			}
			tm.variants[name] = append(tm.variants[name], as.VariantFor(alts))
		}
	}
	return tm
}

// alt is the alternative combo selects for malleable field f; a field
// outside the table's expansion stays at alternative 0.
func (tm *tableManager) alt(combo []int, f string) int {
	if i := slices.Index(tm.fields, f); i >= 0 {
		return combo[i]
	}
	return 0
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

// expandFields returns the malleable fields involved in this table's
// expansion, ordered by selector column for determinism.
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
func (tm *tableManager) allCombos() [][]int {
	fields := tm.fields
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
// combination ci, and one vv version, with its keys in gen (nil: fresh).
func (tm *tableManager) concreteEntry(gen []rmt.KeySpec, spec *UserEntry, ci int, version uint64) (rmt.Entry, error) {
	if len(spec.Keys) != len(tm.info.Keys) {
		return rmt.Entry{}, fmt.Errorf("table %s: entry has %d user keys, want %d", tm.info.Table, len(spec.Keys), len(tm.info.Keys))
	}
	combo := tm.combos[ci]
	if gen == nil {
		gen = make([]rmt.KeySpec, tm.info.GenKeyCount)
	}
	for i := range gen {
		gen[i] = rmt.WildcardKey()
	}
	for ui, uk := range tm.info.Keys {
		// Fig. 6: the active alternative's column carries the user key
		// (ternary full-mask for user-exact); the others stay wildcard.
		gen[tm.info.ColOffset[ui]+tm.alt(combo, uk.MblField)] = spec.Keys[ui]
	}
	for i, f := range tm.fields {
		gen[tm.info.SelectorCol[f]] = rmt.ExactKey(uint64(combo[i]))
	}
	if tm.info.VVCol >= 0 {
		gen[tm.info.VVCol] = rmt.ExactKey(version)
	}
	return rmt.Entry{Keys: gen, Priority: spec.Priority, Action: tm.variant(spec.Action, ci), Data: spec.Data}, nil
}

// variant is the generated action combination ci runs for a user action.
func (tm *tableManager) variant(action string, ci int) string {
	if vs := tm.variants[action]; vs != nil {
		return vs[ci]
	}
	return action
}

// versioned reports whether the table carries the vv column.
func (tm *tableManager) versioned() bool { return tm.info.VVCol >= 0 }

// ---- Resumable concrete-entry operations ----
//
// All three maintain the invariant that ue.concrete[version] holds the
// handles of a prefix of tm.combos, so re-running an operation after a
// mid-way transient failure resumes instead of duplicating work: that
// is what lets a failed prepare be retried, undone, or queued as a
// repair without tracking per-combo state externally.

// install extends version's concrete entries until every combo is
// installed, using the entry's current spec.
func (tm *tableManager) install(p *sim.Proc, ue *userEntry, version uint64) error {
	for len(ue.concrete[version]) < len(tm.combos) {
		e, err := tm.concreteEntry(tm.keyScratch, &ue.spec, len(ue.concrete[version]), version)
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

// applyAll modifies every concrete entry of version to action and data.
// Modifying an entry to data it already carries is harmless, so
// re-running after a partial failure is safe without progress tracking.
func (tm *tableManager) applyAll(p *sim.Proc, ue *userEntry, version uint64, action string, data []uint64) error {
	for ci, rh := range ue.concrete[version] {
		if err := tm.agent.retry.ModifyEntry(p, tm.info.Table, rh, tm.variant(action, ci), data); err != nil {
			return err
		}
	}
	return nil
}

// addEntry prepares a new user entry: concrete entries are installed
// for the shadow version (vv^1) immediately; installation for the
// primary version is the op's mirror (see Agent.perform for when that
// runs). For unversioned tables the entries install directly.
func (tm *tableManager) addEntry(p *sim.Proc, spec UserEntry) (UserHandle, error) {
	if _, ok := tm.agent.plan.Prog.Actions[spec.Action]; !ok {
		if _, specialized := tm.info.ActionSpec[spec.Action]; !specialized {
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
	s := tm.agent.stage(journal.OpAdd, tm, h, ue)
	s.setNew(spec.Action, spec.Data)
	err := tm.agent.perform(p, s)
	if !s.prepared {
		return 0, err
	}
	return h, err
}

// modifyEntry rebinds a user entry's action/data via three-phase update.
func (tm *tableManager) modifyEntry(p *sim.Proc, h UserHandle, action string, data []uint64) error {
	ue, ok := tm.entries[h]
	if !ok {
		return fmt.Errorf("table %s: no user entry %d: %w", tm.info.Table, h, rmt.ErrUnknownEntry)
	}
	if !tm.versioned() {
		// Packet-visible as it lands: on failure re-apply the old spec so
		// the copy is not left half-updated.
		if err := tm.applyAll(p, ue, 0, action, data); err != nil {
			_ = tm.applyAll(p, ue, 0, ue.spec.Action, ue.spec.Data)
			return err
		}
		ue.setSpec(action, data)
		return nil
	}
	s := tm.agent.stage(journal.OpModify, tm, h, ue)
	s.oldAction, s.oldData = ue.spec.Action, append(s.oldData[:0], ue.spec.Data...)
	s.setNew(action, data)
	return tm.agent.perform(p, s)
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
	return tm.agent.perform(p, tm.agent.stage(journal.OpDelete, tm, h, ue))
}

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
