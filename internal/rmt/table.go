package rmt

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/p4"
	"repro/internal/packet"
)

// EntryHandle identifies an installed table entry for later modify or
// delete operations, mirroring the entry handles of switch driver APIs.
type EntryHandle uint64

// KeySpec is the match specification of one key column of an entry. The
// interpretation depends on the column's MatchKind:
//
//   - exact:   packet value == Value
//   - ternary: packet value & Mask == Value & Mask
//   - lpm:     ternary with a contiguous prefix Mask
//   - range:   Lo <= packet value <= Hi
type KeySpec struct {
	Value uint64
	Mask  uint64
	Lo    uint64
	Hi    uint64
}

// ExactKey returns a KeySpec matching exactly v.
func ExactKey(v uint64) KeySpec { return KeySpec{Value: v, Mask: ^uint64(0)} }

// TernaryKey returns a KeySpec matching v under mask. A zero mask is a
// wildcard.
func TernaryKey(v, mask uint64) KeySpec { return KeySpec{Value: v, Mask: mask} }

// WildcardKey matches any value.
func WildcardKey() KeySpec { return KeySpec{} }

// RangeKey returns a KeySpec matching values in [lo, hi].
func RangeKey(lo, hi uint64) KeySpec { return KeySpec{Lo: lo, Hi: hi} }

// Entry is an installed table entry.
type Entry struct {
	Handle   EntryHandle
	Keys     []KeySpec
	Priority int
	Action   string
	Data     []uint64

	// code caches the compiled action so the per-packet path skips the
	// program's Actions map and interprets no AST. Filled on add/modify.
	code *caction
}

// tableInstance is the runtime state of one match-action table.
type tableInstance struct {
	def  *p4.Table
	prog *p4.Program

	byHandle map[EntryHandle]*Entry

	// The match index (DESIGN.md §2b). exact lists the key columns whose
	// words key it, in column order: every column of an exact table, the
	// exact subset of a TCAM table, none of a pure-ternary or keyless one.
	// rest lists the other columns, which a lookup tests entry by entry.
	// slots is open-addressed and linearly probed; its length is a power
	// of two and at most half of it is populated (tuples counts those).
	exact  []int
	rest   []restCol
	slots  []matchSlot
	tuples int
	// tuple is the key buffer add and del probe the index with.
	tuple []uint64

	defaultAction *p4.ActionCall
	// defaultCode/defaultData cache the compiled default action for the
	// per-packet miss path.
	defaultCode *caction
	defaultData []uint64
	// ownedCall/ownedData back setDefault with table-owned storage: the
	// installed default must not alias the caller's ActionCall (agents
	// reuse one as scratch across iterations) nor the program
	// definition's declared data (aliased at init and shared between
	// switch instances).
	ownedCall p4.ActionCall
	ownedData []uint64

	// codeOf maps action names to their compiled bodies; set by the
	// owning Switch once all actions are compiled (nil when a
	// tableInstance is built standalone in tests).
	codeOf map[string]*caction

	nextHandle EntryHandle

	// keyScratch is the reusable lookup-key buffer for applyTable; the
	// simulator is single-threaded, so one buffer per table suffices.
	keyScratch []uint64

	// Hits and Misses count lookups for observability.
	Hits, Misses uint64
}

// restCol is a key column outside the match index's key.
type restCol struct {
	col  int
	kind p4.MatchKind
}

// matchSlot holds the entries whose exact columns carry one tuple of
// words, in match order (priority desc, handle asc). The tuple's hash
// and first word sit inline, so a probe reads no entry until both agree.
// A slot without entries is empty.
type matchSlot struct {
	hash    uint64
	word0   uint64
	entries []*Entry
}

func newTableInstance(prog *p4.Program, def *p4.Table) *tableInstance {
	ti := &tableInstance{
		def:        def,
		prog:       prog,
		byHandle:   make(map[EntryHandle]*Entry),
		slots:      make([]matchSlot, 1),
		tuple:      make([]uint64, len(def.Keys)),
		keyScratch: make([]uint64, len(def.Keys)),
	}
	for i, k := range def.Keys {
		if k.Kind == p4.MatchExact {
			ti.exact = append(ti.exact, i)
		} else {
			ti.rest = append(ti.rest, restCol{col: i, kind: k.Kind})
		}
	}
	if def.DefaultAction != nil {
		da := *def.DefaultAction
		ti.defaultAction = &da
		ti.defaultData = da.Data
	}
	return ti
}

func (ti *tableInstance) validate(e *Entry) error {
	if len(e.Keys) != len(ti.def.Keys) {
		return fmt.Errorf("table %s: entry has %d key columns, want %d: %w", ti.def.Name, len(e.Keys), len(ti.def.Keys), ErrBadEntry)
	}
	// A packet value is masked to its field's width, and applyTable masks
	// it with StaticMask before lookup, so an entry that cares about a bit
	// outside either can never match.
	for i := range ti.def.Keys {
		k, spec := &ti.def.Keys[i], e.Keys[i]
		var care uint64
		switch k.Kind {
		case p4.MatchExact:
			care = spec.Value
		case p4.MatchTernary, p4.MatchLPM:
			care = spec.Value & spec.Mask
		case p4.MatchRange:
			care = spec.Lo
		}
		if width := ti.prog.Schema.Width(k.Field); care&^packet.Mask(width) != 0 {
			return fmt.Errorf("table %s: key %s cares about bits %#x outside the field's %d-bit width: %w",
				ti.def.Name, k.FieldName, care, width, ErrBadEntry)
		}
		// A range's lower bound is not a set of cared-about bits under a
		// mask: a masked value can still reach it.
		if k.StaticMask != 0 && k.Kind != p4.MatchRange && care&^k.StaticMask != 0 {
			return fmt.Errorf("table %s: key %s value %#x has bits outside the column's static mask %#x: %w",
				ti.def.Name, k.FieldName, spec.Value, k.StaticMask, ErrBadEntry)
		}
	}
	allowed := false
	for _, an := range ti.def.ActionNames {
		if an == e.Action {
			allowed = true
			break
		}
	}
	if !allowed {
		return fmt.Errorf("table %s: action %q not allowed: %w", ti.def.Name, e.Action, ErrUnknownAction)
	}
	a := ti.prog.Actions[e.Action]
	if len(e.Data) != len(a.Params) {
		return fmt.Errorf("table %s: action %s takes %d args, got %d: %w", ti.def.Name, e.Action, len(a.Params), len(e.Data), ErrBadEntry)
	}
	return nil
}

// add installs an entry and returns its handle. A table with no
// non-exact column rejects a duplicate key the way hardware drivers
// reject it; a TCAM table keeps every entry of a tuple, in match order.
func (ti *tableInstance) add(e Entry) (EntryHandle, error) {
	if err := ti.validate(&e); err != nil {
		return 0, err
	}
	if ti.def.Size > 0 && len(ti.byHandle) >= ti.def.Size {
		return 0, fmt.Errorf("table %s: full (%d entries): %w", ti.def.Name, ti.def.Size, ErrTableFull)
	}
	vals := ti.tupleOf(e.Keys)
	i, h := ti.find(vals)
	if len(ti.slots[i].entries) > 0 && len(ti.rest) == 0 {
		return 0, fmt.Errorf("table %s: %w", ti.def.Name, ErrDuplicateEntry)
	}
	e.code = ti.codeOf[e.Action]
	// Own the Keys and Data storage: modify reuses Data capacity in
	// place, and callers staging entries in reusable buffers (the agent's
	// commit scratch) recycle both slices after the call returns —
	// neither must ever scribble over an installed entry.
	e.Keys = append(make([]KeySpec, 0, len(e.Keys)), e.Keys...)
	e.Data = append(make([]uint64, 0, len(e.Data)), e.Data...)
	ti.nextHandle++
	e.Handle = ti.nextHandle
	stored := e
	ti.byHandle[e.Handle] = &stored
	if len(ti.slots[i].entries) == 0 {
		if 2*(ti.tuples+1) > len(ti.slots) {
			ti.grow()
			i, _ = ti.find(vals)
		}
		ti.slots[i].hash, ti.slots[i].word0 = h, ti.word0(vals)
		ti.tuples++
	}
	ti.slots[i].entries = insertByPriority(ti.slots[i].entries, &stored)
	return e.Handle, nil
}

func entryLess(a, b *Entry) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.Handle < b.Handle
}

// insertByPriority inserts e into a (priority desc, handle asc) sorted
// bucket, keeping the order lookup depends on.
func insertByPriority(bucket []*Entry, e *Entry) []*Entry {
	pos := sort.Search(len(bucket), func(i int) bool { return entryLess(e, bucket[i]) })
	bucket = append(bucket, nil)
	copy(bucket[pos+1:], bucket[pos:])
	bucket[pos] = e
	return bucket
}

// modify rebinds an entry's action and data without touching its keys,
// the common fast path of Mantis reactions. The entry's Data storage is
// reused when capacity allows, so steady-state reactions (same action,
// new arguments) do not allocate.
func (ti *tableInstance) modify(h EntryHandle, action string, data []uint64) error {
	e, ok := ti.byHandle[h]
	if !ok {
		return fmt.Errorf("table %s: no entry with handle %d: %w", ti.def.Name, h, ErrUnknownEntry)
	}
	probe := Entry{Keys: e.Keys, Action: action, Data: data}
	if err := ti.validate(&probe); err != nil {
		return err
	}
	e.Action = action
	e.code = ti.codeOf[action]
	e.Data = append(e.Data[:0], data...)
	return nil
}

func (ti *tableInstance) del(h EntryHandle) error {
	e, ok := ti.byHandle[h]
	if !ok {
		return fmt.Errorf("table %s: no entry with handle %d: %w", ti.def.Name, h, ErrUnknownEntry)
	}
	delete(ti.byHandle, h)
	i, _ := ti.find(ti.tupleOf(e.Keys))
	s := &ti.slots[i]
	k := slices.Index(s.entries, e)
	s.entries = slices.Delete(s.entries, k, k+1)
	if len(s.entries) == 0 {
		ti.vacate(i)
		ti.tuples--
	}
	return nil
}

func (ti *tableInstance) setDefault(call *p4.ActionCall) error {
	if call != nil {
		a, ok := ti.prog.Actions[call.Action]
		if !ok {
			return fmt.Errorf("table %s: unknown default action %q: %w", ti.def.Name, call.Action, ErrUnknownAction)
		}
		if len(call.Data) != len(a.Params) {
			return fmt.Errorf("table %s: default action %s takes %d args, got %d: %w",
				ti.def.Name, call.Action, len(a.Params), len(call.Data), ErrBadEntry)
		}
		ti.ownedData = append(ti.ownedData[:0], call.Data...)
		ti.ownedCall = p4.ActionCall{Action: call.Action, Data: ti.ownedData}
		ti.defaultAction = &ti.ownedCall
		ti.defaultCode = ti.codeOf[call.Action]
		ti.defaultData = ti.ownedData
		return nil
	}
	ti.defaultAction = nil
	ti.defaultCode = nil
	ti.defaultData = nil
	return nil
}

func matchKey(kind p4.MatchKind, spec KeySpec, v uint64) bool {
	switch kind {
	case p4.MatchExact:
		return v == spec.Value
	case p4.MatchTernary, p4.MatchLPM:
		return v&spec.Mask == spec.Value&spec.Mask
	case p4.MatchRange:
		return v >= spec.Lo && v <= spec.Hi
	}
	return false
}

// matchesRest reports whether e matches vals on the columns outside the
// index's key; the slot a lookup found already agrees on the others.
func (ti *tableInstance) matchesRest(e *Entry, vals []uint64) bool {
	for _, r := range ti.rest {
		if !matchKey(r.kind, e.Keys[r.col], vals[r.col]) {
			return false
		}
	}
	return true
}

// lookup finds the matching entry for the given key column values, or
// nil on a miss (caller then applies the default action): the first
// entry of the values' tuple that matches on the other columns. An
// exact table has no other columns, so that is the tuple's only entry.
func (ti *tableInstance) lookup(vals []uint64) *Entry {
	i, _ := ti.find(vals)
	for _, e := range ti.slots[i].entries {
		if ti.matchesRest(e, vals) {
			ti.Hits++
			return e
		}
	}
	ti.Misses++
	return nil
}

// ---- The match index ----

// mixWord folds one exact-column word into a tuple's hash with the
// splitmix64 finalizer. It is seedless, so the index is laid out alike
// in every run.
func mixWord(h, w uint64) uint64 {
	x := h + w + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// word0 is the first exact word of vals, which slots keep inline (0 for
// a table without an exact column).
func (ti *tableInstance) word0(vals []uint64) uint64 {
	if len(ti.exact) == 0 {
		return 0
	}
	return vals[ti.exact[0]]
}

// find probes the index for the tuple of vals' exact columns. It returns
// the slot holding that tuple, or else the empty slot that ends its
// probe, and the tuple's hash.
func (ti *tableInstance) find(vals []uint64) (int, uint64) {
	var h uint64
	for _, c := range ti.exact {
		h = mixWord(h, vals[c])
	}
	w0 := ti.word0(vals)
	mask := len(ti.slots) - 1
	for i := int(h & uint64(mask)); ; i = (i + 1) & mask {
		s := &ti.slots[i]
		if len(s.entries) == 0 || s.hash == h && s.word0 == w0 && ti.sameTuple(s.entries[0], vals) {
			return i, h
		}
	}
}

// sameTuple reports whether e's exact columns past the first, which the
// slot compared inline, hold vals' words.
func (ti *tableInstance) sameTuple(e *Entry, vals []uint64) bool {
	for k := 1; k < len(ti.exact); k++ {
		if c := ti.exact[k]; e.Keys[c].Value != vals[c] {
			return false
		}
	}
	return true
}

// tupleOf copies keys' values into the table's own buffer, so add and
// del probe with the words a lookup of the same key would.
func (ti *tableInstance) tupleOf(keys []KeySpec) []uint64 {
	for i, k := range keys {
		ti.tuple[i] = k.Value
	}
	return ti.tuple
}

// grow doubles the slot array, re-placing each tuple by its stored hash.
func (ti *tableInstance) grow() {
	old := ti.slots
	ti.slots = make([]matchSlot, 2*len(old))
	mask := len(ti.slots) - 1
	for _, s := range old {
		if len(s.entries) == 0 {
			continue
		}
		i := int(s.hash & uint64(mask))
		for len(ti.slots[i].entries) > 0 {
			i = (i + 1) & mask
		}
		ti.slots[i] = s
	}
}

// vacate empties slot i by backward shift: each later slot of its probe
// cluster whose home is not between the hole and itself moves into the
// hole, which moves on to it. Every tuple stays reachable from its home
// slot, with no tombstones for a probe to skip.
func (ti *tableInstance) vacate(i int) {
	mask := len(ti.slots) - 1
	for j := (i + 1) & mask; len(ti.slots[j].entries) > 0; j = (j + 1) & mask {
		home := int(ti.slots[j].hash & uint64(mask))
		if (j-home)&mask >= (j-i)&mask {
			ti.slots[i] = ti.slots[j]
			i = j
		}
	}
	ti.slots[i] = matchSlot{}
}

// entries returns a snapshot of all installed entries sorted by handle.
// Data slices are deep-copied: modify reuses an entry's Data storage in
// place, so snapshots must not alias it.
func (ti *tableInstance) entries() []Entry {
	out := make([]Entry, 0, len(ti.byHandle))
	for _, e := range ti.byHandle {
		c := *e
		c.Data = append([]uint64(nil), e.Data...)
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Handle < out[j].Handle })
	return out
}
