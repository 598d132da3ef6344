package rmt

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/p4"
)

// EntryHandle identifies an installed table entry for later modify or
// delete operations, mirroring the entry handles of switch driver APIs.
type EntryHandle uint64

// KeySpec is the match specification of one key column of an entry. The
// interpretation depends on the column's MatchKind:
//
//   - exact:   packet value == Value
//   - ternary: packet value & Mask == Value & Mask
//   - lpm:     ternary with a contiguous prefix Mask (see LPMKey)
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

// LPMKey returns a KeySpec matching the top prefixLen bits of v within a
// width-bit field.
func LPMKey(v uint64, prefixLen, width int) KeySpec {
	if prefixLen <= 0 {
		return KeySpec{}
	}
	if prefixLen > width {
		prefixLen = width
	}
	mask := (^uint64(0) << uint(width-prefixLen)) & ((1 << uint(width)) - 1)
	if width == 64 {
		mask = ^uint64(0) << uint(64-prefixLen)
	}
	return KeySpec{Value: v & mask, Mask: mask}
}

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

// exactKeyWidth is the number of key columns an exactKey holds inline.
// Wider keys fall back to a heap-encoded string (none of the paper's
// programs get near this: the widest Mantis table has 3 columns).
const exactKeyWidth = 4

// exactKey is a comparable fixed-size map key for all-exact tables.
// Building one from a lookup's column values is allocation-free for up
// to exactKeyWidth columns, unlike the old []byte-to-string encoding
// which heap-allocated on every lookup.
type exactKey struct {
	vals [exactKeyWidth]uint64
	n    uint8
	// wide is the fallback encoding for tables with more than
	// exactKeyWidth key columns; empty otherwise.
	wide string
}

func makeExactKey(vals []uint64) exactKey {
	var k exactKey
	if len(vals) <= exactKeyWidth {
		k.n = uint8(len(vals))
		copy(k.vals[:], vals)
		return k
	}
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.BigEndian.PutUint64(buf[i*8:], v)
	}
	k.wide = string(buf)
	return k
}

// tableInstance is the runtime state of one match-action table.
type tableInstance struct {
	def      *p4.Table
	prog     *p4.Program
	allExact bool

	byHandle map[EntryHandle]*Entry
	// exactIdx indexes entries by encoded key for all-exact tables.
	exactIdx map[exactKey]*Entry
	// ordered holds entries in match-priority order for TCAM tables.
	ordered []*Entry

	// bucketCol, when >= 0, is an all-exact key column of a TCAM table.
	// Entries are then partitioned into buckets by that column's value:
	// a lookup only ever scans the one bucket whose key equals the
	// packet's column value, turning the O(entries) TCAM scan into
	// O(bucket). Each bucket keeps the same (priority desc, handle asc)
	// order as ordered, so match priority is preserved.
	bucketCol int
	buckets   map[uint64][]*Entry

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

func newTableInstance(prog *p4.Program, def *p4.Table) *tableInstance {
	ti := &tableInstance{
		def:        def,
		prog:       prog,
		allExact:   !def.HasTernary(),
		byHandle:   make(map[EntryHandle]*Entry),
		bucketCol:  -1,
		keyScratch: make([]uint64, len(def.Keys)),
	}
	if ti.allExact {
		ti.exactIdx = make(map[exactKey]*Entry)
	} else {
		for i, k := range def.Keys {
			if k.Kind == p4.MatchExact {
				ti.bucketCol = i
				ti.buckets = make(map[uint64][]*Entry)
				break
			}
		}
	}
	if def.DefaultAction != nil {
		da := *def.DefaultAction
		ti.defaultAction = &da
		ti.defaultData = da.Data
	}
	return ti
}

func (ti *tableInstance) encodeExact(keys []KeySpec) exactKey {
	var vals [exactKeyWidth]uint64
	if len(keys) <= exactKeyWidth {
		for i, k := range keys {
			vals[i] = k.Value
		}
		return exactKey{vals: vals, n: uint8(len(keys))}
	}
	wide := make([]uint64, len(keys))
	for i, k := range keys {
		wide[i] = k.Value
	}
	return makeExactKey(wide)
}

func (ti *tableInstance) validate(e *Entry) error {
	if len(e.Keys) != len(ti.def.Keys) {
		return fmt.Errorf("table %s: entry has %d key columns, want %d: %w", ti.def.Name, len(e.Keys), len(ti.def.Keys), ErrBadEntry)
	}
	// applyTable masks the packet value with StaticMask before lookup, so
	// an entry that cares about a bit outside the mask can never match.
	for i := range ti.def.Keys {
		k, spec := &ti.def.Keys[i], e.Keys[i]
		if k.StaticMask == 0 {
			continue
		}
		var care uint64
		switch k.Kind {
		case p4.MatchExact:
			care = spec.Value
		case p4.MatchTernary, p4.MatchLPM:
			care = spec.Value & spec.Mask
		}
		if care&^k.StaticMask != 0 {
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

// add installs an entry and returns its handle. For all-exact tables a
// duplicate key is rejected the way hardware drivers reject it.
func (ti *tableInstance) add(e Entry) (EntryHandle, error) {
	if err := ti.validate(&e); err != nil {
		return 0, err
	}
	if ti.def.Size > 0 && len(ti.byHandle) >= ti.def.Size {
		return 0, fmt.Errorf("table %s: full (%d entries): %w", ti.def.Name, ti.def.Size, ErrTableFull)
	}
	e.code = ti.codeOf[e.Action]
	// Own the Keys and Data storage: modify reuses Data capacity in
	// place, and callers staging entries in reusable buffers (the agent's
	// commit scratch) recycle both slices after the call returns —
	// neither must ever scribble over an installed entry.
	e.Keys = append(make([]KeySpec, 0, len(e.Keys)), e.Keys...)
	e.Data = append(make([]uint64, 0, len(e.Data)), e.Data...)
	if ti.allExact {
		key := ti.encodeExact(e.Keys)
		if _, dup := ti.exactIdx[key]; dup {
			return 0, fmt.Errorf("table %s: %w", ti.def.Name, ErrDuplicateEntry)
		}
		ti.nextHandle++
		e.Handle = ti.nextHandle
		stored := e
		ti.byHandle[e.Handle] = &stored
		ti.exactIdx[key] = &stored
		return e.Handle, nil
	}
	ti.nextHandle++
	e.Handle = ti.nextHandle
	stored := e
	ti.byHandle[e.Handle] = &stored
	ti.ordered = append(ti.ordered, &stored)
	ti.sortEntries()
	if ti.buckets != nil {
		bk := stored.Keys[ti.bucketCol].Value
		ti.buckets[bk] = insertByPriority(ti.buckets[bk], &stored)
	}
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

func (ti *tableInstance) sortEntries() {
	sort.SliceStable(ti.ordered, func(i, j int) bool {
		return entryLess(ti.ordered[i], ti.ordered[j])
	})
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
	if ti.allExact {
		delete(ti.exactIdx, ti.encodeExact(e.Keys))
		return nil
	}
	for i, x := range ti.ordered {
		if x.Handle == h {
			ti.ordered = append(ti.ordered[:i], ti.ordered[i+1:]...)
			break
		}
	}
	if ti.buckets != nil {
		bk := e.Keys[ti.bucketCol].Value
		bucket := ti.buckets[bk]
		for i, x := range bucket {
			if x.Handle == h {
				bucket = append(bucket[:i], bucket[i+1:]...)
				break
			}
		}
		if len(bucket) == 0 {
			delete(ti.buckets, bk)
		} else {
			ti.buckets[bk] = bucket
		}
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

// matches reports whether entry e matches the key column values.
func (ti *tableInstance) matches(e *Entry, vals []uint64) bool {
	for i := range ti.def.Keys {
		if !matchKey(ti.def.Keys[i].Kind, e.Keys[i], vals[i]) {
			return false
		}
	}
	return true
}

// lookup finds the matching entry for the given key column values, or
// nil on a miss (caller then applies the default action).
func (ti *tableInstance) lookup(vals []uint64) *Entry {
	if ti.allExact {
		if e, ok := ti.exactIdx[makeExactKey(vals)]; ok {
			ti.Hits++
			return e
		}
		ti.Misses++
		return nil
	}
	scan := ti.ordered
	if ti.buckets != nil {
		// Only the bucket whose exact column equals the packet value can
		// contain a match; other buckets' entries fail that column.
		scan = ti.buckets[vals[ti.bucketCol]]
	}
	for _, e := range scan {
		if ti.matches(e, vals) {
			ti.Hits++
			return e
		}
	}
	ti.Misses++
	return nil
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
