package rmt

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/p4"
	"repro/internal/packet"
)

// ---- The match index against a reference matcher ----

// refMatcher is what a lookup means, with no index: scan every live
// entry, run matchKey on every column, keep the highest priority and
// then the lowest handle.
type refMatcher struct {
	kinds   []p4.MatchKind
	entries []Entry
}

func (r *refMatcher) lookup(vals []uint64) *Entry {
	var best *Entry
	for i := range r.entries {
		e := &r.entries[i]
		if !r.matches(e, vals) {
			continue
		}
		if best == nil || e.Priority > best.Priority || e.Priority == best.Priority && e.Handle < best.Handle {
			best = e
		}
	}
	return best
}

func (r *refMatcher) matches(e *Entry, vals []uint64) bool {
	for c, k := range r.kinds {
		if !matchKey(k, e.Keys[c], vals[c]) {
			return false
		}
	}
	return true
}

// sameExact reports whether a and b agree on every exact column.
func (r *refMatcher) sameExact(a, b []KeySpec) bool {
	for c, k := range r.kinds {
		if k == p4.MatchExact && a[c].Value != b[c].Value {
			return false
		}
	}
	return true
}

// source is where a script draws its choices: a seeded generator in the
// test, the fuzzer's input in the fuzz target.
type source interface {
	Intn(n int) int
	Uint64() uint64
}

// byteSource reads choices from a fuzz input; it reads zeros once the
// input is spent.
type byteSource struct{ b []byte }

func (s *byteSource) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *byteSource) Intn(n int) int { return int(s.next()) % n }

func (s *byteSource) Uint64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(s.next())
	}
	return v
}

// column is one random key column: its kind, width, static mask, and a
// small domain of values that entries and probes share, so tuples repeat
// and probes hit.
type column struct {
	kind  p4.MatchKind
	width int
	mask  uint64 // StaticMask; 0 for none
	dom   [8]uint64
}

// care is what a packet value on c can hold after applyTable's masking.
func (c *column) care() uint64 {
	m := packet.Mask(c.width)
	if c.mask != 0 {
		m &= c.mask
	}
	return m
}

func (c *column) value(src source) uint64 {
	if src.Intn(4) == 0 {
		return src.Uint64() & c.care()
	}
	return c.dom[src.Intn(len(c.dom))]
}

func (c *column) key(src source) KeySpec {
	switch c.kind {
	case p4.MatchExact:
		return ExactKey(c.value(src))
	case p4.MatchTernary:
		m := [...]uint64{0, packet.Mask(c.width), 0xF, src.Uint64()}[src.Intn(4)] & packet.Mask(c.width)
		return TernaryKey(c.value(src)&m, m)
	case p4.MatchLPM:
		return LPMKey(c.value(src), src.Intn(c.width+1), c.width)
	default:
		lo := c.value(src)
		return RangeKey(lo, lo+uint64(src.Intn(16)))
	}
}

// probeFor returns a value on c that spec matches.
func (c *column) probeFor(spec KeySpec, src source) uint64 {
	switch c.kind {
	case p4.MatchExact:
		return spec.Value
	case p4.MatchTernary, p4.MatchLPM:
		return (spec.Value&spec.Mask | src.Uint64()&^spec.Mask) & c.care()
	default:
		span := spec.Hi - spec.Lo + 1
		if span == 0 {
			return src.Uint64() & c.care()
		}
		return (spec.Lo + src.Uint64()%span) & c.care()
	}
}

// runIndexScript builds a random table of 0–6 columns and applies up to
// steps random adds, modifies and deletes, checking after each one that
// lookups agree with the reference matcher and that the index is sound.
func runIndexScript(t *testing.T, src source, steps int, more func() bool) {
	t.Helper()
	kinds := [...]p4.MatchKind{p4.MatchExact, p4.MatchTernary, p4.MatchLPM, p4.MatchRange}
	prog := p4.NewProgram("index")
	prog.DefineStandardMetadata()
	for _, a := range []string{"a", "b"} {
		prog.AddAction(&p4.Action{Name: a, Params: []p4.Param{{Name: "id", Width: 32}}, Body: []p4.Primitive{p4.NoOp{}}})
	}
	cols := make([]column, src.Intn(7))
	def := &p4.Table{Name: "t", ActionNames: []string{"a", "b"}}
	ref := &refMatcher{}
	for i := range cols {
		c := &cols[i]
		c.kind = kinds[src.Intn(len(kinds))]
		c.width = [...]int{8, 16, 32, 64}[src.Intn(4)]
		if c.kind == p4.MatchExact && src.Intn(3) == 0 {
			if c.mask = src.Uint64() & packet.Mask(c.width); c.mask == 0 {
				c.mask = 1
			}
		}
		for j := range c.dom {
			c.dom[j] = src.Uint64() & c.care()
		}
		name := fmt.Sprintf("h.k%d", i)
		f := prog.Schema.Define(name, c.width)
		def.Keys = append(def.Keys, p4.MatchKey{FieldName: name, Field: f, Width: c.width, Kind: c.kind, StaticMask: c.mask})
		ref.kinds = append(ref.kinds, c.kind)
	}
	prog.AddTable(def)
	ti := newTableInstance(prog, prog.Tables["t"])
	desc := fmt.Sprintf("table %v", def.Keys)

	probe := func(vals []uint64) {
		t.Helper()
		got, want := ti.lookup(vals), ref.lookup(vals)
		switch {
		case (got == nil) != (want == nil):
			t.Fatalf("%s: probe %#x: index %+v, reference %+v", desc, vals, got, want)
		case got != nil && (got.Handle != want.Handle || got.Action != want.Action || got.Data[0] != want.Data[0]):
			t.Fatalf("%s: probe %#x: index entry %d (%s %v), reference entry %d (%s %v)",
				desc, vals, got.Handle, got.Action, got.Data, want.Handle, want.Action, want.Data)
		}
	}
	vals := make([]uint64, len(cols))
	var data uint64
	for step := 0; step < steps && more(); step++ {
		switch op := src.Intn(10); {
		case op < 4 || len(ref.entries) == 0: // add
			e := Entry{Priority: src.Intn(4), Action: "a", Data: []uint64{data}}
			data++
			for i := range cols {
				e.Keys = append(e.Keys, cols[i].key(src))
			}
			dup := false
			if len(ti.rest) == 0 {
				for i := range ref.entries {
					dup = dup || ref.sameExact(ref.entries[i].Keys, e.Keys)
				}
			}
			h, err := ti.add(e)
			if dup {
				if !errors.Is(err, ErrDuplicateEntry) {
					t.Fatalf("%s: duplicate %+v: err = %v, want ErrDuplicateEntry", desc, e.Keys, err)
				}
				break
			}
			if err != nil {
				t.Fatalf("%s: add %+v: %v", desc, e.Keys, err)
			}
			e.Handle = h
			ref.entries = append(ref.entries, e)
		case op < 6: // modify
			e := &ref.entries[src.Intn(len(ref.entries))]
			e.Action = [...]string{"a", "b"}[src.Intn(2)]
			e.Data = []uint64{data}
			data++
			if err := ti.modify(e.Handle, e.Action, e.Data); err != nil {
				t.Fatalf("%s: modify %d: %v", desc, e.Handle, err)
			}
		default: // delete
			i := src.Intn(len(ref.entries))
			if err := ti.del(ref.entries[i].Handle); err != nil {
				t.Fatalf("%s: delete %d: %v", desc, ref.entries[i].Handle, err)
			}
			ref.entries = append(ref.entries[:i], ref.entries[i+1:]...)
		}
		checkIndex(t, desc, ti, ref)
		for n := 0; n < 4; n++ {
			if len(ref.entries) > 0 && n%2 == 0 {
				e := &ref.entries[src.Intn(len(ref.entries))]
				for i := range cols {
					vals[i] = cols[i].probeFor(e.Keys[i], src)
				}
			} else {
				for i := range cols {
					vals[i] = cols[i].value(src)
				}
			}
			probe(vals)
		}
	}
	// Every entry-derived probe of what is left, then delete everything:
	// the index must end empty.
	for i := range ref.entries {
		for c := range cols {
			vals[c] = cols[c].probeFor(ref.entries[i].Keys[c], src)
		}
		probe(vals)
	}
	for len(ref.entries) > 0 {
		if err := ti.del(ref.entries[0].Handle); err != nil {
			t.Fatalf("%s: delete %d: %v", desc, ref.entries[0].Handle, err)
		}
		ref.entries = ref.entries[1:]
		checkIndex(t, desc, ti, ref)
	}
}

// checkIndex checks the index's own invariants against the reference's
// entries: one populated slot per distinct exact tuple (an emptied
// bucket is pruned), each reachable from its home slot, each in match
// order, and the slot array at most half full.
func checkIndex(t *testing.T, desc string, ti *tableInstance, ref *refMatcher) {
	t.Helper()
	tuples := map[string]bool{}
	for i := range ref.entries {
		var key []uint64
		for _, c := range ti.exact {
			key = append(key, ref.entries[i].Keys[c].Value)
		}
		tuples[fmt.Sprint(key)] = true
	}
	populated := 0
	for i, s := range ti.slots {
		if len(s.entries) == 0 {
			continue
		}
		populated++
		if j, _ := ti.find(ti.tupleOf(s.entries[0].Keys)); j != i {
			t.Fatalf("%s: the bucket in slot %d is not reachable: its probe ends at %d", desc, i, j)
		}
		for k := 1; k < len(s.entries); k++ {
			if !entryLess(s.entries[k-1], s.entries[k]) {
				t.Fatalf("%s: slot %d out of match order at %d", desc, i, k)
			}
		}
	}
	switch {
	case len(ti.byHandle) != len(ref.entries):
		t.Fatalf("%s: %d entries, reference has %d", desc, len(ti.byHandle), len(ref.entries))
	case populated != len(tuples) || ti.tuples != len(tuples):
		t.Fatalf("%s: %d populated slots, tuples = %d, want %d", desc, populated, ti.tuples, len(tuples))
	case 2*ti.tuples > len(ti.slots):
		t.Fatalf("%s: %d tuples in %d slots", desc, ti.tuples, len(ti.slots))
	}
}

// TestMatchIndexMatchesReference: on random tables — exact, ternary, LPM
// and range columns, static masks on exact ones, equal priorities and
// repeated exact tuples — every lookup through the index returns what a
// full scan returns, under interleaved adds, modifies and deletes.
func TestMatchIndexMatchesReference(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 50
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		runIndexScript(t, rng, 200, func() bool { return true })
	}
}

// FuzzMatchIndex runs the same script with every choice taken from the
// fuzzer's input.
func FuzzMatchIndex(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		b := make([]byte, 512)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		src := &byteSource{b: data}
		runIndexScript(t, src, len(data), func() bool { return len(src.b) > 0 })
	})
}
