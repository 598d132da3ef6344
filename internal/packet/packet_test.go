package packet

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestDefineAndLookup(t *testing.T) {
	s := NewSchema()
	a := s.Define("ipv4.srcAddr", 32)
	b := s.Define("ipv4.dstAddr", 32)
	if a == b {
		t.Fatal("distinct fields share an ID")
	}
	if id, ok := s.Lookup("ipv4.srcAddr"); !ok || id != a {
		t.Fatal("Lookup failed")
	}
	if _, ok := s.Lookup("nope"); ok {
		t.Fatal("Lookup found undefined field")
	}
	if s.NumFields() != 2 {
		t.Fatalf("NumFields = %d", s.NumFields())
	}
}

func TestDefineIdempotent(t *testing.T) {
	s := NewSchema()
	a := s.Define("x", 16)
	if s.Define("x", 16) != a {
		t.Fatal("re-Define returned new ID")
	}
}

func TestDefineWidthConflictPanics(t *testing.T) {
	s := NewSchema()
	s.Define("x", 16)
	defer func() {
		if recover() == nil {
			t.Fatal("width conflict did not panic")
		}
	}()
	s.Define("x", 32)
}

func TestDefineBadWidthPanics(t *testing.T) {
	for _, w := range []int{0, -1, 65} {
		func() {
			defer func() { recover() }()
			NewSchema().Define("x", w)
			t.Fatalf("width %d did not panic", w)
		}()
	}
}

func TestSetMasksToWidth(t *testing.T) {
	s := NewSchema()
	f := s.Define("h.small", 4)
	p := s.New()
	p.Set(f, 0xFF)
	if got := p.Get(f); got != 0xF {
		t.Fatalf("Get = %#x, want 0xF", got)
	}
}

func TestSet64BitField(t *testing.T) {
	s := NewSchema()
	f := s.Define("h.big", 64)
	p := s.New()
	p.Set(f, ^uint64(0))
	if p.Get(f) != ^uint64(0) {
		t.Fatal("64-bit value truncated")
	}
}

func TestMask(t *testing.T) {
	cases := map[int]uint64{1: 1, 8: 0xFF, 16: 0xFFFF, 32: 0xFFFFFFFF, 64: ^uint64(0)}
	for w, want := range cases {
		if Mask(w) != want {
			t.Errorf("Mask(%d) = %#x, want %#x", w, Mask(w), want)
		}
	}
}

func TestGetSetByName(t *testing.T) {
	s := NewSchema()
	s.Define("eth.type", 16)
	p := s.New()
	p.SetName("eth.type", 0x0800)
	if p.GetName("eth.type") != 0x0800 {
		t.Fatal("name round trip failed")
	}
}

func TestMustIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustID on unknown field did not panic")
		}
	}()
	NewSchema().MustID("ghost")
}

func TestClone(t *testing.T) {
	s := NewSchema()
	f := s.Define("a", 32)
	p := s.New()
	p.Set(f, 7)
	p.Size = 100
	q := s.New()
	p.CloneInto(q)
	if q.Get(f) != 7 || q.Size != 100 {
		t.Fatal("CloneInto lost state")
	}
	q.Set(f, 9)
	if p.Get(f) != 7 {
		t.Fatal("CloneInto aliases field storage")
	}
}

func TestNewPacketDefaults(t *testing.T) {
	s := NewSchema()
	p := s.New()
	if p.EgressPort != -1 {
		t.Fatalf("EgressPort = %d, want -1", p.EgressPort)
	}
	if p.Dropped {
		t.Fatal("new packet is dropped")
	}
}

func TestNamesSorted(t *testing.T) {
	s := NewSchema()
	s.Define("z", 8)
	s.Define("a", 8)
	names := s.Names()
	if names[0] != "a" || names[1] != "z" {
		t.Fatalf("Names = %v", names)
	}
}

// Property: Set then Get is identity modulo the width mask, for any
// width in [1,64].
func TestPropertySetGetMasked(t *testing.T) {
	f := func(v uint64, w8 uint8) bool {
		w := int(w8%64) + 1
		s := NewSchema()
		id := s.Define("f", w)
		p := s.New()
		p.Set(id, v)
		return p.Get(id) == v&Mask(w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPacketSizeClass pins Packet at 96 B. The next size class is 112 B,
// and moving there costs every freshly allocated packet 16 B: the raw
// data-plane benchmark (dataplane_trace, one packet per op) would go
// from 240 to 256 bytes_per_op. Ownership state must fit the padding.
func TestPacketSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 96 {
		t.Fatalf("unsafe.Sizeof(Packet{}) = %d, want 96", got)
	}
}

// TestPoolOwnership: Get hands out a live packet, Put takes it back
// exactly once, and misuse panics instead of corrupting the freelist.
func TestPoolOwnership(t *testing.T) {
	s := NewSchema()
	f := s.Define("a", 8)
	pl := NewPool(s)
	p := pl.Get()
	p.Set(f, 7)
	p.Dropped = true
	pl.Put(p)
	if !p.Released() || p.Get(f) != 0 || p.Dropped || p.EgressPort != -1 {
		t.Fatalf("Put did not reset and release: %+v", p)
	}
	if made, idle := pl.Counts(); made != 1 || idle != 1 {
		t.Fatalf("Counts = %d made, %d idle; want 1, 1", made, idle)
	}
	mustPanic(t, "second Put", func() { pl.Put(p) })
	mustPanic(t, "Put of another schema", func() { pl.Put(NewSchema().New()) })
	if q := pl.Get(); q != p || q.Released() {
		t.Fatalf("Get did not reuse and revive the released packet")
	}
	if made, idle := pl.Counts(); made != 1 || idle != 0 {
		t.Fatalf("Counts = %d made, %d idle; want 1, 0", made, idle)
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// sink makes the measured packets escape, as a packet handed to a
// switch or a link does.
var sink *Packet

// TestNewIsOneAllocation: a fresh packet's header and field vector are
// one object, whatever the schema's width.
func TestNewIsOneAllocation(t *testing.T) {
	for _, n := range []int{0, 1, 18, 100} {
		s := schemaOf(n)
		s.New() // fixes the layout outside the measured runs
		if got := testing.AllocsPerRun(100, func() { sink = s.New() }); got != 1 {
			t.Errorf("%d fields: New made %v allocations, want 1", n, got)
		}
	}
}

// TestFieldsDoNotOverlapHeader writes all-ones to every field of one
// shared object and checks the header next to the vector is untouched.
func TestFieldsDoNotOverlapHeader(t *testing.T) {
	for _, n := range []int{1, 18, 100} {
		s := schemaOf(n)
		p := s.New()
		p.Size, p.EgressPort, p.Payload = 1500, 3, "ctx"
		for i := 0; i < n; i++ {
			p.Set(FieldID(i), ^uint64(0))
		}
		if p.Size != 1500 || p.EgressPort != 3 || p.Payload != "ctx" || p.Released() {
			t.Fatalf("%d fields: header changed by field writes: %+v", n, p)
		}
		pl := NewPool(s)
		q := pl.Get()
		p.CloneInto(q)
		for i := 0; i < n; i++ {
			if q.Get(FieldID(i)) != ^uint64(0) {
				t.Fatalf("%d fields: CloneInto lost field %d", n, i)
			}
		}
		pl.Put(q)
		if r := pl.Get(); r != q || r.Get(FieldID(n-1)) != 0 || r.Size != 0 || r.EgressPort != -1 {
			t.Fatalf("%d fields: pool round trip did not reset the packet: %+v", n, r)
		}
		if p.Get(0) != ^uint64(0) || p.Size != 1500 {
			t.Fatalf("%d fields: pool round trip touched the source packet", n)
		}
	}
}

// TestDefineAfterNewPanics: the first New fixes the layout, so a new
// field after it is refused; re-defining an existing one is a lookup.
func TestDefineAfterNewPanics(t *testing.T) {
	s := NewSchema()
	a := s.Define("a", 8)
	s.New()
	if s.Define("a", 8) != a {
		t.Fatal("re-Define after New returned a new ID")
	}
	mustPanic(t, "Define of a new field after New", func() { s.Define("b", 8) })
}

// TestConcurrentNew: the layout is built once even when the first New
// calls race; run under -race.
func TestConcurrentNew(t *testing.T) {
	s := schemaOf(18)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p := s.New()
				p.Set(FieldID(i%18), uint64(i))
				if len(p.fields) != 18 {
					t.Error("packet has the wrong number of fields")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func schemaOf(n int) *Schema {
	s := NewSchema()
	for i := 0; i < n; i++ {
		s.Define(fmt.Sprintf("f%d", i), 64)
	}
	return s
}
