package rmt

import (
	"errors"
	"testing"

	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/sim"
)

// primitivesProgram has one action per primitive of the sealed set, all
// in one exact table keyed on h.sel, so a packet picks the primitive it
// exercises.
func primitivesProgram() *p4.Program {
	p := p4.NewProgram("primitives")
	p.DefineStandardMetadata()
	sel := p.Schema.Define("h.sel", 8)
	x := p.Schema.Define("h.x", 32)
	out := p.Schema.Define("m.out", 64)
	p.AddRegister(&p4.Register{Name: "r", Width: 64, Instances: 8})
	// Identity over one field with seed 0: the hash is the field's low byte.
	p.AddHash(&p4.HashCalc{Name: "h", Fields: []packet.FieldID{x}, Algo: p4.HashIdentity, Width: 16})

	var names []string
	add := func(name string, prim p4.Primitive, params ...p4.Param) {
		p.AddAction(&p4.Action{Name: name, Params: params, Body: []p4.Primitive{prim}})
		names = append(names, name)
	}
	add("modify", p4.ModifyField{Dst: out, DstName: "m.out", Src: p4.ParamOp(0, "v")}, p4.Param{Name: "v", Width: 64})
	add("alu_add", p4.ALU{Op: p4.ALUAdd, Dst: out, DstName: "m.out", A: p4.FieldOp(x, "h.x"), B: p4.ConstOp(1)})
	add("reg_wr", p4.RegisterWrite{Reg: "r", Index: p4.ConstOp(3), Value: p4.FieldOp(x, "h.x")})
	add("reg_inc", p4.RegisterIncrement{Reg: "r", Index: p4.ConstOp(3), By: p4.ConstOp(5)})
	add("reg_rd", p4.RegisterRead{Dst: out, DstName: "m.out", Reg: "r", Index: p4.ConstOp(3)})
	add("drop", p4.Drop{})
	add("noop", p4.NoOp{})
	add("hash_off", p4.ModifyFieldWithHash{Dst: out, DstName: "m.out", Hash: "h", Base: 10, Size: 8})
	add("hash_raw", p4.ModifyFieldWithHash{Dst: out, DstName: "m.out", Hash: "h"})
	add("recirc", p4.Recirculate{})
	p.AddTable(&p4.Table{
		Name:        "prims",
		Keys:        []p4.MatchKey{{FieldName: "h.sel", Field: sel, Width: 8, Kind: p4.MatchExact}},
		ActionNames: names,
		Size:        16,
	})
	p.Ingress = []p4.ControlStmt{p4.Apply{Table: "prims"}}
	return p
}

// TestPrimitives drives every primitive through the path packets take:
// New compiles the action, Inject runs it.
func TestPrimitives(t *testing.T) {
	s := sim.New(1)
	sw, err := New(s, primitivesProgram(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The register cases run in order against the same cell: 100, +5, read.
	cases := []struct {
		action  string
		data    []uint64
		x       uint64
		out     uint64
		dropped bool
		recircs int
	}{
		{action: "modify", data: []uint64{99}, out: 99},
		{action: "alu_add", x: 99, out: 100},
		{action: "reg_wr", x: 100},
		{action: "reg_inc"},
		{action: "reg_rd", out: 105},
		{action: "drop", dropped: true},
		{action: "noop"},
		{action: "hash_off", x: 42, out: 10 + 42%8},
		{action: "hash_raw", x: 42, out: 42},
		{action: "recirc", recircs: 1},
	}
	for i, c := range cases {
		if _, err := sw.AddEntry("prims", Entry{Keys: []KeySpec{ExactKey(uint64(i))}, Action: c.action, Data: c.data}); err != nil {
			t.Fatal(err)
		}
	}
	var sent *packet.Packet
	sw.Tx = func(_ int, pkt *packet.Packet) { sent = pkt }
	for i, c := range cases {
		pkt := sw.Program().Schema.New()
		pkt.Size = 64
		pkt.SetName("h.sel", uint64(i))
		pkt.SetName("h.x", c.x)
		sent = nil
		sw.Inject(0, pkt)
		s.Run()
		if pkt.Dropped != c.dropped || (sent == nil) != c.dropped {
			t.Fatalf("%s: dropped = %v, transmitted = %v", c.action, pkt.Dropped, sent != nil)
		}
		if got := pkt.GetName("m.out"); got != c.out {
			t.Errorf("%s: m.out = %d, want %d", c.action, got, c.out)
		}
		if pkt.Recirculations != c.recircs {
			t.Errorf("%s: recirculations = %d, want %d", c.action, pkt.Recirculations, c.recircs)
		}
	}
	if v, err := sw.RegRead("r", 3); err != nil || v != 105 {
		t.Errorf("r[3] = %d, %v; want 105", v, err)
	}
	if st := sw.Stats(); st.IngressDrops != 1 || st.TxPackets != uint64(len(cases)-1) {
		t.Errorf("stats = %+v", st)
	}
}

// TestCondOperators puts each comparison operator in an If whose branch
// ORs one bit into m.out, against a constant and against a field, and
// gives one If an Else.
func TestCondOperators(t *testing.T) {
	p := p4.NewProgram("cond")
	p.DefineStandardMetadata()
	x := p.Schema.Define("h.x", 32)
	y := p.Schema.Define("h.y", 32)
	out := p.Schema.Define("m.out", 8)
	mark := func(bit uint) p4.ControlStmt {
		name := string(rune('a' + bit))
		p.AddAction(&p4.Action{Name: name, Body: []p4.Primitive{
			p4.ALU{Op: p4.ALUOr, Dst: out, DstName: "m.out", A: p4.FieldOp(out, "m.out"), B: p4.ConstOp(1 << bit)},
		}})
		p.AddTable(&p4.Table{Name: name, ActionNames: []string{name}, DefaultAction: &p4.ActionCall{Action: name}, Size: 1})
		return p4.Apply{Table: name}
	}
	lhs, ten, fy := p4.FieldOp(x, "h.x"), p4.ConstOp(10), p4.FieldOp(y, "h.y")
	p.Ingress = []p4.ControlStmt{
		p4.If{Cond: p4.CondExpr{Left: lhs, Op: p4.CmpEQ, Right: ten}, Then: []p4.ControlStmt{mark(0)}, Else: []p4.ControlStmt{mark(6)}},
		p4.If{Cond: p4.CondExpr{Left: lhs, Op: p4.CmpNE, Right: ten}, Then: []p4.ControlStmt{mark(1)}},
		p4.If{Cond: p4.CondExpr{Left: lhs, Op: p4.CmpLT, Right: ten}, Then: []p4.ControlStmt{mark(2)}},
		p4.If{Cond: p4.CondExpr{Left: lhs, Op: p4.CmpLE, Right: fy}, Then: []p4.ControlStmt{mark(3)}},
		p4.If{Cond: p4.CondExpr{Left: lhs, Op: p4.CmpGT, Right: fy}, Then: []p4.ControlStmt{mark(4)}},
		p4.If{Cond: p4.CondExpr{Left: lhs, Op: p4.CmpGE, Right: fy}, Then: []p4.ControlStmt{mark(5)}},
	}
	s := sim.New(1)
	sw, err := New(s, p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const eq, ne, lt, le, gt, ge, els = 1, 2, 4, 8, 16, 32, 64
	for _, c := range []struct{ x, want uint64 }{
		{9, ne | lt | le | els},
		{10, eq | le | ge},
		{11, ne | gt | ge | els},
	} {
		pkt := p.Schema.New()
		pkt.Size = 64
		pkt.SetName("h.x", c.x)
		pkt.SetName("h.y", 10)
		sw.Inject(0, pkt)
		s.Run()
		if got := pkt.GetName("m.out"); got != c.want {
			t.Errorf("x = %d: branches taken = %07b, want %07b", c.x, got, c.want)
		}
	}
}

// TestStaticMaskEntryValidation: applyTable masks the packet value with
// the column's StaticMask before lookup, so an entry whose own value has
// bits outside the mask could never match; the table refuses it.
func TestStaticMaskEntryValidation(t *testing.T) {
	p := p4.NewProgram("mask-entries")
	p.DefineStandardMetadata()
	f := p.Schema.Define("h.x", 32)
	p.AddAction(&p4.Action{Name: "a", Body: []p4.Primitive{p4.NoOp{}}})
	for _, tbl := range []struct {
		name string
		kind p4.MatchKind
	}{{"exact", p4.MatchExact}, {"ternary", p4.MatchTernary}} {
		p.AddTable(&p4.Table{
			Name:        tbl.name,
			Keys:        []p4.MatchKey{{FieldName: "h.x", Field: f, Width: 32, Kind: tbl.kind, StaticMask: 0x0F}},
			ActionNames: []string{"a"},
			Size:        8,
		})
	}
	sw, err := New(sim.New(1), p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		table string
		key   KeySpec
		ok    bool
	}{
		{"exact", ExactKey(0x0F), true},
		{"exact", ExactKey(0x1F), false},
		{"ternary", TernaryKey(0x1F, 0x0F), true}, // the stray bit is a don't-care
		{"ternary", WildcardKey(), true},
		{"ternary", TernaryKey(0x1F, 0xFF), false},
	} {
		_, err := sw.AddEntry(c.table, Entry{Keys: []KeySpec{c.key}, Action: "a"})
		if c.ok && err != nil || !c.ok && !errors.Is(err, ErrBadEntry) {
			t.Errorf("%s %+v: err = %v, want ok = %v", c.table, c.key, err, c.ok)
		}
	}
}

// TestFieldWidthEntryValidation: a packet value is always masked to its
// field's width, so an entry that cares about a bit above it could never
// match; the table refuses it, whatever the column's kind.
func TestFieldWidthEntryValidation(t *testing.T) {
	p := p4.NewProgram("width-entries")
	p.DefineStandardMetadata()
	f := p.Schema.Define("h.x", 32)
	p.AddAction(&p4.Action{Name: "a", Body: []p4.Primitive{p4.NoOp{}}})
	for _, kind := range []p4.MatchKind{p4.MatchExact, p4.MatchTernary, p4.MatchLPM, p4.MatchRange} {
		p.AddTable(&p4.Table{
			Name:        kind.String(),
			Keys:        []p4.MatchKey{{FieldName: "h.x", Field: f, Width: 32, Kind: kind}},
			ActionNames: []string{"a"},
			Size:        8,
		})
	}
	sw, err := New(sim.New(1), p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		table string
		key   KeySpec
		ok    bool
	}{
		{"exact", ExactKey(0xFFFFFFFF), true},
		{"exact", ExactKey(1 << 40), false},
		{"ternary", TernaryKey(1<<40|1, 0xFF), true}, // the high bit is a don't-care
		{"ternary", TernaryKey(1<<40, ^uint64(0)), false},
		{"lpm", LPMKey(0x0A000000, 8, 32), true},
		{"lpm", LPMKey(^uint64(0), 8, 64), false}, // a prefix laid out for a 64-bit field
		{"range", RangeKey(10, 1<<40), true},      // values up to the field's max still match
		{"range", RangeKey(1<<32, 1<<40), false},
	} {
		_, err := sw.AddEntry(c.table, Entry{Keys: []KeySpec{c.key}, Action: "a"})
		if c.ok && err != nil || !c.ok && !errors.Is(err, ErrBadEntry) {
			t.Errorf("%s %+v: err = %v, want ok = %v", c.table, c.key, err, c.ok)
		}
	}
}
