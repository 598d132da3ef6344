package p4

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// buildTestProgram constructs a small two-table program used across the
// tests: a forwarding table writing egress_spec and a counting table
// incrementing a register indexed by ingress port.
func buildTestProgram(t *testing.T) *Program {
	t.Helper()
	p := NewProgram("test")
	p.DefineStandardMetadata()
	src := p.Schema.Define("ipv4.srcAddr", 32)
	dst := p.Schema.Define("ipv4.dstAddr", 32)
	egr := p.Schema.MustID(FieldEgressSpec)
	inp := p.Schema.MustID(FieldIngressPort)
	plen := p.Schema.MustID(FieldPacketLen)

	p.AddRegister(&Register{Name: "port_bytes", Width: 64, Instances: 64})

	p.AddAction(&Action{
		Name:   "set_egress",
		Params: []Param{{Name: "port", Width: 16}},
		Body: []Primitive{
			ModifyField{Dst: egr, DstName: FieldEgressSpec, Src: ParamOp(0, "port")},
		},
	})
	p.AddAction(&Action{Name: "do_drop", Body: []Primitive{Drop{}}})
	p.AddAction(&Action{
		Name: "count_bytes",
		Body: []Primitive{
			RegisterIncrement{Reg: "port_bytes", Index: FieldOp(inp, FieldIngressPort), By: FieldOp(plen, FieldPacketLen)},
		},
	})

	p.AddTable(&Table{
		Name: "forward",
		Keys: []MatchKey{
			{FieldName: "ipv4.dstAddr", Field: dst, Width: 32, Kind: MatchLPM},
		},
		ActionNames:   []string{"set_egress", "do_drop"},
		DefaultAction: &ActionCall{Action: "do_drop"},
		Size:          1024,
	})
	p.AddTable(&Table{
		Name:          "counter_tbl",
		ActionNames:   []string{"count_bytes"},
		DefaultAction: &ActionCall{Action: "count_bytes"},
		Size:          1,
	})
	p.Ingress = []ControlStmt{Apply{Table: "forward"}, Apply{Table: "counter_tbl"}}
	p.Egress = nil
	_ = src
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return p
}

func TestValidateOK(t *testing.T) { buildTestProgram(t) }

func TestValidateUnknownAction(t *testing.T) {
	p := NewProgram("bad")
	p.DefineStandardMetadata()
	p.AddTable(&Table{Name: "t", ActionNames: []string{"ghost"}})
	p.Ingress = []ControlStmt{Apply{Table: "t"}}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("err = %v, want unknown action", err)
	}
}

func TestValidateUnknownTableInFlow(t *testing.T) {
	p := NewProgram("bad")
	p.Ingress = []ControlStmt{Apply{Table: "missing"}}
	if err := p.Validate(); err == nil {
		t.Fatal("expected error")
	}
}

func TestValidateDefaultActionArity(t *testing.T) {
	p := NewProgram("bad")
	p.AddAction(&Action{Name: "a", Params: []Param{{Name: "x", Width: 8}}})
	p.AddTable(&Table{Name: "t", ActionNames: []string{"a"}, DefaultAction: &ActionCall{Action: "a"}})
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "takes 1 args") {
		t.Fatalf("err = %v, want arity error", err)
	}
}

func TestValidateUnknownRegister(t *testing.T) {
	p := NewProgram("bad")
	f := p.Schema.Define("m.x", 32)
	p.AddAction(&Action{Name: "a", Body: []Primitive{
		RegisterWrite{Reg: "nope", Index: ConstOp(0), Value: FieldOp(f, "m.x")},
	}})
	p.AddTable(&Table{Name: "t", ActionNames: []string{"a"}})
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("err = %v, want unknown register", err)
	}
}

func TestDuplicateTablePanics(t *testing.T) {
	p := NewProgram("dup")
	p.AddTable(&Table{Name: "t"})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddTable did not panic")
		}
	}()
	p.AddTable(&Table{Name: "t"})
}

func TestALUOps(t *testing.T) {
	cases := []struct {
		op   ALUOp
		a, b uint64
		want uint64
	}{
		{ALUAdd, 3, 4, 7},
		{ALUSub, 10, 4, 6},
		{ALUAnd, 0xFF, 0x0F, 0x0F},
		{ALUOr, 0xF0, 0x0F, 0xFF},
		{ALUXor, 0xFF, 0x0F, 0xF0},
		{ALUShl, 1, 4, 16},
		{ALUShr, 16, 4, 1},
		{ALUMin, 5, 9, 5},
		{ALUMax, 5, 9, 9},
	}
	for _, c := range cases {
		if got := c.op.Apply(c.a, c.b); got != c.want {
			t.Errorf("%v(%d,%d) = %d, want %d", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestTableHelpers(t *testing.T) {
	tbl := &Table{Keys: []MatchKey{
		{Width: 32, Kind: MatchExact},
		{Width: 16, Kind: MatchTernary},
	}}
	if !tbl.HasTernary() {
		t.Fatal("HasTernary = false")
	}
	if tbl.KeyWidthBits() != 48 {
		t.Fatalf("KeyWidthBits = %d", tbl.KeyWidthBits())
	}
	exact := &Table{Keys: []MatchKey{{Width: 8, Kind: MatchExact}}}
	if exact.HasTernary() {
		t.Fatal("exact table reports ternary")
	}
}

// TestStageAllocationChain: t2 matches the field t1's action writes, so
// t2 depends on t1 and placement must put it in a later stage; t1
// depends on nothing. A repeated apply adds no second entry.
func TestStageAllocationChain(t *testing.T) {
	p := NewProgram("chain")
	p.DefineStandardMetadata()
	a := p.Schema.Define("m.a", 32)
	bf := p.Schema.Define("m.b", 32)
	p.AddAction(&Action{Name: "wa", Body: []Primitive{ModifyField{Dst: a, DstName: "m.a", Src: ConstOp(1)}}})
	p.AddAction(&Action{Name: "rb", Body: []Primitive{ModifyField{Dst: bf, DstName: "m.b", Src: FieldOp(a, "m.a")}}})
	p.AddTable(&Table{Name: "t1", ActionNames: []string{"wa"}, DefaultAction: &ActionCall{Action: "wa"}, Size: 1})
	p.AddTable(&Table{Name: "t2", Keys: []MatchKey{{FieldName: "m.a", Field: a, Width: 32, Kind: MatchExact}},
		ActionNames: []string{"rb"}, Size: 8})
	p.Ingress = []ControlStmt{Apply{Table: "t1"}, Apply{Table: "t2"}, Apply{Table: "t1"}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	order, deps := p.TableDependencies(p.Ingress)
	if !reflect.DeepEqual(order, []string{"t1", "t2"}) {
		t.Fatalf("order = %v, want [t1 t2]", order)
	}
	if len(deps["t1"]) != 0 {
		t.Errorf("t1 depends on %v, want nothing", deps["t1"])
	}
	if !reflect.DeepEqual(deps["t2"], []string{"t1"}) {
		t.Errorf("t2 depends on %v, want [t1] (t2 matches field t1 writes)", deps["t2"])
	}
}

func TestResourceAccounting(t *testing.T) {
	p := buildTestProgram(t)
	// forward: LPM -> TCAM; only the match key (value+mask) lives in
	// TCAM, 2*32 bits x 1024 entries, and its action data (16b) in SRAM.
	fwd := p.FootprintOf(p.Tables["forward"], 1024)
	if !fwd.TCAM || fwd.TCAMBits != 2*32*1024 || fwd.SRAMBits != 16*1024 {
		t.Fatalf("forward = %+v, want TCAM %d bits and SRAM %d bits", fwd, 2*32*1024, 16*1024)
	}
	// counter_tbl has no key and no action data.
	if c := p.FootprintOf(p.Tables["counter_tbl"], 1); c.TCAM || c.SRAMBits != 0 || c.TCAMBits != 0 {
		t.Fatalf("counter_tbl = %+v, want no memory", c)
	}
}

func TestResourceOccupancyOverride(t *testing.T) {
	p := buildTestProgram(t)
	full := p.FootprintOf(p.Tables["forward"], p.Tables["forward"].Size).TCAMBits
	half := p.FootprintOf(p.Tables["forward"], 512).TCAMBits
	if half*2 != full {
		t.Fatalf("occupancy override: half=%d full=%d", half, full)
	}
}

func TestMetadataBits(t *testing.T) {
	p := NewProgram("meta")
	p.Schema.Define("p4r_meta_.value_var", 16)
	p.Schema.Define("p4r_meta_.alt", 1)
	p.Schema.Define("hdr.x", 32)
	if got := p.MetadataBits(); got != 17 {
		t.Fatalf("MetadataBits = %d, want 17", got)
	}
}

func TestPrintContainsDeclarations(t *testing.T) {
	p := buildTestProgram(t)
	out := p.Print()
	for _, want := range []string{
		"table forward", "reads {", "ipv4.dstAddr : lpm",
		"action set_egress(port)", "register port_bytes",
		"apply(forward);", "control ingress",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Print output missing %q", want)
		}
	}
	if p.LineCount() < 20 {
		t.Fatalf("LineCount = %d, suspiciously small", p.LineCount())
	}
}

func TestPrintControlIf(t *testing.T) {
	p := NewProgram("iftest")
	f := p.Schema.Define("m.x", 8)
	p.AddAction(&Action{Name: "nop", Body: []Primitive{NoOp{}}})
	p.AddTable(&Table{Name: "t", ActionNames: []string{"nop"}})
	p.Ingress = []ControlStmt{
		If{
			Cond: CondExpr{Left: FieldOp(f, "m.x"), Op: CmpGT, Right: ConstOp(3)},
			Then: []ControlStmt{Apply{Table: "t"}},
		},
	}
	out := p.Print()
	if !strings.Contains(out, "if (m.x > 3)") {
		t.Fatalf("missing if condition in:\n%s", out)
	}
}

func TestFlattenAppliesIncludesBranches(t *testing.T) {
	p := NewProgram("flat")
	f := p.Schema.Define("m.x", 8)
	stmts := []ControlStmt{
		Apply{Table: "a"},
		If{
			Cond: CondExpr{Left: FieldOp(f, "m.x"), Op: CmpEQ, Right: ConstOp(0)},
			Then: []ControlStmt{Apply{Table: "b"}},
			Else: []ControlStmt{Apply{Table: "c"}},
		},
	}
	got := flattenApplies(stmts)
	want := []string{"a", "b", "c"}
	if len(got) != 3 {
		t.Fatalf("flattenApplies = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flattenApplies = %v, want %v", got, want)
		}
	}
}

// Property: ALU add/sub are inverses modulo 2^64 for any operands.
func TestPropertyALUAddSubInverse(t *testing.T) {
	f := func(a, b uint64) bool {
		return ALUSub.Apply(ALUAdd.Apply(a, b), b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: min/max ordering invariant.
func TestPropertyMinMax(t *testing.T) {
	f := func(a, b uint64) bool {
		lo, hi := ALUMin.Apply(a, b), ALUMax.Apply(a, b)
		return lo <= hi && (lo == a || lo == b) && (hi == a || hi == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
