package compiler

import (
	"os"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/p4"
	"repro/internal/p4r"
)

func compile(t *testing.T, src string) *Plan {
	t.Helper()
	plan, err := CompileSource(src, DefaultOptions())
	if err != nil {
		t.Fatalf("CompileSource: %v", err)
	}
	return plan
}

const valueSrc = `
header_type h_t { fields { foo : 16; bar : 16; baz : 16; } }
header h_t hdr;
malleable value value_var { width : 16; init : 1; }
action my_action() {
  add(hdr.foo, hdr.baz, ${value_var});
}
table t {
  reads { hdr.bar : exact; }
  actions { my_action; }
  size : 16;
}
control ingress { apply(t); }
`

func TestInitTableSplitting(t *testing.T) {
	src := `
header_type h_t { fields { a : 32; b : 32; } }
header h_t hdr;
malleable value v1 { width : 32; init : 1; }
malleable value v2 { width : 32; init : 2; }
malleable value v3 { width : 32; init : 3; }
malleable value v4 { width : 16; init : 4; }
action n() { no_op(); }
table t { actions { n; } }
control ingress { apply(t); }
`
	f, err := p4r.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.MaxInitActionBits = 40 // forces one 32-bit value per table
	plan, err := Compile(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.InitTables) < 3 {
		t.Fatalf("init tables = %d, want split", len(plan.InitTables))
	}
	// What the packets show of the split (which table is the master,
	// that it holds vv, that the others match on it) the behaviour check
	// covers. Every malleable is packed into exactly one init slot.
	for name := range plan.MblValues {
		slots := 0
		for _, it := range plan.InitTables {
			for _, p := range it.Params {
				if p.Mbl == name {
					slots++
				}
			}
		}
		if slots != 1 {
			t.Fatalf("%s in %d init slots", name, slots)
		}
	}
}

func TestSortedFirstFitProperty(t *testing.T) {
	f := func(widths []uint8) bool {
		var items []InitParam
		for i, w := range widths {
			width := int(w%64) + 1
			items = append(items, InitParam{Kind: InitValue, Mbl: string(rune('a' + i%26)), Width: width})
		}
		bins := firstFitDecreasing(nil, items, 64)
		total := 0
		for _, bin := range bins {
			sum := 0
			for _, it := range bin {
				sum += it.Width
			}
			if sum > 64 {
				return false // capacity violated
			}
			total += len(bin)
		}
		return total == len(items)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

const reactionSrc = `
header_type ipv4_t { fields { srcAddr : 32; dstAddr : 32; proto : 8; } }
header ipv4_t ipv4;
register total_bytes { width : 32; instance_count : 1; }
register port_pkts { width : 32; instance_count : 10; }
malleable value threshold { width : 32; init : 100; }
action cnt() {
  register_increment(total_bytes, 0, standard_metadata.packet_length);
  count(port_pkts, standard_metadata.ingress_port);
}
table counting { actions { cnt; } default_action : cnt; size : 1; }
reaction my_rxn(ing ipv4.srcAddr, ing ipv4.proto, reg total_bytes[0:0], reg port_pkts) {
  ${threshold} = ${threshold} + 1;
}
control ingress { apply(counting); }
`

func TestReactionMeasurementGeneration(t *testing.T) {
	plan := compile(t, reactionSrc)
	if len(plan.Reactions) != 1 {
		t.Fatalf("reactions = %d", len(plan.Reactions))
	}
	r := plan.Reactions[0]
	// srcAddr(32) + proto(8) pack into a single 64-bit slot.
	if len(r.IngSlots) != 1 {
		t.Fatalf("ing slots = %+v", r.IngSlots)
	}
	slot := r.IngSlots[0]
	if len(slot.Fields) != 2 {
		t.Fatalf("slot fields = %+v", slot.Fields)
	}
	// Sorted first-fit: srcAddr (wider) first at shift 0, proto at 32.
	if slot.Fields[0].Param != "ipv4.srcAddr" || slot.Fields[0].Shift != 0 {
		t.Fatalf("field0 = %+v", slot.Fields[0])
	}
	if slot.Fields[1].Param != "ipv4.proto" || slot.Fields[1].Shift != 32 {
		t.Fatalf("field1 = %+v", slot.Fields[1])
	}
	if slot.Fields[1].Var != "ipv4_proto" {
		t.Fatalf("var = %s", slot.Fields[1].Var)
	}
	// The measurement register exists with 2 instances (working+checkpoint).
	reg := plan.Prog.Registers[slot.Register]
	if reg == nil || reg.Instances != 2 {
		t.Fatalf("meas register = %+v", reg)
	}
	// The measurement table is applied at the end of ingress.
	ing := plan.Prog.Ingress
	last := ing[len(ing)-1].(p4.Apply)
	if last.Table != "p4r_meas_my_rxn_ing_" {
		t.Fatalf("last ingress apply = %s", last.Table)
	}
	// Register params: full-array slice resolves to [0, N-1].
	if len(r.RegParams) != 2 {
		t.Fatalf("reg params = %+v", r.RegParams)
	}
	pp := r.RegParams[1]
	if pp.Orig != "port_pkts" || pp.Lo != 0 || pp.Hi != 9 || pp.N != 10 || pp.PaddedN != 16 {
		t.Fatalf("port_pkts param = %+v", pp)
	}
	// Duplicate and timestamp registers sized 2*paddedN.
	dup := plan.Prog.Registers[pp.Dup]
	ts := plan.Prog.Registers[pp.Ts]
	if dup == nil || dup.Instances != 32 || ts == nil || ts.Instances != 32 {
		t.Fatalf("dup = %+v ts = %+v", dup, ts)
	}
	if !plan.UsesMV || !plan.UsesVV {
		t.Fatalf("version bits: vv=%v mv=%v", plan.UsesVV, plan.UsesMV)
	}
}

func TestMirrorInjection(t *testing.T) {
	plan := compile(t, reactionSrc)
	cnt := plan.Prog.Actions["cnt"]
	// Original body: 2 increments. After mirroring each increment gains
	// 1 read-back + 5 mirror ops.
	if len(cnt.Body) != 2+2*6 {
		t.Fatalf("cnt body has %d ops", len(cnt.Body))
	}
	// Check a duplicate write targets the dup register.
	foundDup, foundTs := false, false
	for _, prim := range cnt.Body {
		switch op := prim.(type) {
		case p4.RegisterWrite:
			if strings.HasPrefix(op.Reg, "p4r_dup_") {
				foundDup = true
			}
		case p4.RegisterIncrement:
			if strings.HasPrefix(op.Reg, "p4r_ts_") {
				foundTs = true
			}
		}
	}
	if !foundDup || !foundTs {
		t.Fatalf("mirror ops missing: dup=%v ts=%v", foundDup, foundTs)
	}
}

// TestReactionBodySemanticErrorRejected: a body that parses but cannot
// be lowered (here a redeclared local) fails the compile with the
// analyzer's positioned L002 diagnostic, rather than the agent's first
// iteration.
func TestReactionBodySemanticErrorRejected(t *testing.T) {
	src := `
malleable value v { width : 8; init : 0; }
action a() { no_op(); }
table t { actions { a; } }
control ingress { apply(t); }
reaction bump() { int x = 1; int x = 2; ${v} = x; }
`
	plan, err := CompileSource(src, DefaultOptions())
	const want = "line 6:1: error[L002]: reaction bump: rcl line 6: redeclaration of x"
	if plan != nil || err == nil || err.Error() != want {
		t.Fatalf("CompileSource = %v, %v; want %s", plan, err, want)
	}
}

func TestGeneratedProgramValidatesAndPrints(t *testing.T) {
	for _, src := range []string{valueSrc, reactionSrc, loweringSrc(t)} {
		plan := compile(t, src)
		if err := plan.Prog.Validate(); err != nil {
			t.Fatalf("generated program invalid: %v", err)
		}
		out := plan.Prog.Print()
		if !strings.Contains(out, "control ingress") {
			t.Fatal("print output incomplete")
		}
		if plan.SourceLines == 0 {
			t.Fatal("SourceLines not recorded")
		}
	}
}

func TestMetadataBitsAccounted(t *testing.T) {
	plan := compile(t, valueSrc)
	// value_var (16) + vv (1): generated metadata.
	if got := plan.Prog.MetadataBits(); got != 17 {
		t.Fatalf("MetadataBits = %d, want 17", got)
	}
}

func TestReactionBodyPreserved(t *testing.T) {
	plan := compile(t, reactionSrc)
	if !strings.Contains(plan.Reactions[0].Body, "${threshold} = ${threshold} + 1;") {
		t.Fatalf("body = %q", plan.Reactions[0].Body)
	}
}

func TestCeilLog2AndNextPow2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10}
	for n, want := range cases {
		if got := ceilLog2(n); got != want {
			t.Errorf("ceilLog2(%d) = %d, want %d", n, got, want)
		}
	}
	pows := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 16: 16, 17: 32}
	for n, want := range pows {
		if got := nextPow2(n); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestStaticMaskThreadedThrough(t *testing.T) {
	src := `
header_type h_t { fields { x : 32; } }
header h_t hdr;
action nop() { no_op(); }
table t {
  reads { hdr.x mask 0xFF : exact; }
  actions { nop; }
  size : 4;
}
control ingress { apply(t); }
`
	plan := compile(t, src)
	k := plan.Prog.Tables["t"].Keys[0]
	if k.StaticMask != 0xFF {
		t.Fatalf("StaticMask = %#x", k.StaticMask)
	}
}

// TestControlFlowConditionLowering covers the shape of if/else
// lowering, which the behaviour check cannot see: it compiles both of
// the programs it compares. What a malleable operand lowers to, it
// checks.
func TestControlFlowConditionLowering(t *testing.T) {
	src := `
header_type h_t { fields { a : 16; b : 16; q : 16; } }
header h_t hdr;
malleable value thresh { width : 16; init : 5; }
malleable field sel { width : 16; init : hdr.a; alts { hdr.a, hdr.b } }
action nop() { no_op(); }
table t1 { actions { nop; } default_action : nop; size : 1; }
table t2 { actions { nop; } default_action : nop; size : 1; }
table t3 { actions { nop; } default_action : nop; size : 1; }
control ingress {
  if (hdr.q > ${thresh}) {
    apply(t1);
  } else {
    if (${sel} == 7) {
      apply(t2);
    }
  }
  apply(t3);
}
`
	plan := compile(t, src)
	ing := plan.Prog.Ingress
	// After init + loader applies, the first user statement is the If.
	var ifStmt *p4.If
	for _, s := range ing {
		if st, ok := s.(p4.If); ok {
			ifStmt = &st
			break
		}
	}
	if ifStmt == nil {
		t.Fatal("no If in lowered ingress")
	}
	if len(ifStmt.Then) != 1 || len(ifStmt.Else) != 1 {
		t.Fatalf("then %d, else %d statements", len(ifStmt.Then), len(ifStmt.Else))
	}
	if _, ok := ifStmt.Else[0].(p4.If); !ok {
		t.Fatalf("else[0] = %T", ifStmt.Else[0])
	}
}

func loweringSrc(t *testing.T) string {
	src, err := os.ReadFile("testdata/lowering.p4r")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// TestWhatPacketsDoNotShow pins what the behaviour check
// (TestMalleableEquivalence) cannot see of testdata/lowering.p4r, whose
// lowerings the retired shape tests covered one by one: resources, the
// generated names, the declared initial values, the master's
// declared default (the agent installs its own), the vv column's place
// (the agent reads it from the plan), the combinations' install order
// (every handle and op the agent issues follows it), and that a
// specialised action's own name is not in the program.
func TestWhatPacketsDoNotShow(t *testing.T) {
	f, err := p4r.Parse(loweringSrc(t))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(f, Options{MaxInitActionBits: 16})
	if err != nil {
		t.Fatal(err)
	}
	schema, f1, f2, v := plan.Prog.Schema, plan.MblFields["f1"], plan.MblFields["f2"], plan.MblValues["v"]
	if v.MetaField != "p4r_meta_.v" || f1.Selector != "p4r_meta_.f1_alt" || plan.MblFields["sel"].Carrier != "p4r_meta_.sel_val" {
		t.Errorf("names: %s, %s, %s", v.MetaField, f1.Selector, plan.MblFields["sel"].Carrier)
	}
	if w1, w2 := schema.Width(schema.MustID(f1.Selector)), schema.Width(schema.MustID(f2.Selector)); w1 != 1 || w2 != 2 {
		t.Errorf("selector widths %d, %d; want ceil(log2(alts)) = 1, 2", w1, w2)
	}
	if v.Init != 5 || f2.InitAlt != 1 {
		t.Errorf("v.Init %d, f2.InitAlt %d", v.Init, f2.InitAlt)
	}
	// 16 init bits: vv, mv and the three selectors in the master, then v
	// and thresh alone.
	if len(plan.InitTables) != 3 || plan.InitTables[0].Table != "p4r_init1_" {
		t.Fatalf("init tables %+v", plan.InitTables)
	}
	master := plan.InitTables[0]
	for i, ip := range master.Params {
		if got := plan.Prog.Tables[master.Table].DefaultAction.Data[i]; got != ip.Init {
			t.Errorf("master default param %d = %d, want %d", i, got, ip.Init)
		}
	}
	// Entries: declared size × alt combinations (× 2 copies when malleable).
	for name, size := range map[string]int{"match_f": 4 * 6 * 2, "two": 2 * 6 * 2, "expd": 2 * 6, "out": 4 * 2} {
		if got := plan.Prog.Tables[name].Size; got != size {
			t.Errorf("%s size %d, want %d", name, got, size)
		}
		if ti := plan.MblTables[name]; ti.VVCol >= 0 && ti.VVCol != len(ti.Combos[0].Keys)-1 {
			t.Errorf("%s: vv column %d of %d", name, ti.VVCol, len(ti.Combos[0].Keys))
		}
	}
	// Two uses of one field specialise once; two fields multiply.
	variants := map[string]map[string]bool{"rw": {}, "mix": {}}
	for _, cb := range plan.MblTables["match_f"].Combos {
		for a, vs := range variants {
			vs[cb.Action(a)] = true
		}
	}
	if len(variants["rw"]) != 2 || len(variants["mix"]) != 6 {
		t.Errorf("rw in %d variants, mix in %d", len(variants["rw"]), len(variants["mix"]))
	}
	// match_f expands over f1 (2 alts) then f2 (3 alts), its selectors
	// after f1's two columns and hdr.k: combinations by selector column,
	// the last fastest.
	var order [][2]uint64
	for _, cb := range plan.MblTables["match_f"].Combos {
		order = append(order, [2]uint64{cb.Keys[3].Value, cb.Keys[4].Value})
	}
	if want := [][2]uint64{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}; !slices.Equal(order, want) {
		t.Errorf("match_f combinations %v, want %v", order, want)
	}
	if plan.Prog.Actions["mix"] != nil {
		t.Error("the unspecialised action is in the program too")
	}
}

// TestKitchenSinkPrimitives lowers every supported P4-14 primitive.
func TestKitchenSinkPrimitives(t *testing.T) {
	src := `
header_type h_t { fields { a : 32; b : 32; c : 32; } }
header h_t hdr;
register r { width : 32; instance_count : 8; }
field_list fl { hdr.a; }
field_list_calculation hc { input { fl; } algorithm : crc32; output_width : 16; }
action everything(p) {
  modify_field(hdr.a, p);
  add(hdr.a, hdr.b, hdr.c);
  subtract(hdr.a, hdr.b, hdr.c);
  bit_and(hdr.a, hdr.b, hdr.c);
  bit_or(hdr.a, hdr.b, hdr.c);
  bit_xor(hdr.a, hdr.b, hdr.c);
  shift_left(hdr.a, hdr.b, 2);
  shift_right(hdr.a, hdr.b, 2);
  min(hdr.a, hdr.b, hdr.c);
  max(hdr.a, hdr.b, hdr.c);
  add_to_field(hdr.a, 1);
  subtract_from_field(hdr.a, 1);
  register_read(hdr.b, r, 0);
  register_write(r, 1, hdr.a);
  register_increment(r, 2, hdr.c);
  count(r, 3);
  count_bytes(r, 4);
  modify_field_with_hash_based_offset(hdr.c, 0, hc, 8);
  no_op();
}
action bounce() { recirculate(); }
table t { actions { everything; bounce; } default_action : everything(9); size : 1; }
control ingress { apply(t); }
`
	plan := compile(t, src)
	a := plan.Prog.Actions["everything"]
	if len(a.Body) != 19 {
		t.Fatalf("lowered %d primitives, want 19", len(a.Body))
	}
	// Parameter width inferred from its widest destination (32).
	if a.Params[0].Width != 32 {
		t.Fatalf("inferred param width = %d", a.Params[0].Width)
	}
	// count_bytes increments by packet_length.
	found := false
	for _, prim := range a.Body {
		if ri, ok := prim.(p4.RegisterIncrement); ok && ri.By.Kind == p4.OpField &&
			ri.By.Name == p4.FieldPacketLen {
			found = true
		}
	}
	if !found {
		t.Fatal("count_bytes did not lower to a packet_length increment")
	}
}
