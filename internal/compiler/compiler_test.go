package compiler

import (
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

// TestMalleableValueTransformation checks the Fig. 4 lowering: the value
// becomes a p4r_meta_ field loaded by an init table and referenced in
// place of the ${...}.
func TestMalleableValueTransformation(t *testing.T) {
	plan := compile(t, valueSrc)
	info := plan.MblValues["value_var"]
	if info == nil {
		t.Fatal("value_var missing from plan")
	}
	if info.MetaField != "p4r_meta_.value_var" || info.Init != 1 || info.Width != 16 {
		t.Fatalf("info = %+v", info)
	}
	if len(plan.InitTables) != 1 || !plan.InitTables[0].Master {
		t.Fatalf("init tables = %+v", plan.InitTables)
	}
	master := plan.InitTables[0]
	if master.Table != "p4r_init1_" {
		t.Fatalf("master table = %s", master.Table)
	}
	// The init table must be applied first in ingress.
	ing := plan.Prog.Ingress
	if ap, ok := ing[0].(p4.Apply); !ok || ap.Table != "p4r_init1_" {
		t.Fatalf("ingress[0] = %+v", ing[0])
	}
	// my_action must now reference the metadata field.
	act := plan.Prog.Actions["my_action"]
	if act == nil {
		t.Fatal("my_action missing")
	}
	alu, ok := act.Body[0].(p4.ALU)
	if !ok {
		t.Fatalf("body[0] = %T", act.Body[0])
	}
	if alu.B.Kind != p4.OpField || alu.B.Name != "p4r_meta_.value_var" {
		t.Fatalf("operand B = %+v, want meta field", alu.B)
	}
	// The master's default action carries the init value.
	tbl := plan.Prog.Tables["p4r_init1_"]
	if tbl.DefaultAction == nil {
		t.Fatal("master init table has no default action")
	}
	idx := paramIndexOf(master, "value_var")
	if idx < 0 || tbl.DefaultAction.Data[idx] != 1 {
		t.Fatalf("init data = %v (value_var at %d)", tbl.DefaultAction.Data, idx)
	}
}

const fieldWriteSrc = `
header_type h_t { fields { foo : 32; bar : 32; baz : 32; qux : 8; } }
header h_t hdr;
malleable field write_var {
  width : 32; init : hdr.foo;
  alts { hdr.foo, hdr.bar }
}
action my_action(bazp) {
  modify_field(${write_var}, bazp);
}
malleable table my_table {
  reads { hdr.qux : exact; }
  actions { my_action; }
  size : 8;
}
control ingress { apply(my_table); }
`

// TestMalleableFieldWriteTransformation checks the Fig. 5 lowering:
// selector metadata, specialized actions, and selector+vv columns.
func TestMalleableFieldWriteTransformation(t *testing.T) {
	plan := compile(t, fieldWriteSrc)
	mf := plan.MblFields["write_var"]
	if mf == nil {
		t.Fatal("write_var missing")
	}
	if mf.Selector != "p4r_meta_.write_var_alt" {
		t.Fatalf("selector = %s", mf.Selector)
	}
	if w := plan.Prog.Schema.Width(plan.Prog.Schema.MustID(mf.Selector)); w != 1 {
		t.Fatalf("selector width = %d, want ceil(log2(2)) = 1", w)
	}
	ti := plan.MblTables["my_table"]
	if ti == nil {
		t.Fatal("my_table has no MblTableInfo")
	}
	spec := ti.ActionSpec["my_action"]
	if spec == nil {
		t.Fatal("my_action not specialized")
	}
	if len(spec.Variants) != 2 {
		t.Fatalf("variants = %v", spec.Variants)
	}
	// Each variant writes a different concrete field.
	v0 := plan.Prog.Actions[spec.VariantFor([]int{0})]
	v1 := plan.Prog.Actions[spec.VariantFor([]int{1})]
	d0 := v0.Body[0].(p4.ModifyField).DstName
	d1 := v1.Body[0].(p4.ModifyField).DstName
	if d0 != "hdr.foo" || d1 != "hdr.bar" {
		t.Fatalf("variant dsts = %s, %s", d0, d1)
	}
	// Generated table layout: [hdr.qux][selector][vv].
	tbl := plan.Prog.Tables["my_table"]
	if len(tbl.Keys) != 3 {
		t.Fatalf("keys = %+v", tbl.Keys)
	}
	if ti.SelectorCol["write_var"] != 1 || ti.VVCol != 2 {
		t.Fatalf("cols: selector=%d vv=%d", ti.SelectorCol["write_var"], ti.VVCol)
	}
	if tbl.Keys[2].FieldName != VVField {
		t.Fatalf("last key = %s", tbl.Keys[2].FieldName)
	}
	// Size: 8 user entries x 2 alts x 2 versions.
	if tbl.Size != 32 {
		t.Fatalf("generated size = %d, want 32", tbl.Size)
	}
	// The original action name must not exist in the program.
	if _, exists := plan.Prog.Actions["my_action"]; exists {
		t.Fatal("unspecialized action was also added")
	}
}

const fieldReadSrc = `
header_type h_t { fields { foo : 32; bar : 32; baz : 32; qux : 32; } }
header h_t hdr;
malleable field read_var {
  width : 32; init : hdr.foo;
  alts { hdr.foo, hdr.bar }
}
action my_action() {
  add(hdr.qux, hdr.baz, ${read_var});
}
malleable table my_table {
  reads { ${read_var} : exact; }
  actions { my_action; }
  size : 4;
}
control ingress { apply(my_table); }
`

// TestMalleableFieldReadTransformation checks the Fig. 6 lowering: the
// malleable match column becomes |alts| ternary columns plus the
// selector, and the action is specialized.
func TestMalleableFieldReadTransformation(t *testing.T) {
	plan := compile(t, fieldReadSrc)
	tbl := plan.Prog.Tables["my_table"]
	ti := plan.MblTables["my_table"]
	// Layout: [hdr.foo ternary][hdr.bar ternary][selector][vv].
	if len(tbl.Keys) != 4 {
		t.Fatalf("keys = %+v", tbl.Keys)
	}
	if tbl.Keys[0].FieldName != "hdr.foo" || tbl.Keys[0].Kind != p4.MatchTernary {
		t.Fatalf("key0 = %+v (exact must become ternary)", tbl.Keys[0])
	}
	if tbl.Keys[1].FieldName != "hdr.bar" || tbl.Keys[1].Kind != p4.MatchTernary {
		t.Fatalf("key1 = %+v", tbl.Keys[1])
	}
	if ti.ColOffset[0] != 0 || ti.SelectorCol["read_var"] != 2 || ti.VVCol != 3 {
		t.Fatalf("layout: %+v", ti)
	}
	if ti.Keys[0].MblField != "read_var" {
		t.Fatalf("user key = %+v", ti.Keys[0])
	}
	// Size: 4 user x 2 alts x 2 versions.
	if tbl.Size != 16 {
		t.Fatalf("size = %d", tbl.Size)
	}
}

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
	if !plan.InitTables[0].Master {
		t.Fatal("first init table is not master")
	}
	// vv+mv... (no reactions, so just vv) must live in the master.
	foundVV := false
	for _, p := range plan.InitTables[0].Params {
		if p.Kind == InitVV {
			foundVV = true
		}
	}
	if !foundVV {
		t.Fatal("vv not in master init table")
	}
	// Non-master init tables match on vv.
	for _, it := range plan.InitTables[1:] {
		tbl := plan.Prog.Tables[it.Table]
		if len(tbl.Keys) != 1 || tbl.Keys[0].FieldName != VVField {
			t.Fatalf("non-master init table %s keys = %+v", it.Table, tbl.Keys)
		}
	}
	// Every malleable is assigned to exactly one init slot.
	for name, mv := range plan.MblValues {
		it := plan.InitTables[mv.InitTable]
		if paramIndexOf(it, name) != mv.ParamIdx {
			t.Fatalf("%s slot mismatch", name)
		}
	}
}

// paramIndexOf returns the action-parameter index of a malleable in an
// init table, or -1.
func paramIndexOf(it *InitTableInfo, mbl string) int {
	for i, p := range it.Params {
		if p.Mbl == mbl && (p.Kind == InitValue || p.Kind == InitField) {
			return i
		}
	}
	return -1
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

func TestFieldListCarrierOptimization(t *testing.T) {
	src := `
header_type ipv4_t { fields { srcAddr : 32; dstAddr : 32; } }
header ipv4_t ipv4;
header_type ipv6_t { fields { flowLabel : 32; } }
header ipv6_t ipv6;
malleable field src_sel {
  width : 32; init : ipv4.srcAddr;
  alts { ipv4.srcAddr, ipv6.flowLabel }
}
field_list ecmp_fl { ${src_sel}; ipv4.dstAddr; }
field_list_calculation ecmp_hash {
  input { ecmp_fl; }
  algorithm : crc16;
  output_width : 14;
}
action h() { modify_field_with_hash_based_offset(ipv4.dstAddr, 0, ecmp_hash, 4); }
table t { actions { h; } default_action : h; size : 1; }
control ingress { apply(t); }
`
	plan := compile(t, src)
	mf := plan.MblFields["src_sel"]
	if mf.Carrier != "p4r_meta_.src_sel_val" || mf.LoaderTable == "" {
		t.Fatalf("carrier = %+v", mf)
	}
	// The hash reads the carrier, not either alt.
	h := plan.Prog.Hashes["ecmp_hash"]
	if h == nil {
		t.Fatal("hash missing")
	}
	if plan.Prog.Schema.Name(h.Fields[0]) != mf.Carrier {
		t.Fatalf("hash field0 = %s", plan.Prog.Schema.Name(h.Fields[0]))
	}
	// Static loader entries: one per alt.
	count := 0
	for _, se := range plan.StaticEntries {
		if se.Table == mf.LoaderTable {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("loader entries = %d", count)
	}
	// Loader applied after init, before user tables.
	ing := plan.Prog.Ingress
	if ap, ok := ing[1].(p4.Apply); !ok || ap.Table != mf.LoaderTable {
		t.Fatalf("ingress[1] = %+v", ing[1])
	}
}

func TestCompoundMalleablesInOneAction(t *testing.T) {
	src := `
header_type h_t { fields { a : 16; b : 16; c : 16; d : 16; } }
header h_t hdr;
malleable field f1 { width : 16; init : hdr.a; alts { hdr.a, hdr.b } }
malleable field f2 { width : 16; init : hdr.c; alts { hdr.c, hdr.d } }
malleable value v { width : 16; init : 5; }
action mix() {
  add(${f1}, ${f2}, ${v});
}
malleable table t {
  actions { mix; }
  size : 2;
}
control ingress { apply(t); }
`
	plan := compile(t, src)
	ti := plan.MblTables["t"]
	spec := ti.ActionSpec["mix"]
	if len(spec.Variants) != 4 {
		t.Fatalf("variants = %v, want 2x2 = 4", spec.Variants)
	}
	// Check variant (1,0): dst hdr.b, src hdr.c, value meta.
	a := plan.Prog.Actions[spec.VariantFor([]int{1, 0})]
	alu := a.Body[0].(p4.ALU)
	if alu.DstName != "hdr.b" || alu.A.Name != "hdr.c" || alu.B.Name != "p4r_meta_.v" {
		t.Fatalf("variant(1,0): %+v", alu)
	}
	// Table columns: selectors for f1 and f2 plus vv.
	tbl := plan.Prog.Tables["t"]
	if len(tbl.Keys) != 3 {
		t.Fatalf("keys = %+v", tbl.Keys)
	}
	// Size: 2 user x 2 x 2 alts x 2 vv = 16.
	if tbl.Size != 16 {
		t.Fatalf("size = %d", tbl.Size)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := map[string]string{
		"unknown alt": `
malleable field f { width : 8; init : a.b; alts { a.b } }
`,
		"alt width mismatch": `
header_type h_t { fields { a : 8; b : 16; } }
header h_t hdr;
malleable field f { width : 8; init : hdr.a; alts { hdr.a, hdr.b } }
`,
		"assign to malleable value": `
malleable value v { width : 8; init : 0; }
action a() { modify_field(${v}, 1); }
table t { actions { a; } }
control ingress { apply(t); }
`,
		"unknown malleable in action": `
header_type h_t { fields { a : 8; } }
header h_t hdr;
action a() { modify_field(hdr.a, ${ghost}); }
table t { actions { a; } }
control ingress { apply(t); }
`,
		"unknown field in reads": `
action a() { no_op(); }
table t { reads { hdr.nope : exact; } actions { a; } }
control ingress { apply(t); }
`,
		"unknown register in reaction": `
reaction r(reg ghost) { }
`,
		"reg slice out of range": `
register q { width : 32; instance_count : 4; }
reaction r(reg q[0:9]) { }
`,
		"unknown field param": `
reaction r(ing ipv4.nope) { }
`,
		"default action with malleable field": `
header_type h_t { fields { a : 8; b : 8; } }
header h_t hdr;
malleable field f { width : 8; init : hdr.a; alts { hdr.a, hdr.b } }
action a() { modify_field(${f}, 1); }
table t { actions { a; } default_action : a; }
control ingress { apply(t); }
`,
		"apply unknown table": `
control ingress { apply(ghost); }
`,
		"duplicate header type": `
header_type h_t { fields { a : 8; } }
header_type h_t { fields { b : 8; } }
`,
		"instance of unknown type": `
header ghost_t hdr;
`,
		"bad hash algorithm": `
header_type h_t { fields { a : 8; } }
header h_t hdr;
field_list fl { hdr.a; }
field_list_calculation c { input { fl; } algorithm : md5; output_width : 16; }
`,
		"calc of unknown list": `
field_list_calculation c { input { ghost; } algorithm : crc16; output_width : 16; }
`,
		"range on malleable field": `
header_type h_t { fields { a : 8; b : 8; } }
header h_t hdr;
malleable field f { width : 8; init : hdr.a; alts { hdr.a, hdr.b } }
action a() { no_op(); }
table t { reads { ${f} : range; } actions { a; } }
control ingress { apply(t); }
`,
		"unknown primitive": `
header_type h_t { fields { a : 8; } }
header h_t hdr;
action a() { teleport(hdr.a); }
table t { actions { a; } }
control ingress { apply(t); }
`,
	}
	for name, src := range cases {
		if _, err := CompileSource(src, DefaultOptions()); err == nil {
			t.Errorf("%s: expected compile error", name)
		}
	}
}

func TestGeneratedProgramValidatesAndPrints(t *testing.T) {
	for _, src := range []string{valueSrc, fieldWriteSrc, fieldReadSrc, reactionSrc} {
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
	res := plan.Prog.EstimateResources(nil)
	// value_var (16) + vv (1): generated metadata.
	if res.MetadataBits != 17 {
		t.Fatalf("MetadataBits = %d, want 17", res.MetadataBits)
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

// TestSameFieldReadAndWriteCoalesced: §4.1 "multiple uses of the same
// field — whether left-hand or right — can be coalesced; each action
// needs to be specialized at most one time."
func TestSameFieldReadAndWriteCoalesced(t *testing.T) {
	src := `
header_type h_t { fields { a : 16; b : 16; c : 16; } }
header h_t hdr;
malleable field f { width : 16; init : hdr.a; alts { hdr.a, hdr.b } }
action rw() {
  add(${f}, ${f}, hdr.c);
}
malleable table t {
  actions { rw; }
  size : 2;
}
control ingress { apply(t); }
`
	plan := compile(t, src)
	spec := plan.MblTables["t"].ActionSpec["rw"]
	if len(spec.Fields) != 1 {
		t.Fatalf("specialized over %v, want one field (coalesced)", spec.Fields)
	}
	if len(spec.Variants) != 2 {
		t.Fatalf("variants = %v, want 2 (|alts|, not |alts|^uses)", spec.Variants)
	}
	// Within a variant, both uses bind to the same alternative — no
	// mixed-reference torn action.
	v1 := plan.Prog.Actions[spec.VariantFor([]int{1})]
	alu := v1.Body[0].(p4.ALU)
	if alu.DstName != "hdr.b" || alu.A.Name != "hdr.b" {
		t.Fatalf("variant 1 mixes alternatives: dst=%s a=%s", alu.DstName, alu.A.Name)
	}
}

// TestControlFlowConditionLowering covers if/else lowering with plain
// fields, malleable values, and malleable fields (carrier path) in
// conditions.
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
	if ifStmt.Cond.Right.Name != "p4r_meta_.thresh" {
		t.Fatalf("threshold operand = %+v, want meta field", ifStmt.Cond.Right)
	}
	// The nested condition on the malleable field reads its carrier.
	nested, ok := ifStmt.Else[0].(p4.If)
	if !ok {
		t.Fatalf("else[0] = %T", ifStmt.Else[0])
	}
	if nested.Cond.Left.Name != "p4r_meta_.sel_val" {
		t.Fatalf("field condition operand = %+v, want carrier", nested.Cond.Left)
	}
	// The carrier's loader table was generated and applied.
	if plan.MblFields["sel"].LoaderTable == "" {
		t.Fatal("no carrier loader for condition use")
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
