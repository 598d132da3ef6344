package p4r

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/p4r/diag"
	"repro/internal/rcl"
)

// fig1Source is essentially the example program from Figure 1 of the
// paper, completed with the declarations it references.
const fig1Source = `
header_type foo_t {
  fields {
    foo : 32;
    bar : 32;
    baz : 32;
    qux : 16;
  }
}
header foo_t hdr;

register qdepths {
  width : 32;
  instance_count : 16;
}

malleable value value_var { width : 16; init : 1; }
malleable field field_var {
  width : 32; init : hdr.foo;
  alts {hdr.foo, hdr.bar}
}
malleable table table_var {
  reads { ${field_var} : exact; }
  actions { my_action; my_drop; }
  size : 64;
}
action my_action() {
  add(${field_var}, hdr.baz, ${value_var});
}
action my_drop() {
  drop();
}
reaction my_reaction(reg qdepths[1:10]) {
  uint16_t current_max = 0;
  uint16_t max_port = 0;
  for (int i = 1; i <= 10; ++i) {
    if (qdepths[i] > current_max) {
      current_max = qdepths[i]; max_port = i;
    }
  }
  ${value_var} = max_port;
}
control ingress {
  apply(table_var);
}
`

func TestParseFig1(t *testing.T) {
	f, err := Parse(fig1Source)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(f.HeaderTypes) != 1 || f.HeaderTypes[0].Name != "foo_t" {
		t.Fatalf("header types: %+v", f.HeaderTypes)
	}
	if len(f.HeaderTypes[0].Fields) != 4 {
		t.Fatalf("fields: %+v", f.HeaderTypes[0].Fields)
	}
	if len(f.Instances) != 1 || f.Instances[0].Name != "hdr" || f.Instances[0].Metadata {
		t.Fatalf("instances: %+v", f.Instances[0])
	}
	if len(f.Registers) != 1 || f.Registers[0].InstanceCount != 16 {
		t.Fatalf("registers: %+v", f.Registers)
	}

	if len(f.MblValues) != 1 {
		t.Fatalf("malleable values: %+v", f.MblValues)
	}
	mv := f.MblValues[0]
	if mv.Name != "value_var" || mv.Width != 16 || mv.Init != 1 {
		t.Fatalf("value_var = %+v", mv)
	}

	if len(f.MblFields) != 1 {
		t.Fatalf("malleable fields: %+v", f.MblFields)
	}
	mf := f.MblFields[0]
	if mf.Name != "field_var" || mf.Width != 32 || mf.Init != "hdr.foo" {
		t.Fatalf("field_var = %+v", mf)
	}
	if len(mf.Alts) != 2 || mf.Alts[0] != "hdr.foo" || mf.Alts[1] != "hdr.bar" {
		t.Fatalf("alts = %v", mf.Alts)
	}
	if mf.InitAltIndex() != 0 {
		t.Fatalf("InitAltIndex = %d", mf.InitAltIndex())
	}

	if len(f.Tables) != 1 {
		t.Fatalf("tables: %+v", f.Tables)
	}
	tbl := f.Tables[0]
	if !tbl.Malleable || tbl.Name != "table_var" || tbl.Size != 64 {
		t.Fatalf("table_var = %+v", tbl)
	}
	if len(tbl.Reads) != 1 || tbl.Reads[0].Target.Kind != ArgMblRef || tbl.Reads[0].Target.Mbl != "field_var" {
		t.Fatalf("reads = %+v", tbl.Reads)
	}
	if tbl.Reads[0].MatchType != "exact" {
		t.Fatalf("match type = %s", tbl.Reads[0].MatchType)
	}

	if len(f.Actions) != 2 {
		t.Fatalf("actions: %d", len(f.Actions))
	}
	act := f.Actions[0]
	if act.Name != "my_action" || len(act.Body) != 1 {
		t.Fatalf("my_action = %+v", act)
	}
	call := act.Body[0]
	if call.Name != "add" || len(call.Args) != 3 {
		t.Fatalf("call = %+v", call)
	}
	if call.Args[0].Kind != ArgMblRef || call.Args[0].Mbl != "field_var" {
		t.Fatalf("arg0 = %+v", call.Args[0])
	}
	if call.Args[1].Kind != ArgIdent || call.Args[1].Ident != "hdr.baz" {
		t.Fatalf("arg1 = %+v", call.Args[1])
	}
	if call.Args[2].Kind != ArgMblRef || call.Args[2].Mbl != "value_var" {
		t.Fatalf("arg2 = %+v", call.Args[2])
	}

	if len(f.Reactions) != 1 {
		t.Fatalf("reactions: %d", len(f.Reactions))
	}
	r := f.Reactions[0]
	if r.Name != "my_reaction" || len(r.Params) != 1 {
		t.Fatalf("reaction = %+v", r)
	}
	rp := r.Params[0]
	if rp.Kind != ParamReg || rp.Target != "qdepths" || rp.Lo != 1 || rp.Hi != 10 {
		t.Fatalf("reaction param = %+v", rp)
	}
	if !strings.Contains(r.Body, "${value_var} = max_port;") {
		t.Fatalf("body not captured:\n%s", r.Body)
	}
	if !strings.Contains(r.Body, "for (int i = 1; i <= 10; ++i)") {
		t.Fatalf("nested body lost:\n%s", r.Body)
	}

	if len(f.Ingress) != 1 {
		t.Fatalf("ingress: %+v", f.Ingress)
	}
	if ap, ok := f.Ingress[0].(ApplyStmt); !ok || ap.Table != "table_var" {
		t.Fatalf("ingress[0] = %+v", f.Ingress[0])
	}
}

func TestParseControlIf(t *testing.T) {
	src := `
action nop() { no_op(); }
table t { actions { nop; } }
table t2 { actions { nop; } }
control ingress {
  if (hdr.x == 5) {
    apply(t);
  } else {
    apply(t2);
  }
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ifst, ok := f.Ingress[0].(IfStmt)
	if !ok {
		t.Fatalf("ingress[0] = %T", f.Ingress[0])
	}
	if ifst.Cond.Left.Ident != "hdr.x" || ifst.Cond.Op != "==" || ifst.Cond.Right.Value != 5 {
		t.Fatalf("cond = %+v", ifst.Cond)
	}
	if len(ifst.Then) != 1 || len(ifst.Else) != 1 {
		t.Fatalf("branches: then=%d else=%d", len(ifst.Then), len(ifst.Else))
	}
}

func TestParseFieldListAndCalc(t *testing.T) {
	src := `
field_list ecmp_fields {
  ipv4.srcAddr;
  ipv4.dstAddr;
  ${src_sel};
}
field_list_calculation ecmp_hash {
  input { ecmp_fields; }
  algorithm : crc16;
  output_width : 14;
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.FieldLists) != 1 || len(f.FieldLists[0].Entries) != 3 {
		t.Fatalf("field lists: %+v", f.FieldLists)
	}
	if f.FieldLists[0].Entries[2].Kind != ArgMblRef {
		t.Fatal("malleable ref in field list not parsed")
	}
	c := f.Calcs[0]
	if c.Input != "ecmp_fields" || c.Algorithm != "crc16" || c.OutputWidth != 14 {
		t.Fatalf("calc = %+v", c)
	}
}

func TestParseReactionIngEgrParams(t *testing.T) {
	src := `
reaction r(ing ipv4.srcAddr, egr standard_metadata.enq_qdepth, ing ${fv}, reg ctr) {
  // body
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ps := f.Reactions[0].Params
	if len(ps) != 4 {
		t.Fatalf("params: %+v", ps)
	}
	if ps[0].Kind != ParamIng || ps[0].Target != "ipv4.srcAddr" || ps[0].IsMbl {
		t.Fatalf("p0 = %+v", ps[0])
	}
	if ps[1].Kind != ParamEgr || ps[1].Target != "standard_metadata.enq_qdepth" {
		t.Fatalf("p1 = %+v", ps[1])
	}
	if ps[2].Kind != ParamIng || !ps[2].IsMbl || ps[2].Target != "fv" {
		t.Fatalf("p2 = %+v", ps[2])
	}
	if ps[3].Kind != ParamReg || ps[3].Lo != 0 || ps[3].Hi != -1 {
		t.Fatalf("p3 = %+v (want full-array sentinel)", ps[3])
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"stray":                  `bogus`,
		"missing width":          `malleable value v { init : 3; }`,
		"no alts":                `malleable field f { width : 8; init : a.b; }`,
		"init not in alts":       `malleable field f { width : 8; init : a.c; alts { a.b }; }`,
		"bad malleable kind":     `malleable widget w { }`,
		"const read key":         `table t { reads { 5 : exact; } actions { a; } }`,
		"bad match type":         `table t { reads { a.b : fuzzy; } actions { a; } }`,
		"bad reaction param":     `reaction r(bogus a.b) { }`,
		"inverted reg slice":     `reaction r(reg q[5:2]) { }`,
		"unterminated reaction":  `reaction r() { if (x) {`,
		"unterminated comment":   `/* nope`,
		"empty mbl ref":          `action a() { add(${}, x, y); }`,
		"unterminated mbl ref":   `action a() { add(${foo, x, y); }`,
		"control neither":        `control sideways { }`,
		"register missing width": `register r { instance_count : 4; }`,
		"bad stmt":               `control ingress { jump(t); }`,
		"bad cmp op":             `control ingress { if (a.b = 4) { } }`,
		"reaction param const":   `reaction r(ing 5) { }`,
		"unknown table attr":     `table t { flavor : 3; }`,
		"unknown register attr":  `register r { depth : 3; }`,
		"unknown mbl value attr": `malleable value v { width : 8; color : 1; }`,
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: expected parse error for %q", name, src)
		}
	}
}

func TestReactionBodyNestedBraces(t *testing.T) {
	src := `reaction r() { while (1) { if (2) { x = 3; } } done = 1; }`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	body := f.Reactions[0].Body
	if !strings.Contains(body, "x = 3;") || !strings.Contains(body, "done = 1;") {
		t.Fatalf("body = %q", body)
	}
	if strings.Count(body, "{") != 2 || strings.Count(body, "}") != 2 {
		t.Fatalf("brace balance wrong in %q", body)
	}
}

func TestDefaultActionWithArgs(t *testing.T) {
	src := `
action fwd(port) { modify_field(standard_metadata.egress_spec, port); }
table t {
  actions { fwd; }
  default_action : fwd(7);
  size : 8;
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d := f.Tables[0].Default
	if d == nil || d.Action != "fwd" || len(d.Args) != 1 || d.Args[0] != 7 {
		t.Fatalf("default = %+v", d)
	}
}

func TestParseMaskedRead(t *testing.T) {
	src := `
action nop() { no_op(); }
table t {
  reads {
    hdr.x mask 0xFF00 : ternary;
    ${fv} mask 0x0F : exact;
    hdr.y : exact;
  }
  actions { nop; }
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	reads := f.Tables[0].Reads
	if !reads[0].HasMask || reads[0].Mask != 0xFF00 {
		t.Fatalf("read0 = %+v", reads[0])
	}
	if !reads[1].HasMask || reads[1].Mask != 0x0F || reads[1].Target.Kind != ArgMblRef {
		t.Fatalf("read1 = %+v", reads[1])
	}
	if reads[2].HasMask {
		t.Fatalf("read2 unexpectedly masked: %+v", reads[2])
	}
}

// TestLiteralRulesAgree: a P4R file has one lexer, so a literal means
// the same in the P4 part and in a reaction body: the same value, or the
// same lexical error, positions and the body's "reaction r: " prefix
// aside. A body's value is the int64 of the literal's 64 bits.
func TestLiteralRulesAgree(t *testing.T) {
	cases := []struct {
		lit  string
		want uint64 // when err is empty
		err  string // code and message
	}{
		{lit: "010", err: `S006 bad number "010": leading zero`},
		{lit: "09", err: `S006 bad number "09": leading zero`},
		{lit: "0x", err: `S006 bad number "0x"`},
		{lit: "0x1F", want: 31},
		{lit: "18446744073709551615", want: 1<<64 - 1},
		{lit: "${}", err: "S006 malformed malleable reference"},
		{lit: "${v", err: "S006 malformed malleable reference"},
		{lit: "@", err: `S006 unexpected character "@"`},
		{lit: "/* open", err: "S006 unterminated comment"},
	}
	describe := func(err error) string {
		var d *diag.Diagnostic
		if !errors.As(err, &d) {
			return "not a diagnostic: " + err.Error()
		}
		return d.Code + " " + strings.TrimPrefix(d.Msg, "reaction r: ")
	}
	for _, c := range cases {
		p4, p4Err := Parse("malleable value v { width : 64; init : " + c.lit + "; }")
		body, bodyErr := Parse("reaction r() { x = " + c.lit + "; }")
		if c.err != "" {
			if p4Err == nil || bodyErr == nil {
				t.Errorf("%s: P4 part %v, body %v; want %s in both", c.lit, p4Err, bodyErr, c.err)
				continue
			}
			if got, inBody := describe(p4Err), describe(bodyErr); got != c.err || inBody != c.err {
				t.Errorf("%s: P4 part %q, body %q; want %q", c.lit, got, inBody, c.err)
			}
			continue
		}
		if p4Err != nil || bodyErr != nil {
			t.Errorf("%s: P4 part %v, body %v", c.lit, p4Err, bodyErr)
			continue
		}
		v := body.Reactions[0].Stmts[0].(rcl.ExprStmt).E.(rcl.AssignExpr).Val.(rcl.NumLit).V
		if got := p4.MblValues[0].Init; got != c.want || v != int64(c.want) {
			t.Errorf("%s: P4 part %d, body %d; want %d", c.lit, got, v, c.want)
		}
	}
}
