package place

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/p4"
	"repro/internal/p4r/diag"
)

// mini pulls the tight test profile out of the registry.
func mini(t *testing.T) Profile {
	t.Helper()
	p, derr := Find(MiniTarget)
	if derr != nil {
		t.Fatalf("mini profile: %v", derr)
	}
	return p
}

// unbounded resolves the profile an empty target selects.
func unbounded(t *testing.T) Profile {
	t.Helper()
	p, derr := Find("")
	if derr != nil || p.bounded() {
		t.Fatalf("unbounded profile: %+v, %v", p, derr)
	}
	return p
}

// routerProg is a forwarding table (LPM on the destination, a 16-bit
// port parameter, 1024 entries) beside a counting table that adds the
// packet length to a 64 x 64-bit register: two independent tables.
func routerProg() *p4.Program {
	prog := p4.NewProgram("router")
	prog.DefineStandardMetadata()
	dst := prog.Schema.Define("ipv4.dstAddr", 32)
	egr := prog.Schema.MustID(p4.FieldEgressSpec)
	inp := prog.Schema.MustID(p4.FieldIngressPort)
	plen := prog.Schema.MustID(p4.FieldPacketLen)
	prog.AddRegister(&p4.Register{Name: "port_bytes", Width: 64, Instances: 64})
	prog.AddAction(&p4.Action{Name: "set_egress", Params: []p4.Param{{Name: "port", Width: 16}},
		Body: []p4.Primitive{p4.ModifyField{Dst: egr, DstName: p4.FieldEgressSpec, Src: p4.ParamOp(0, "port")}}})
	prog.AddAction(&p4.Action{Name: "count_bytes", Body: []p4.Primitive{p4.RegisterIncrement{
		Reg: "port_bytes", Index: p4.FieldOp(inp, p4.FieldIngressPort), By: p4.FieldOp(plen, p4.FieldPacketLen)}}})
	prog.AddTable(&p4.Table{Name: "forward",
		Keys:        []p4.MatchKey{{FieldName: "ipv4.dstAddr", Field: dst, Width: 32, Kind: p4.MatchLPM}},
		ActionNames: []string{"set_egress"}, Size: 1024})
	prog.AddTable(&p4.Table{Name: "counter_tbl", ActionNames: []string{"count_bytes"},
		DefaultAction: &p4.ActionCall{Action: "count_bytes"}, Size: 1})
	prog.Ingress = []p4.ControlStmt{p4.Apply{Table: "forward"}, p4.Apply{Table: "counter_tbl"}}
	return prog
}

// sharedRegProg: t1 writes m.a and bumps register shared; t2 bumps
// shared too. In one pipeline t2 matches m.a, so it lands a stage after
// t1. With egress set, t2 is an independent egress table instead: the
// first stage of its pipeline, which is the stage after ingress's.
func sharedRegProg(egress bool) *p4.Program {
	prog := p4.NewProgram("shared")
	prog.DefineStandardMetadata()
	a := prog.Schema.Define("m.a", 32)
	prog.AddRegister(&p4.Register{Name: "shared", Width: 32, Instances: 4})
	prog.AddAction(&p4.Action{Name: "w1", Body: []p4.Primitive{
		p4.ModifyField{Dst: a, DstName: "m.a", Src: p4.ConstOp(1)},
		p4.RegisterIncrement{Reg: "shared", Index: p4.ConstOp(0), By: p4.ConstOp(1)},
	}})
	prog.AddAction(&p4.Action{Name: "w2", Body: []p4.Primitive{
		p4.RegisterIncrement{Reg: "shared", Index: p4.ConstOp(1), By: p4.ConstOp(1)},
	}})
	prog.AddTable(&p4.Table{Name: "t1", ActionNames: []string{"w1"}, DefaultAction: &p4.ActionCall{Action: "w1"}, Size: 1})
	t2 := &p4.Table{Name: "t2", ActionNames: []string{"w2"}, DefaultAction: &p4.ActionCall{Action: "w2"}, Size: 4}
	prog.Ingress = []p4.ControlStmt{p4.Apply{Table: "t1"}}
	if egress {
		prog.Egress = []p4.ControlStmt{p4.Apply{Table: "t2"}}
	} else {
		t2.Keys = []p4.MatchKey{{FieldName: "m.a", Field: a, Width: 32, Kind: p4.MatchExact}}
		prog.Ingress = append(prog.Ingress, p4.Apply{Table: "t2"})
	}
	prog.AddTable(t2)
	return prog
}

// buildProg constructs a program where table i exact-matches field fi
// and runs an action writing field f(i+1) — a pure dependency chain.
// width/size tune the footprint; ternary switches the keys to TCAM.
func chainProg(n, width, size int, ternary bool) *p4.Program {
	prog := p4.NewProgram("test")
	for i := 0; i <= n; i++ {
		prog.Schema.Define(field(i), width)
	}
	kind := p4.MatchExact
	if ternary {
		kind = p4.MatchTernary
	}
	for i := 0; i < n; i++ {
		an := "a" + field(i)
		dst := prog.Schema.MustID(field(i + 1))
		prog.AddAction(&p4.Action{Name: an, Body: []p4.Primitive{
			p4.ModifyField{Dst: dst, DstName: field(i + 1), Src: p4.ConstOp(1)},
		}})
		tn := "t" + field(i)
		id := prog.Schema.MustID(field(i))
		prog.AddTable(&p4.Table{
			Name:        tn,
			Keys:        []p4.MatchKey{{FieldName: field(i), Field: id, Width: width, Kind: kind}},
			ActionNames: []string{an},
			Size:        size,
		})
		prog.Ingress = append(prog.Ingress, p4.Apply{Table: tn})
	}
	return prog
}

// independentProg builds n tables that all match field f0 and write
// nothing — mutually independent, so any stage works for each.
func independentProg(n, width, size int, ternary bool) *p4.Program {
	prog := p4.NewProgram("test")
	prog.Schema.Define(field(0), width)
	kind := p4.MatchExact
	if ternary {
		kind = p4.MatchTernary
	}
	prog.AddAction(&p4.Action{Name: "nop", Body: []p4.Primitive{p4.NoOp{}}})
	id := prog.Schema.MustID(field(0))
	for i := 0; i < n; i++ {
		tn := "t" + field(i)
		prog.AddTable(&p4.Table{
			Name:        tn,
			Keys:        []p4.MatchKey{{FieldName: field(0), Field: id, Width: width, Kind: kind}},
			ActionNames: []string{"nop"},
			Size:        size,
		})
		prog.Ingress = append(prog.Ingress, p4.Apply{Table: tn})
	}
	return prog
}

func field(i int) string { return "f" + string(rune('A'+i)) }

func codes(pl *Placement) []string {
	var out []string
	for _, d := range pl.Diags.Diags {
		out = append(out, d.Code)
	}
	return out
}

func hasCode(pl *Placement, code string) bool {
	for _, d := range pl.Diags.Diags {
		if d.Code == code {
			return true
		}
	}
	return false
}

func TestChainWithinStagesFits(t *testing.T) {
	for _, prof := range []Profile{mini(t), unbounded(t)} {
		pl := Place(chainProg(4, 16, 8, false), prof, Options{})
		if !pl.Fits() {
			t.Fatalf("%s: 4-chain should fit 4 stages: %v", prof.Name, pl.Diags)
		}
		if pl.IngressStages != 4 {
			t.Fatalf("%s: IngressStages = %d, want 4", prof.Name, pl.IngressStages)
		}
		for i := 0; i < 4; i++ {
			tp := pl.Tables["t"+field(i)]
			if tp.Stage != i+1 {
				t.Errorf("%s: t%s at stage %d, want %d", prof.Name, field(i), tp.Stage, i+1)
			}
		}
	}
}

// TestIndependentTablesShareStage: forward writes egress_spec and
// counter_tbl reads only ingress_port and packet_length, so both sit in
// stage 1, with or without budgets.
func TestIndependentTablesShareStage(t *testing.T) {
	generic, derr := Find(DefaultTarget)
	if derr != nil {
		t.Fatal(derr)
	}
	for _, prof := range []Profile{generic, unbounded(t)} {
		pl := Place(routerProg(), prof, Options{})
		if !pl.Fits() || pl.IngressStages != 1 || pl.EgressStages != 0 {
			t.Fatalf("%s: %d+%d stages, fits=%v, want 1+0: %v",
				prof.Name, pl.IngressStages, pl.EgressStages, pl.Fits(), pl.Diags)
		}
		for _, name := range []string{"forward", "counter_tbl"} {
			if st := pl.Tables[name].Stage; st != 1 {
				t.Errorf("%s: %s at stage %d, want 1", prof.Name, name, st)
			}
		}
	}
}

// TestBitsCountRegistersAsSRAM: the placement's totals are the
// program's resource numbers. TCAM holds forward's key (value+mask);
// SRAM holds its action data and the register array.
func TestBitsCountRegistersAsSRAM(t *testing.T) {
	sram, tcam := Place(routerProg(), unbounded(t), Options{}).Bits()
	if tcam != 2*32*1024 {
		t.Errorf("TCAM = %d bits, want %d", tcam, 2*32*1024)
	}
	if sram != 16*1024+64*64 {
		t.Errorf("SRAM = %d bits, want %d", sram, 16*1024+64*64)
	}
}

// TestUnboundedEnforcesNoBudget: tables far past any stage's memory,
// more of them than any profile has slots, all place at the stage their
// dependencies allow, with no diagnostic.
func TestUnboundedEnforcesNoBudget(t *testing.T) {
	pl := Place(independentProg(25, 64, 1<<30, true), unbounded(t), Options{})
	if !pl.Fits() || pl.Diags.Len() != 0 {
		t.Fatalf("unbounded placement reported: %v", pl.Diags)
	}
	if pl.IngressStages != 1 || len(pl.Stages) != 1 || len(pl.Stages[0].Tables) != 25 {
		t.Fatalf("want all 25 tables in stage 1, got %d stages", len(pl.Stages))
	}
	rep := pl.Report()
	for _, want := range []string{"profile none (unbounded", "FITS", "= 1\n", "Kb"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	if strings.Contains(rep, "!") || strings.Contains(rep, "overflow") {
		t.Errorf("unbounded report shows overflow:\n%s", rep)
	}
}

func TestDependencyChainTooLong(t *testing.T) {
	pl := Place(chainProg(6, 16, 8, false), mini(t), Options{Pos: map[string]Pos{
		"t" + field(4): {Line: 40, Col: 3},
	}})
	if pl.Fits() {
		t.Fatalf("6-chain must not fit 4 stages")
	}
	if !hasCode(pl, diag.PlaceStages) {
		t.Fatalf("want %s, got %v", diag.PlaceStages, codes(pl))
	}
	var positioned *diag.Diagnostic
	for _, d := range pl.Diags.Diags {
		if d.Code == diag.PlaceStages && d.Line == 40 && d.Col == 3 {
			positioned = d
		}
	}
	if positioned == nil {
		t.Errorf("no %s diagnostic at 40:3: %v", diag.PlaceStages, pl.Diags)
	} else if positioned.Hint == "" {
		t.Errorf("placement diagnostic must carry a hint")
	}
	// Placement continues past the failure: every table has a stage.
	if len(pl.Tables) != 6 {
		t.Errorf("placed %d tables, want all 6", len(pl.Tables))
	}
	if tp := pl.Tables["t"+field(5)]; tp.Stage <= mini(t).Stages {
		t.Errorf("overflowed table charged to physical stage %d", tp.Stage)
	}
}

func TestSRAMBudgetExhausted(t *testing.T) {
	// Each table is ~40 Kb (2500 entries x 16 b key): fits an empty mini
	// stage (64 Kb) alone, but no two share one. The 5th finds no stage.
	pl := Place(independentProg(5, 16, 2500, false), mini(t), Options{})
	if pl.Fits() {
		t.Fatalf("five 40Kb tables must not fit four 64Kb stages")
	}
	if !hasCode(pl, diag.PlaceSRAM) {
		t.Fatalf("want %s, got %v", diag.PlaceSRAM, codes(pl))
	}
}

func TestTCAMBudgetExhausted(t *testing.T) {
	// Ternary doubles key bits: 16 b x 2 x 300 entries = 9600 TCAM bits;
	// one per mini stage (16 Kb), the fifth overflows.
	pl := Place(independentProg(5, 16, 300, true), mini(t), Options{})
	if pl.Fits() {
		t.Fatalf("five 9.6Kb TCAM tables must not fit four 16Kb stages")
	}
	if !hasCode(pl, diag.PlaceTCAM) {
		t.Fatalf("want %s, got %v", diag.PlaceTCAM, codes(pl))
	}
}

func TestOversizedTable(t *testing.T) {
	pl := Place(independentProg(1, 64, 4096, false), mini(t), Options{})
	if !hasCode(pl, diag.PlaceOversized) {
		t.Fatalf("want %s, got %v", diag.PlaceOversized, codes(pl))
	}
}

func TestTableSlotsExhausted(t *testing.T) {
	// mini: 4 stages x 6 slots = 24 tiny tables; the 25th has no slot.
	pl := Place(independentProg(25, 8, 2, false), mini(t), Options{})
	if pl.Fits() {
		t.Fatalf("25 tables must not fit 24 slots")
	}
	if !hasCode(pl, diag.PlaceSlots) {
		t.Fatalf("want %s, got %v", diag.PlaceSlots, codes(pl))
	}
}

func TestRegisterFileOverflow(t *testing.T) {
	prog := chainProg(1, 16, 8, false)
	prog.AddRegister(&p4.Register{Name: "big", Width: 64, Instances: 600}) // 38400 b > 32768
	prog.Actions["a"+field(0)].Body = append(prog.Actions["a"+field(0)].Body,
		p4.RegisterIncrement{Reg: "big", Index: p4.ConstOp(0), By: p4.ConstOp(1)})
	pl := Place(prog, mini(t), Options{Pos: map[string]Pos{"big": {Line: 7, Col: 1}}})
	if pl.Fits() {
		t.Fatalf("38400-bit register must overflow the 32768-bit stage register file")
	}
	if !hasCode(pl, diag.PlaceRegFile) {
		t.Fatalf("want %s, got %v", diag.PlaceRegFile, codes(pl))
	}
	if st, ok := pl.Registers["big"]; !ok || st != pl.Tables["t"+field(0)].Stage {
		t.Errorf("register charged to stage %d, want the accessing table's stage %d",
			st, pl.Tables["t"+field(0)].Stage)
	}
}

// TestRegisterReachedFromTwoStages: RMT binds a register to one stage,
// so a register whose accessing tables land in two stages is one
// positioned P008 under every profile, naming each table's stage.
func TestRegisterReachedFromTwoStages(t *testing.T) {
	for _, prof := range []Profile{unbounded(t), mini(t)} {
		pl := Place(sharedRegProg(false), prof, Options{Pos: map[string]Pos{"shared": {Line: 3, Col: 1}}})
		if pl.Fits() || pl.Diags.Len() != 1 {
			t.Fatalf("%s: want one P008, got %v", prof.Name, pl.Diags)
		}
		d := pl.Diags.Diags[0]
		if d.Code != diag.PlaceRegStages || d.Line != 3 || d.Col != 1 || d.Hint == "" {
			t.Fatalf("%s: got %v, want a positioned %s with a hint", prof.Name, d, diag.PlaceRegStages)
		}
		for _, want := range []string{`"shared"`, "t1 (stage 1)", "t2 (stage 2)"} {
			if !strings.Contains(d.Msg, want) {
				t.Errorf("%s: %q does not name %s", prof.Name, d.Msg, want)
			}
		}
	}
}

// TestRegisterSharedAcrossPipelines: an ingress table and an egress
// table each sit in their pipeline's first stage, which are stages 1
// and 2 of the physical pipeline, so sharing a register is a P008 too.
func TestRegisterSharedAcrossPipelines(t *testing.T) {
	pl := Place(sharedRegProg(true), unbounded(t), Options{})
	if tp := pl.Tables["t2"]; tp.Pipeline != "egress" || tp.Stage != 2 {
		t.Fatalf("t2 at %s stage %d, want egress stage 2", tp.Pipeline, tp.Stage)
	}
	if !hasCode(pl, diag.PlaceRegStages) {
		t.Fatalf("want %s, got %v", diag.PlaceRegStages, codes(pl))
	}
}

// TestRegisterInOneStageIsClean: one accessing table, one stage.
func TestRegisterInOneStageIsClean(t *testing.T) {
	pl := Place(routerProg(), unbounded(t), Options{})
	if pl.Diags.Len() != 0 {
		t.Fatalf("unexpected findings: %v", pl.Diags)
	}
	if st := pl.Registers["port_bytes"]; st != pl.Tables["counter_tbl"].Stage {
		t.Errorf("port_bytes at stage %d, want counter_tbl's %d", st, pl.Tables["counter_tbl"].Stage)
	}
}

func TestUnreferencedRegisterChargedToStageOne(t *testing.T) {
	prog := chainProg(1, 16, 8, false)
	prog.AddRegister(&p4.Register{Name: "idle", Width: 32, Instances: 4})
	pl := Place(prog, mini(t), Options{})
	if st := pl.Registers["idle"]; st != 1 {
		t.Errorf("idle register at stage %d, want 1", st)
	}
}

func TestEgressPlacedAfterIngress(t *testing.T) {
	prog := chainProg(2, 16, 8, false)
	prog.Schema.Define("eg", 16)
	prog.AddAction(&p4.Action{Name: "enop", Body: []p4.Primitive{p4.NoOp{}}})
	id := prog.Schema.MustID("eg")
	prog.AddTable(&p4.Table{
		Name:        "etbl",
		Keys:        []p4.MatchKey{{FieldName: "eg", Field: id, Width: 16, Kind: p4.MatchExact}},
		ActionNames: []string{"enop"},
		Size:        4,
	})
	prog.Egress = []p4.ControlStmt{p4.Apply{Table: "etbl"}}
	pl := Place(prog, mini(t), Options{})
	if !pl.Fits() {
		t.Fatalf("placement: %v", pl.Diags)
	}
	if pl.IngressStages != 2 || pl.EgressStages != 1 {
		t.Fatalf("stages = %d ingress + %d egress, want 2+1", pl.IngressStages, pl.EgressStages)
	}
	if tp := pl.Tables["etbl"]; tp.Stage != 3 || tp.Pipeline != "egress" {
		t.Fatalf("etbl at %s stage %d, want egress stage 3", tp.Pipeline, tp.Stage)
	}
}

func TestFindUnknownProfile(t *testing.T) {
	_, derr := Find("no-such-switch")
	if derr == nil || derr.Code != diag.PlaceProfile {
		t.Fatalf("want %s, got %v", diag.PlaceProfile, derr)
	}
	if !strings.Contains(derr.Hint, "generic-16stage") {
		t.Errorf("hint should list built-in profiles: %q", derr.Hint)
	}
}

func TestLoadProfileFile(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "lab.json")
	if err := os.WriteFile(good, []byte(`{"name":"lab","stages":8,"stage_sram_bits":524288,"stage_tcam_bits":65536,"stage_register_bits":262144,"stage_tables":8}`), 0o644); err != nil {
		t.Fatal(err)
	}
	p, derr := Find(good)
	if derr != nil {
		t.Fatalf("load: %v", derr)
	}
	if p.Name != "lab" || p.Stages != 8 {
		t.Fatalf("loaded %+v", p)
	}

	for name, body := range map[string]string{
		"bad-json.json":   `{"stages": `,
		"bad-budget.json": `{"name":"x","stages":0,"stage_sram_bits":1,"stage_tables":1}`,
		"bad-field.json":  `{"name":"x","stages":4,"stage_sram_bits":1,"stage_tables":1,"sram":9}`,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, derr := Find(path); derr == nil || derr.Code != diag.PlaceProfile {
			t.Errorf("%s: want %s, got %v", name, diag.PlaceProfile, derr)
		}
	}
	if _, derr := Find(filepath.Join(dir, "missing.json")); derr == nil {
		t.Errorf("missing file must fail")
	}
}

func TestReportShowsUtilization(t *testing.T) {
	pl := Place(chainProg(2, 16, 100, false), mini(t), Options{})
	rep := pl.Report()
	for _, want := range []string{"FITS", "stage", "ingress", "%"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	if len(names) < 3 {
		t.Fatalf("want >=3 built-ins, got %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}
