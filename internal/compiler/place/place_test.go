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
	pl := Place(chainProg(4, 16, 8, false), mini(t), Options{})
	if !pl.Fits() {
		t.Fatalf("4-chain should fit 4 stages: %v", pl.Diags)
	}
	if pl.IngressStages != 4 {
		t.Fatalf("IngressStages = %d, want 4", pl.IngressStages)
	}
	for i := 0; i < 4; i++ {
		tp := pl.Tables["t"+field(i)]
		if tp.Stage != i+1 {
			t.Errorf("t%s at stage %d, want %d", field(i), tp.Stage, i+1)
		}
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
