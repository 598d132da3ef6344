// Package place implements the RMT resource-placement pass, the
// compiler's one stage allocator and resource model: after lowering,
// every table of the generated program is assigned to a physical match
// stage honoring match/action dependency order, and charged against the
// per-stage SRAM/TCAM/slot budgets of a target switch Profile; stateful
// registers are charged against the per-stage register file of the one
// stage that accesses them. Under the unbounded profile the pass still
// assigns stages and checks single-stage register access, but enforces
// no budget.
//
// Like the semantic analyzer the pass collects every violation instead
// of dying on the first: a table that does not fit is force-placed (in
// an overflow stage past the profile's last physical stage) so that the
// rest of the program still places and the report stays readable. Each
// violation is a positioned P-family diagnostic (internal/p4r/diag).
package place

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/p4"
	"repro/internal/p4r/diag"
)

// Pos is a source position for diagnostics, keyed by table or register
// name in Options.Pos. Zero means unknown (compiler-generated state).
type Pos struct {
	Line int
	Col  int
}

// Options tunes a placement run.
type Options struct {
	// Pos maps lowered table and register names to the source position
	// to attach to diagnostics about them.
	Pos map[string]Pos
}

// TablePlacement records where one table landed.
type TablePlacement struct {
	Name     string
	Pipeline string // "ingress" or "egress"
	// Stage is the assigned physical stage (1-based). Under a bounded
	// profile, stages greater than Profile.Stages are overflow: the
	// table did not fit.
	Stage int
	// MinStage is the earliest stage the dependency order allows.
	MinStage  int
	Footprint p4.TableFootprint
}

// StageUse aggregates what one physical stage holds.
type StageUse struct {
	Stage        int
	SRAMBits     int
	TCAMBits     int
	RegisterBits int
	Tables       []string
	Registers    []string
}

// Placement is the result of placing one program against a profile.
type Placement struct {
	Profile Profile
	// Stages is indexed by stage-1 and may extend past Profile.Stages
	// when the program overflows a bounded profile.
	Stages    []StageUse
	Tables    map[string]*TablePlacement
	Registers map[string]int // register name -> charged stage
	// IngressStages/EgressStages count the physical stages each
	// pipeline consumed (including overflow).
	IngressStages int
	EgressStages  int
	Diags         *diag.List
}

// Fits reports whether the program placed without violations.
func (pl *Placement) Fits() bool { return !pl.Diags.HasErrors() }

// Bits totals the memory the placement charges across all stages, the
// way RMT hardware bills it: register arrays count as SRAM.
func (pl *Placement) Bits() (sram, tcam int) {
	for _, su := range pl.Stages {
		sram += su.SRAMBits + su.RegisterBits
		tcam += su.TCAMBits
	}
	return sram, tcam
}

// overflow reports whether stage s lies past a bounded profile's last
// physical stage.
func (pl *Placement) overflow(s int) bool {
	return pl.Profile.bounded() && s > pl.Profile.Stages
}

// stage returns the StageUse for 1-based stage s, growing as needed.
func (pl *Placement) stage(s int) *StageUse {
	for len(pl.Stages) < s {
		pl.Stages = append(pl.Stages, StageUse{Stage: len(pl.Stages) + 1})
	}
	return &pl.Stages[s-1]
}

// Place assigns every table and register of prog to a stage under prof.
func Place(prog *p4.Program, prof Profile, opts Options) *Placement {
	pl := &Placement{
		Profile:   prof,
		Tables:    make(map[string]*TablePlacement),
		Registers: make(map[string]int),
		Diags:     &diag.List{},
	}
	ingEnd := pl.placePipeline(prog, "ingress", prog.Ingress, 1, opts)
	pl.IngressStages = ingEnd
	egrEnd := pl.placePipeline(prog, "egress", prog.Egress, ingEnd+1, opts)
	pl.EgressStages = egrEnd - ingEnd
	pl.placeRegisters(prog, opts)
	pl.Diags.Sort()
	return pl
}

// placePipeline places one pipeline's tables into stages [start..] and
// returns the last stage used (start-1 if the pipeline applies no
// tables). The budget window ends at prof.Stages regardless of start:
// ingress and egress share the physical stage count.
func (pl *Placement) placePipeline(prog *p4.Program, pipeline string, flow []p4.ControlStmt, start int, opts Options) int {
	order, deps := prog.TableDependencies(flow)
	last := start - 1
	for _, name := range order {
		t := prog.Tables[name]
		cap := t.Size
		if cap <= 0 {
			cap = 1 // unbounded tables still occupy at least one entry's worth
		}
		f := prog.FootprintOf(t, cap)
		min := start
		for _, d := range deps[name] {
			if dp := pl.Tables[d]; dp != nil && dp.Stage+1 > min {
				min = dp.Stage + 1
			}
		}
		stage := pl.fit(name, f, min, opts)
		tp := &TablePlacement{Name: name, Pipeline: pipeline, Stage: stage, MinStage: min, Footprint: f}
		pl.Tables[name] = tp
		su := pl.stage(stage)
		su.SRAMBits += f.SRAMBits
		su.TCAMBits += f.TCAMBits
		su.Tables = append(su.Tables, name)
		if stage > last {
			last = stage
		}
	}
	return last
}

// fit finds the first stage >= min with room for footprint f, emitting
// a diagnostic when that stage lies past the profile's last physical
// stage. The returned stage always accepts the table (overflow stages
// start empty), so placement continues for the rest of the program.
func (pl *Placement) fit(name string, f p4.TableFootprint, min int, opts Options) int {
	prof := pl.Profile
	if !prof.bounded() {
		return min
	}
	pos := opts.Pos[name]

	// A table bigger than an empty stage will never fit anywhere: flag
	// it once (P005) and pin it at its dependency-minimal stage so the
	// report shows the oversized stage rather than an infinite search.
	if f.SRAMBits > prof.StageSRAMBits || f.TCAMBits > prof.StageTCAMBits {
		kind, bits, budget := "SRAM", f.SRAMBits, prof.StageSRAMBits
		if f.TCAMBits > prof.StageTCAMBits {
			kind, bits, budget = "TCAM", f.TCAMBits, prof.StageTCAMBits
		}
		pl.Diags.Add(diag.Errorf(diag.PlaceOversized, pos.Line, pos.Col,
			"table %q needs %d %s bits for %d entries but a whole empty stage of %q has only %d",
			name, bits, kind, f.Capacity, prof.Name, budget).
			WithHint("split table %s or reduce its capacity", name))
		return min
	}

	blockedSlots, blockedTCAM := true, false
	for s := min; s <= prof.Stages; s++ {
		su := pl.stage(s)
		switch {
		case len(su.Tables) >= prof.StageTables:
			// slot-blocked; keep scanning
		case f.TCAMBits > 0 && su.TCAMBits+f.TCAMBits > prof.StageTCAMBits:
			blockedSlots, blockedTCAM = false, true
		case su.SRAMBits+f.SRAMBits > prof.StageSRAMBits:
			blockedSlots = false
		default:
			return s
		}
	}

	// No physical stage works: diagnose why, then spill into the first
	// overflow stage that the dependency order and prior spills allow.
	switch {
	case min > prof.Stages:
		pl.Diags.Add(diag.Errorf(diag.PlaceStages, pos.Line, pos.Col,
			"table %q needs stage %d but profile %q has only %d stages",
			name, min, prof.Name, prof.Stages).
			WithHint("shorten the dependency chain before %s or choose a larger -target profile", name))
	case blockedSlots:
		pl.Diags.Add(diag.Errorf(diag.PlaceSlots, pos.Line, pos.Col,
			"table %q: no free table slot in stages %d..%d (profile %q allows %d tables per stage)",
			name, min, prof.Stages, prof.Name, prof.StageTables).
			WithHint("merge tables or choose a -target profile with more table slots"))
	case blockedTCAM:
		pl.Diags.Add(diag.Errorf(diag.PlaceTCAM, pos.Line, pos.Col,
			"table %q needs %d TCAM bits but no stage in %d..%d of profile %q has that much free",
			name, f.TCAMBits, min, prof.Stages, prof.Name).
			WithHint("split table %s or reduce its capacity", name))
	default:
		pl.Diags.Add(diag.Errorf(diag.PlaceSRAM, pos.Line, pos.Col,
			"table %q needs %d SRAM bits but no stage in %d..%d of profile %q has that much free",
			name, f.SRAMBits, min, prof.Stages, prof.Name).
			WithHint("split table %s or reduce its capacity", name))
	}

	s := prof.Stages + 1
	if min > s {
		s = min
	}
	for {
		su := pl.stage(s)
		if len(su.Tables) < prof.StageTables &&
			su.SRAMBits+f.SRAMBits <= prof.StageSRAMBits &&
			(f.TCAMBits == 0 || su.TCAMBits+f.TCAMBits <= prof.StageTCAMBits) {
			return s
		}
		s++
	}
}

// placeRegisters charges every register array against the register file
// of the stage holding the first table that accesses it. Registers are
// bound to a single stage on RMT hardware (the paper's §2), so a
// register whose accessing tables sit in more than one stage is a P008
// error under every profile. Registers no table touches are charged to
// stage 1 — they still occupy SRAM somewhere.
func (pl *Placement) placeRegisters(prog *p4.Program, opts Options) {
	accessors := prog.RegisterAccessors()
	for _, name := range prog.RegisterOrder {
		reg := prog.Registers[name]
		pos := opts.Pos[name]
		stage, split := 0, false
		var where []string
		for _, tbl := range accessors[name] {
			tp := pl.Tables[tbl]
			if tp == nil {
				continue // declared but never applied
			}
			if stage == 0 {
				stage = tp.Stage
			}
			split = split || tp.Stage != stage
			where = append(where, fmt.Sprintf("%s (stage %d)", tbl, tp.Stage))
		}
		if split {
			pl.Diags.Add(diag.Errorf(diag.PlaceRegStages, pos.Line, pos.Col,
				"register %q is reached from more than one stage: %s", name, strings.Join(where, ", ")).
				WithHint("RMT binds a register to one stage: access %s from tables that share a stage", name))
		}
		if stage == 0 {
			stage = 1
		}
		su := pl.stage(stage)
		before := su.RegisterBits
		su.RegisterBits += reg.Bits()
		su.Registers = append(su.Registers, name)
		pl.Registers[name] = stage
		if pl.Profile.bounded() && before <= pl.Profile.StageRegisterBits && su.RegisterBits > pl.Profile.StageRegisterBits {
			pl.Diags.Add(diag.Errorf(diag.PlaceRegFile, pos.Line, pos.Col,
				"register %q (%d bits) overflows the stage %d register file: %d of %d bits used",
				name, reg.Bits(), stage, su.RegisterBits, pl.Profile.StageRegisterBits).
				WithHint("reduce the width or instance count of %s, or spread accessing tables across stages", name))
		}
	}
}

// overBudgetStages lists physical-stage numbers the placement overflowed
// past, for the report footer.
func (pl *Placement) overBudgetStages() []int {
	var out []int
	for _, su := range pl.Stages {
		if pl.overflow(su.Stage) && (len(su.Tables) > 0 || len(su.Registers) > 0) {
			out = append(out, su.Stage)
		}
	}
	sort.Ints(out)
	return out
}

// util renders one stage's use of a budget: an integer percentage under
// a bounded profile (budget 0 with use renders as "inf"), the size in
// Kbit under the unbounded one.
func (pl *Placement) util(used, budget int) string {
	switch {
	case !pl.Profile.bounded():
		return fmt.Sprintf("%dKb", (used+1023)/1024)
	case budget <= 0 && used == 0:
		return "0%"
	case budget <= 0:
		return "inf"
	}
	return fmt.Sprintf("%d%%", (used*100+budget-1)/budget)
}
