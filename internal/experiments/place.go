package experiments

import (
	"fmt"

	"repro/internal/compiler"
	"repro/internal/compiler/place"
	"repro/internal/fabric"
	"repro/internal/p4r/diag"
	"repro/internal/report"
	"repro/internal/usecases"
)

// PlaceRow is one (program, profile) point of the placement sweep: does
// the program fit, how many stages does it consume, and how hot is the
// hottest stage for each resource class.
type PlaceRow struct {
	Program string
	Profile string
	Fits    bool
	// Errors counts placement violations (0 when Fits).
	Errors int
	// StagesUsed is ingress + egress stages consumed, including
	// overflow stages past the profile's physical count.
	StagesUsed int
	Stages     int
	// Max*Pct is the utilization of the hottest physical stage, in
	// percent of that stage's budget.
	MaxSRAMPct int
	MaxTCAMPct int
	MaxRegPct  int
}

// PlaceResult is the full placement sweep plus the detailed stage map
// for the fabric leaf program under the default profile (CI uploads it
// as an artifact).
type PlaceResult struct {
	Rows       []PlaceRow
	LeafReport string
}

// placePrograms lists the swept programs in report order.
var placePrograms = []struct {
	Name string
	Src  string
}{
	{"usecases/dos", usecases.DosP4R},
	{"usecases/gray", usecases.GrayP4R},
	{"usecases/hashpolar", usecases.HashPolarP4R},
	{"usecases/rlecn", usecases.RLECNP4R},
	{"usecases/base_router", usecases.BaseRouterP4R},
	{"fabric/leaf", fabric.LeafP4R},
	{"fabric/spine", fabric.SpineP4R},
}

// RunPlacement places every shipped program against every registered
// switch profile and reports fit plus peak per-stage utilization.
func RunPlacement() (*PlaceResult, error) {
	res := &PlaceResult{}
	for _, prog := range placePrograms {
		for _, profile := range place.Names() {
			row, pl, err := placePoint(prog.Name, prog.Src, profile)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, *row)
			if prog.Name == "fabric/leaf" && profile == place.DefaultTarget {
				res.LeafReport = pl.Report()
			}
		}
	}
	return res, nil
}

func placePoint(name, src, profile string) (*PlaceRow, *place.Placement, error) {
	opts := compiler.DefaultOptions()
	opts.Target = profile
	plan, err := compiler.CompileSource(src, opts)
	if plan == nil || plan.Placement == nil {
		return nil, nil, fmt.Errorf("%s on %s: %v", name, profile, err)
	}
	pl := plan.Placement
	row := &PlaceRow{
		Program:    name,
		Profile:    profile,
		Fits:       pl.Fits(),
		Errors:     countErrors(pl.Diags),
		StagesUsed: pl.IngressStages + pl.EgressStages,
		Stages:     pl.Profile.Stages,
	}
	for _, su := range pl.Stages {
		if su.Stage > pl.Profile.Stages {
			continue // overflow stages have no budget to be a percentage of
		}
		row.MaxSRAMPct = maxPct(row.MaxSRAMPct, su.SRAMBits, pl.Profile.StageSRAMBits)
		row.MaxTCAMPct = maxPct(row.MaxTCAMPct, su.TCAMBits, pl.Profile.StageTCAMBits)
		row.MaxRegPct = maxPct(row.MaxRegPct, su.RegisterBits, pl.Profile.StageRegisterBits)
	}
	return row, pl, nil
}

func countErrors(l *diag.List) int {
	n := 0
	for _, d := range l.Diags {
		if d.Severity == diag.Error {
			n++
		}
	}
	return n
}

func maxPct(cur, used, budget int) int {
	if budget <= 0 {
		return cur
	}
	p := (used*100 + budget - 1) / budget
	if p > cur {
		return p
	}
	return cur
}

// Tables is the sweep, one row per (program, profile).
func (res *PlaceResult) Tables() []report.Table {
	t := report.Table{Title: "Placement — shipped programs vs switch profiles",
		Columns: []string{"program", "profile", "fits", "stages", "max SRAM", "max TCAM", "max registers"}}
	for _, r := range res.Rows {
		fits := "yes"
		if !r.Fits {
			fits = fmt.Sprintf("no (%d errors)", r.Errors)
		}
		t.Rows = append(t.Rows, report.Row(r.Program, r.Profile, fits, fmt.Sprintf("%d/%d", r.StagesUsed, r.Stages),
			fmt.Sprintf("%d%%", r.MaxSRAMPct), fmt.Sprintf("%d%%", r.MaxTCAMPct), fmt.Sprintf("%d%%", r.MaxRegPct)))
	}
	return []report.Table{t}
}
