package place

import (
	"fmt"
	"strings"
)

// Report renders the placement as a human-readable stage map with
// per-stage utilization percentages (sizes in Kbit under the unbounded
// profile), the format behind mantisc -report:
//
//	placement: profile generic-16stage (16 stages) — FITS
//	stage  pipeline  tables                      sram        tcam        regs
//	    1  ingress   tiRoute, p4r_init           1.2%        4.0%        0%
//	...
func (pl *Placement) Report() string {
	var b strings.Builder
	verdict := "FITS"
	if !pl.Fits() {
		verdict = "DOES NOT FIT"
	}
	used := pl.IngressStages + pl.EgressStages
	if pl.Profile.bounded() {
		fmt.Fprintf(&b, "placement: profile %s (%d stages, %d b SRAM / %d b TCAM / %d b regs / %d tables per stage) — %s\n",
			pl.Profile.Name, pl.Profile.Stages, pl.Profile.StageSRAMBits, pl.Profile.StageTCAMBits,
			pl.Profile.StageRegisterBits, pl.Profile.StageTables, verdict)
		fmt.Fprintf(&b, "stages used: %d ingress + %d egress = %d of %d\n",
			pl.IngressStages, pl.EgressStages, used, pl.Profile.Stages)
	} else {
		fmt.Fprintf(&b, "placement: profile %s (unbounded: dependency order, no budgets) — %s\n",
			pl.Profile.Name, verdict)
		fmt.Fprintf(&b, "stages used: %d ingress + %d egress = %d\n", pl.IngressStages, pl.EgressStages, used)
	}

	const rowFmt = "%5s  %-8s  %-44s %6s %6s %6s\n"
	fmt.Fprintf(&b, rowFmt, "stage", "pipeline", "tables (registers)", "sram", "tcam", "regs")
	for _, su := range pl.Stages {
		if len(su.Tables) == 0 && len(su.Registers) == 0 {
			continue
		}
		pipeline := "egress"
		if su.Stage <= pl.IngressStages {
			pipeline = "ingress"
		}
		label := strings.Join(su.Tables, ", ")
		if len(su.Registers) > 0 {
			label += " (" + strings.Join(su.Registers, ", ") + ")"
		}
		stageNo := fmt.Sprintf("%d", su.Stage)
		if pl.overflow(su.Stage) {
			stageNo += "!" // overflow stage past the physical pipeline
		}
		// Wrap long table lists rather than truncating them.
		for len(label) > 44 {
			cut := strings.LastIndex(label[:44], ", ")
			if cut < 0 {
				break
			}
			fmt.Fprintf(&b, rowFmt, stageNo, pipeline, label[:cut+1], "", "", "")
			label = label[cut+2:]
			stageNo, pipeline = "", ""
		}
		fmt.Fprintf(&b, rowFmt, stageNo, pipeline, label,
			pl.util(su.SRAMBits, pl.Profile.StageSRAMBits),
			pl.util(su.TCAMBits, pl.Profile.StageTCAMBits),
			pl.util(su.RegisterBits, pl.Profile.StageRegisterBits))
	}
	if over := pl.overBudgetStages(); len(over) > 0 {
		fmt.Fprintf(&b, "overflow: %d table(s)/register(s) spilled past stage %d (marked !)\n",
			len(over), pl.Profile.Stages)
	}
	if n := pl.Diags.Len(); n > 0 {
		fmt.Fprintf(&b, "%d placement finding(s):\n", n)
		for _, d := range pl.Diags.Diags {
			fmt.Fprintf(&b, "  %s\n", d.Error())
		}
	}
	return b.String()
}
